//! Same plane, same bodies: one scripted `SimClock` sequence — idle
//! tick, traffic, a counter that first appears mid-run, a histogram
//! reset, a clock that steps backwards once, a p99 regression that
//! trips the SLO and the drift detector, an Unhealthy check, recovery,
//! a second episode, a manual capture — driven through
//! [`OpsPlane::tick`] with no sampler thread and no sleep, and every
//! body it serves compared byte for byte with
//! `tests/fixtures/ops-plane-1/`.
//!
//! The route bodies were written by the commit *before* `css-blackbox`
//! and `css-chronicle` were folded into `css-health`: the same sequence
//! over that commit's parts wired in its `ops.rs` order
//! (`SloEngine::tick` → `Chronicle::append` → detector → recorder →
//! captures). The six bundles were rewritten by the commit that made
//! the chronicle the plane's one memory of ticks (the child of
//! `1b6fd27`): its recorder frames spans, SLO samples and health
//! transitions only, and every bundle embeds the chronicle's `history`
//! window and a percentile table merged over it. They pin the nine
//! routes' bodies, the bundle schema and the per-tick frame order.
//! After a *deliberate* change to a body, copy the directory the
//! failure message names over the fixture.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use css::health::{Check, HealthStatus, OpsPlane, OpsServer, Slo};
use css::prelude::*;
use css::trace::Tracer;

// ---- the scripted sequence -------------------------------------------------

/// Simulated milliseconds between ticks.
const TICK_MS: u64 = 5_000;
/// Healthy per-request latency (log₂ bucket 131 071 ns, under the SLO).
const HEALTHY_NS: u64 = 100_000;
/// Regressed per-request latency (bucket 8 388 607 ns).
const SLOW_NS: u64 = 5_000_000;

/// Everything the sequence records into, owned outside the plane so
/// the script can misbehave on purpose: a second registry stands in
/// for a restarted component (histogram reset), a flag takes storage
/// down, and the clock is the script's to move.
struct World {
    clock: SimClock,
    /// Subtracted from the clock the plane reads: `SimClock` itself
    /// refuses to go backwards, and one tick has to.
    lag_ms: Arc<AtomicU64>,
    main: MetricsRegistry,
    restarted: MetricsRegistry,
    deliver_reset: Arc<AtomicBool>,
    storage_down: Arc<AtomicBool>,
    tracer: Tracer,
}

impl World {
    fn new() -> World {
        let main = MetricsRegistry::new();
        World {
            clock: SimClock::starting_at(Timestamp(60_000)),
            lag_ms: Arc::new(AtomicU64::new(0)),
            // A 16-span ring: the script laps it, so old exemplars lose
            // their span trees and the trace drop-rate check trips.
            tracer: Tracer::new(16, &main),
            main,
            restarted: MetricsRegistry::new(),
            deliver_reset: Arc::new(AtomicBool::new(false)),
            storage_down: Arc::new(AtomicBool::new(false)),
        }
    }

    fn now(&self) -> Timestamp {
        Timestamp(self.clock.now().0 - self.lag_ms.load(Ordering::SeqCst))
    }

    /// The clock the plane under test reads.
    fn plane_clock(&self) -> Arc<dyn Clock> {
        struct Lagging(SimClock, Arc<AtomicU64>);
        impl Clock for Lagging {
            fn now(&self) -> Timestamp {
                Timestamp(self.0.now().0 - self.1.load(Ordering::SeqCst))
            }
        }
        Arc::new(Lagging(self.clock.clone(), self.lag_ms.clone()))
    }

    /// The snapshot source: the main registry, with `bus.deliver`
    /// served from the restarted registry once the reset happened.
    fn source(&self) -> impl Fn() -> TelemetrySnapshot + Send + Sync + 'static {
        let main = self.main.clone();
        let restarted = self.restarted.clone();
        let reset = self.deliver_reset.clone();
        move || {
            let mut snapshot = main.snapshot();
            if reset.load(Ordering::SeqCst) {
                snapshot.histograms.insert(
                    "bus.deliver".to_string(),
                    restarted.histogram("bus.deliver").snapshot(),
                );
            }
            snapshot
        }
    }

    /// Where deliveries are recorded, and how long one takes: the
    /// restarted component is a little slower, so its observations land
    /// in log₂ buckets the old histogram never filled — the one reset
    /// on which the parent's three subtractions agreed.
    fn deliver(&self) -> (css::telemetry::Histogram, u64) {
        if self.deliver_reset.load(Ordering::SeqCst) {
            (self.restarted.histogram("bus.deliver"), 1_500)
        } else {
            (self.main.histogram("bus.deliver"), 1_000)
        }
    }

    /// One tick's worth of work: 100 detail requests at `latency_ns`
    /// (one of them traced, leaving an exemplar), 50 publishes, PDP
    /// lookups, 20 deliveries, a queue-depth level.
    fn traffic(&self, latency_ns: u64, queue_depth: i64) {
        let now = self.now();
        let stage = self.main.histogram("stage.total");
        for i in 0..99u64 {
            stage.record(latency_ns + (i % 5) * 1_000);
        }
        let root = self.tracer.root("detail_request", now);
        let trace_id = root.trace_id().expect("tracer enabled").value();
        root.context().child("pep.pdp_evaluate").finish();
        root.finish();
        stage.record_with_exemplar(latency_ns, trace_id, now.0);
        self.main.counter("controller.published").add(50);
        self.main.counter("pdp.cache_hit").add(40);
        self.main.counter("pdp.cache_miss").add(5);
        self.main.gauge("bus.queue_depth").set(queue_depth);
        let (deliver, ns) = self.deliver();
        for _ in 0..20 {
            deliver.record(ns);
        }
    }
}

fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(stream, "{method} {path} HTTP/1.0\r\nHost: ops\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// Replace the digits after every `"<key>":` with `0` — span timings
/// come from `Instant` and are the one thing a replay cannot repeat
/// (and a bundle's byte count follows their digits).
fn zero_number(mut text: String, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    while let Some(at) = text[from..].find(&needle) {
        let start = from + at + needle.len();
        let len = text[start..].bytes().take_while(u8::is_ascii_digit).count();
        text.replace_range(start..start + len, "0");
        from = start + 1;
    }
    text
}

fn scrub(text: String, dir: &Path) -> String {
    let text = text.replace(&dir.display().to_string(), "$INCIDENT_DIR");
    ["duration_ns", "start_ns", "bytes"]
        .iter()
        .fold(text, |text, key| zero_number(text, key))
}

/// Every read-only route the sequence pins, as one document.
fn scrape(addr: SocketAddr, dir: &Path) -> String {
    let mut out = String::new();
    for path in [
        "/slo",
        "/health",
        "/query?metric=stage.total&fn=p99",
        "/query?metric=stage.total&fn=p99&res=raw&from=60000&to=200000&step=20000",
        "/query?metric=controller.published&fn=rate&res=raw",
        "/query?metric=no.such.metric",
        "/range?metric=stage.total&res=raw",
        "/range?metric=stage.total&res=minute",
        "/range?metric=bus.deliver&res=raw",
        "/range?metric=bus.queue_depth&res=minute",
        "/range?metric=chronicle.appends_skipped&res=raw&from=90000&to=115000",
        "/debug/incidents",
        "/debug/exemplars",
        "/debug/capture",
        "/nope",
    ] {
        let (code, body) = http(addr, "GET", path);
        out.push_str(&format!("== GET {path} -> {code}\n{body}\n"));
    }
    scrub(out, dir)
}

/// Drive the sequence: `tick` is one sampler tick of the plane under
/// test, `addr` its exposition server. Returns `(file name, content)`
/// for every pinned document — three scrapes and each bundle.
fn drive(world: &World, tick: &dyn Fn(), addr: SocketAddr, dir: &Path) -> Vec<(String, String)> {
    let step = |work: &dyn Fn()| {
        world.clock.advance(Duration::millis(TICK_MS));
        work();
        tick();
    };
    let mut out = Vec::new();

    // Idle baseline, then steady traffic past the detector's warm-up.
    tick();
    step(&|| {});
    for _ in 0..4 {
        step(&|| world.traffic(HEALTHY_NS, 3));
    }
    // A counter that first appears mid-run: one denied publish in
    // 1 000 spends the 0.1 % budget exactly (burn 1.0, Warning).
    step(&|| {
        world.traffic(HEALTHY_NS, 3);
        world.main.counter("controller.published").add(949);
        world.main.counter("controller.publish_denied").add(1);
    });
    // The delivery histogram restarts: its count goes backwards, and
    // three of its first deliveries are slow.
    step(&|| {
        world.deliver_reset.store(true, Ordering::SeqCst);
        for _ in 0..3 {
            world.restarted.histogram("bus.deliver").record(3_500);
        }
        world.traffic(HEALTHY_NS, 3);
    });
    // The clock steps backwards once: the history refuses the tick,
    // the SLO windows and the recorder take it.
    world.lag_ms.store(7_000, Ordering::SeqCst);
    step(&|| world.traffic(HEALTHY_NS, 3));
    world.lag_ms.store(0, Ordering::SeqCst);
    // A queue backlog degrades one check without triggering anything.
    step(&|| world.traffic(HEALTHY_NS, 11));
    for _ in 0..2 {
        step(&|| world.traffic(HEALTHY_NS, 3));
    }

    // The regression: SLO Critical and the anomaly edge on one tick,
    // one bundle each; the state lasting adds none.
    step(&|| world.traffic(SLOW_NS, 3));
    step(&|| world.traffic(SLOW_NS, 3));
    out.push(("regression.txt".to_string(), scrape(addr, dir)));

    // Storage goes down for two ticks: one Unhealthy bundle, 503.
    world.storage_down.store(true, Ordering::SeqCst);
    step(&|| world.traffic(SLOW_NS, 3));
    step(&|| world.traffic(SLOW_NS, 3));
    out.push(("unhealthy.txt".to_string(), scrape(addr, dir)));

    // Recovery: storage back, latency back, the fast window drains.
    world.storage_down.store(false, Ordering::SeqCst);
    for _ in 0..6 {
        step(&|| world.traffic(HEALTHY_NS, 3));
    }
    // A second episode re-arms both edges; a cold PDP cache degrades
    // the policy check on the way.
    step(&|| {
        world.traffic(SLOW_NS, 3);
        world.main.counter("pdp.cache_miss").add(2_000);
    });
    // An operator asks for a bundle; nothing else is pending.
    let (code, manual) = http(addr, "POST", "/debug/capture");
    assert_eq!(code, 200, "{manual}");
    out.push(("final.txt".to_string(), scrape(addr, dir)));

    let mut bundles: Vec<_> = std::fs::read_dir(dir)
        .expect("incident dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    bundles.sort();
    let last = std::fs::read_to_string(bundles.last().expect("bundles written")).unwrap();
    assert_eq!(last, manual, "POST /debug/capture returns what it wrote");
    for path in bundles {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = std::fs::read_to_string(&path).expect("read bundle");
        out.push((name, scrub(body, dir)));
    }
    out
}

// ---- the plane under test --------------------------------------------------

/// One of each check constructor, with thresholds the sequence crosses.
fn checks(world: &World) -> Vec<Check> {
    let down = world.storage_down.clone();
    vec![
        Check::new("storage", move |_| {
            if down.load(Ordering::SeqCst) {
                HealthStatus::unhealthy("probe append failed: injected fault: disk offline")
            } else {
                HealthStatus::Healthy
            }
        }),
        Check::gauge_above("bus-queue", "bus.queue_depth", 10, Some(100)),
        Check::p99_above("bus-delivery", "bus.deliver", 2_500),
        Check::hit_rate_below("policy", "pdp.cache_hit", "pdp.cache_miss", 0.5, 100),
        Check::drop_rate_above(
            "trace",
            "trace.spans_dropped",
            "trace.spans_recorded",
            0.25,
            20,
        ),
        Check::drop_rate_above(
            "blackbox",
            "blackbox.frames_dropped",
            "blackbox.frames_recorded",
            0.25,
            1_000,
        ),
    ]
}

fn slos() -> Vec<Slo> {
    vec![
        Slo::latency_p99("detail_request_p99", "stage.total", 200_000),
        Slo::error_ratio(
            "publish_errors",
            "controller.publish_denied",
            &["controller.published", "controller.publish_denied"],
            0.001,
        ),
        Slo::latency_p99("deliver_p99", "bus.deliver", 3_000),
    ]
}

#[test]
fn the_scripted_sequence_serves_the_pinned_bodies() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ops-plane-1");
    let tmp = std::env::temp_dir().join(format!("css-ops-plane-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (dir, actual) = (tmp.join("incidents"), tmp.join("actual"));

    let world = World::new();
    let plane = OpsPlane::new(
        world.source(),
        world.plane_clock(),
        world.tracer.clone(),
        &world.main,
        checks(&world),
        slos(),
        dir.clone(),
    );
    let plane = Arc::new(plane);
    let handle = OpsServer::bind("127.0.0.1:0", plane.clone()).expect("bind ephemeral");
    let produced = drive(&world, &|| plane.tick(), handle.local_addr(), &dir);

    std::fs::create_dir_all(&actual).unwrap();
    for (name, content) in &produced {
        std::fs::write(actual.join(name), content).unwrap();
    }
    let mut pinned: Vec<String> = std::fs::read_dir(&fixture)
        .expect("fixture directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    pinned.sort();
    let mut names: Vec<String> = produced.iter().map(|(name, _)| name.clone()).collect();
    names.sort();
    assert_eq!(names, pinned, "documents served vs pinned");
    for (name, content) in &produced {
        let expected = std::fs::read_to_string(fixture.join(name)).unwrap();
        assert!(
            *content == expected,
            "{name} differs from the fixture; what was served is in {}",
            actual.display()
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
