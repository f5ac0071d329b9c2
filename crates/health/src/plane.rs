//! The ops plane: one object with one tick.
//!
//! [`OpsPlane::tick`] is the whole per-sample pipeline, in one place
//! and in one order. Each step names what it reads and writes:
//!
//! 1. **snapshot** — call the injected source (which refreshes the
//!    platform's derived gauges first) and stamp the platform clock;
//! 2. **history** — append the tick to the chronicle, the plane's one
//!    memory of ticks: it subtracts the previous accepted tick's
//!    histograms, once, keeps the levels and the new observations as
//!    raw points numbered by tick, and counts a tick it refuses too.
//!    Then show the watched metric's fresh point to the anomaly
//!    detector — only when this tick's append created one, so an idle
//!    tick on a stalled clock is not judged;
//! 3. **SLO table** — evaluate each objective's burn over the last
//!    ticks, read back from the chronicle;
//! 4. **checks** — run every health check: gauges and probes against
//!    the snapshot, latency and ratio checks over the chronicle's slow
//!    window (the plane's own `chronicle-anomaly` check reads the
//!    detector state step 2 just wrote);
//! 5. **recorder** — under one lock, frame what the history cannot
//!    hold, in bundle order: new root spans → SLO table → health
//!    transitions; collect the edges (SLO entered Critical, check
//!    became Unhealthy);
//! 6. **capture** — one bundle per edge, SLO and health first, the
//!    anomaly edge last; every bundle embeds the history's window
//!    before the capture and its percentile table.
//!
//! The sampler thread and a test call the same `tick`; an edge in the
//! tick and `POST /debug/capture` reach the same `capture`. Everything
//! else the plane holds is read through the server's routes.

use std::path::PathBuf;
use std::sync::Arc;

use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
use css_trace::Tracer;
use css_types::{lock_order, Clock};
use parking_lot::Mutex;

use crate::anomaly::AnomalyDetector;
use crate::checks::{self, Check};
use crate::history::Chronicle;
use crate::query::{history_json, percentiles_json};
use crate::recorder::{FlightRecorder, Trigger};
use crate::slo::{self, Slo};
use crate::status::{HealthReport, HealthStatus};

/// Observation frames the flight-recorder ring keeps: one SLO sample
/// per tick, plus each finished root span and health transition — at
/// the 250 ms production cadence up to the last two minutes of ticks.
const RING_FRAMES: usize = 512;
/// The metric the anomaly detector watches (per-tick p99).
const ANOMALY_METRIC: &str = "stage.total";
/// How much raw history every bundle embeds: the raw ring's 960 ticks
/// at the default 250 ms cadence (4 min), so a bundle gets all of it.
const HISTORY_WINDOW_MS: u64 = 240_000;

/// The live ops plane of one platform: metrics history, SLO table,
/// anomaly detector, flight recorder and health checks behind one
/// [`tick`](OpsPlane::tick). `&self` everywhere — share it behind an
/// `Arc` between the [`Sampler`](crate::Sampler) thread (writer) and
/// the [`OpsServer`](crate::OpsServer) workers (readers).
///
/// One thing is injected because its owner sits above this crate: the
/// snapshot source (the platform refreshes its derived gauges before
/// every snapshot).
pub struct OpsPlane {
    source: Box<dyn Fn() -> TelemetrySnapshot + Send + Sync>,
    clock: Arc<dyn Clock>,
    pub(crate) tracer: Tracer,
    checks: Vec<Check>,
    slos: Vec<Slo>,
    /// Held while a tick observes, so the sampler thread and a direct
    /// caller never interleave; no reader takes it, and it is released
    /// before a bundle is written.
    ticking: Mutex<()>,
    pub(crate) history: Chronicle,
    detector: Arc<AnomalyDetector>,
    pub(crate) recorder: FlightRecorder,
}

impl OpsPlane {
    /// A plane over `source`, stamping samples with `clock`, reading
    /// finished spans from `tracer`, reporting its own `blackbox.*` and
    /// `chronicle.*` series through `registry`, evaluating `checks`
    /// (plus its own `chronicle-anomaly` drift check, appended last)
    /// and `slos` in the given order, and writing incident bundles
    /// under `incident_dir`. Nothing runs until [`tick`](Self::tick) is
    /// called — by a [`Sampler`](crate::Sampler), or directly.
    pub fn new(
        source: impl Fn() -> TelemetrySnapshot + Send + Sync + 'static,
        clock: Arc<dyn Clock>,
        tracer: Tracer,
        registry: &MetricsRegistry,
        mut checks: Vec<Check>,
        slos: Vec<Slo>,
        incident_dir: impl Into<PathBuf>,
    ) -> OpsPlane {
        let detector = Arc::new(AnomalyDetector::new(ANOMALY_METRIC));
        // Drift is visible on `/health` for as long as it lasts: the
        // detector freezes its baselines while anomalous, so the check
        // stays Degraded until the metric actually recovers.
        let watched = detector.clone();
        checks.push(Check::new("chronicle-anomaly", move |_| {
            let s = watched.status();
            if s.anomalous {
                HealthStatus::degraded(format!(
                    "{} drifting: {:.0} vs expected {:.0}",
                    s.metric, s.value, s.expected
                ))
            } else {
                HealthStatus::Healthy
            }
        }));
        OpsPlane {
            source: Box::new(source),
            clock,
            tracer,
            checks,
            slos,
            ticking: Mutex::ranked("ops sample", lock_order::OPS_SAMPLE, ()),
            history: Chronicle::new(registry),
            detector,
            recorder: FlightRecorder::new(RING_FRAMES, incident_dir, registry),
        }
    }

    /// One sample: the module docs list the steps. The first tick is
    /// the baseline: the history sees every instrument's lifetime total
    /// as that tick's increase, and no window ever reads it.
    pub fn tick(&self) {
        let triggers = {
            let _ticking = self.ticking.lock();
            self.observe()
        };
        for trigger in triggers {
            self.capture(trigger);
        }
    }

    fn observe(&self) -> Vec<Trigger> {
        let snapshot = (self.source)();
        let now = self.clock.now();
        // Only a point this append created is judged — an idle
        // platform is not a latency recovery, however often a stalled
        // clock repeats its instant.
        let fresh = self.history.append(&snapshot, now, self.detector.metric());
        let anomaly = fresh
            .map(|p99| self.detector.observe(p99))
            .filter(|v| v.edge)
            .map(|v| Trigger::Anomaly {
                metric: self.detector.metric().to_string(),
                value: v.value,
                expected: v.expected,
            });
        let table = slo::table(&self.slos, &self.history);
        let report = checks::report(&self.checks, &snapshot, &self.history);
        let mut triggers = self.recorder.observe(now.0, &self.tracer, &table, &report);
        triggers.extend(anomaly);
        triggers
    }

    /// Freeze the recorder's ring into an incident bundle, now, and
    /// return it: what an edge in [`tick`](Self::tick) and
    /// `POST /debug/capture` both reach. Whatever the trigger, the
    /// bundle embeds the history's last four minutes and the
    /// percentile table merged over them.
    pub(crate) fn capture(&self, trigger: Trigger) -> String {
        let at_ms = self.clock.now().0;
        let from_ms = at_ms.saturating_sub(HISTORY_WINDOW_MS);
        self.recorder.capture(
            trigger,
            &self.snapshot(),
            &self.tracer.finished_spans(),
            at_ms,
            &history_json(&self.history, &self.detector, from_ms, at_ms),
            &percentiles_json(&self.history, from_ms, at_ms),
        )
    }

    /// A fresh snapshot from the injected source.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        (self.source)()
    }

    /// Every check against a fresh snapshot and the chronicle as the
    /// last tick left it (the `/health` document).
    pub(crate) fn health(&self) -> HealthReport {
        checks::report(&self.checks, &self.snapshot(), &self.history)
    }

    /// The `/slo` document.
    pub(crate) fn slo_json(&self) -> String {
        slo::to_json(&self.slos, &self.history)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::history::Resolution;
    use crate::slo::{AlertLevel, SloStatus};
    use css_types::{Duration, SimClock, Timestamp};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Healthy and regressed `stage.total` latencies around the 200 µs
    /// objective (log₂ buckets 131 071 ns and 8 388 607 ns).
    const HEALTHY_NS: u64 = 100_000;
    const SLOW_NS: u64 = 5_000_000;

    /// A plane on a `SimClock` over a bare registry, with one probe the
    /// test can fail — no thread, no socket.
    pub(crate) struct Rig {
        pub plane: Arc<OpsPlane>,
        pub registry: MetricsRegistry,
        pub clock: SimClock,
        pub storage_down: Arc<AtomicBool>,
        pub dir: PathBuf,
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    pub(crate) fn rig(tag: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("css-plane-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = MetricsRegistry::new();
        let clock = SimClock::starting_at(Timestamp(60_000));
        let storage_down = Arc::new(AtomicBool::new(false));
        let down = storage_down.clone();
        let source = registry.clone();
        let plane = OpsPlane::new(
            move || source.snapshot(),
            Arc::new(clock.clone()),
            Tracer::new(64, &registry),
            &registry,
            vec![Check::new("storage", move |_| {
                if down.load(Ordering::SeqCst) {
                    HealthStatus::unhealthy("probe read mismatch")
                } else {
                    HealthStatus::Healthy
                }
            })],
            vec![Slo::latency_p99(
                "detail_request_p99",
                "stage.total",
                200_000,
            )],
            dir.clone(),
        );
        Rig {
            plane: Arc::new(plane),
            registry,
            clock,
            storage_down,
            dir,
        }
    }

    impl OpsPlane {
        /// The evaluated SLO table (what `/slo` renders).
        fn slos(&self) -> Vec<SloStatus> {
            slo::table(&self.slos, &self.history)
        }
    }

    impl Rig {
        /// Five simulated seconds, a burst of requests, one tick.
        pub fn step(&self, latency_ns: u64) {
            self.clock.advance(Duration::millis(5_000));
            for _ in 0..100 {
                self.registry.histogram("stage.total").record(latency_ns);
            }
            self.plane.tick();
        }

        fn kinds(&self) -> Vec<&'static str> {
            self.plane
                .recorder
                .incidents()
                .iter()
                .map(|i| i.kind)
                .collect()
        }

        fn anomaly_check(&self) -> HealthStatus {
            let report = self.plane.health();
            let c = report.components.last().expect("the plane's own check");
            assert_eq!(c.component, "chronicle-anomaly");
            c.status.clone()
        }
    }

    #[test]
    fn regression_goes_critical_on_the_next_tick_with_one_bundle_per_edge() {
        let rig = rig("edges");
        rig.plane.tick(); // baseline
        for _ in 0..10 {
            rig.step(HEALTHY_NS); // past the detector's 8-tick warm-up
        }
        assert_eq!(rig.plane.slos()[0].alert, AlertLevel::Ok);
        assert_eq!(rig.anomaly_check(), HealthStatus::Healthy);
        assert!(rig.kinds().is_empty(), "no spurious incident");

        // The regression: Critical and Degraded on the very next tick.
        rig.step(SLOW_NS);
        assert_eq!(rig.plane.slos()[0].alert, AlertLevel::Critical);
        assert!(rig.plane.detector.status().anomalous);
        match rig.anomaly_check() {
            HealthStatus::Degraded { reason } => {
                assert!(reason.contains("stage.total drifting"), "{reason}")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(rig.kinds(), ["slo_critical", "anomaly"]);

        // One bundle per edge, however long the state lasts.
        for _ in 0..20 {
            rig.step(SLOW_NS);
        }
        assert_eq!(rig.kinds(), ["slo_critical", "anomaly"]);

        // Both bundles embed the history window.
        let bundle = |i: usize| {
            let path = rig.plane.recorder.incidents()[i].path.clone();
            let path = path.expect("written");
            std::fs::read_to_string(path).expect("bundle on disk")
        };
        assert!(bundle(0).contains(r#""history":{"from_ms":0,"#));
        let anomaly = bundle(1);
        assert!(anomaly.contains(r#""history":{"from_ms":0,"#), "{anomaly}");
        assert!(
            anomaly.contains(r#""anomaly":{"metric":"stage.total","anomalous":true"#),
            "{anomaly}"
        );
        assert!(
            anomaly.contains(r#""series":[{"metric":"stage.total""#),
            "{anomaly}"
        );

        // Recovery re-arms both edges: the check goes back to Healthy
        // through the plane's own wiring, the fast window drains, and
        // a second episode captures again.
        for _ in 0..6 {
            rig.step(HEALTHY_NS);
        }
        assert_eq!(rig.anomaly_check(), HealthStatus::Healthy);
        assert_ne!(rig.plane.slos()[0].alert, AlertLevel::Critical);
        rig.step(SLOW_NS);
        assert_eq!(
            rig.kinds(),
            ["slo_critical", "anomaly", "slo_critical", "anomaly"]
        );
    }

    #[test]
    fn an_unhealthy_check_captures_once_and_recovery_rearms_it() {
        let rig = rig("unhealthy");
        rig.plane.tick();
        rig.storage_down.store(true, Ordering::SeqCst);
        for _ in 0..3 {
            rig.step(HEALTHY_NS);
        }
        assert_eq!(rig.kinds(), ["unhealthy"]);
        assert!(!rig.plane.health().is_serving());
        rig.storage_down.store(false, Ordering::SeqCst);
        rig.step(HEALTHY_NS);
        rig.storage_down.store(true, Ordering::SeqCst);
        rig.step(HEALTHY_NS);
        assert_eq!(rig.kinds(), ["unhealthy", "unhealthy"]);
    }

    #[test]
    fn frames_land_in_bundle_order_and_every_capture_is_the_same_operation() {
        let rig = rig("order");
        rig.plane.tick();
        rig.plane
            .tracer
            .root("detail_request", rig.clock.now())
            .finish();
        rig.storage_down.store(true, Ordering::SeqCst);
        rig.step(HEALTHY_NS);
        let reason = "operator request".to_string();
        let manual = rig.plane.capture(Trigger::Manual { reason });
        let types: Vec<&str> = manual
            .match_indices(r#"{"type":""#)
            .map(|(at, m)| &manual[at + m.len()..])
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert_eq!(types, ["slo", "span_root", "slo", "health"]);
        // The edge's bundle and the manual one went through one path:
        // both are listed, both are on disk as returned.
        assert_eq!(rig.kinds(), ["unhealthy", "manual"]);
        let path = rig.plane.recorder.incidents()[1].path.clone();
        let on_disk = std::fs::read_to_string(path.expect("written")).unwrap();
        assert_eq!(on_disk, manual);
        assert!(manual.contains(r#""reason":"operator request""#));
    }

    /// Two slow ticks after 600 fast ones are 0.33 % of the run, too
    /// few to move a lifetime p99; the bundle's points are per tick.
    #[test]
    fn a_short_slowdown_shows_in_a_manual_bundle() {
        let rig = rig("short-slowdown");
        let step = |latency_ns: u64| {
            rig.clock.advance(Duration::millis(250));
            for _ in 0..1_000 {
                rig.registry.histogram("stage.total").record(latency_ns);
            }
            rig.plane.tick();
        };
        for _ in 0..600 {
            step(HEALTHY_NS);
        }
        for _ in 0..2 {
            step(SLOW_NS);
        }
        let reason = "operator request".to_string();
        let bundle = rig.plane.capture(Trigger::Manual { reason });
        let series =
            r#""series":[{"metric":"stage.total","kind":"histogram","resolution":"raw","points":["#;
        let at = bundle.find(series).expect("stage.total leads the history") + series.len();
        let points = &bundle[at..at + bundle[at..].find(']').expect("points end")];
        let p99s: Vec<&str> = points
            .split(r#""p99_ns":"#)
            .skip(1)
            .map(|rest| &rest[..rest.find('}').expect("point end")])
            .collect();
        assert_eq!(p99s.len(), 602, "every tick is in the window");
        assert_eq!(p99s[599..], ["131071", "8388607", "8388607"], "{bundle}");
    }

    /// A plane with one latency SLO and no checks of its own, on
    /// whatever clock the test misbehaves with.
    fn bare(clock: Arc<dyn Clock>) -> (OpsPlane, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let source = registry.clone();
        let plane = OpsPlane::new(
            move || source.snapshot(),
            clock,
            Tracer::disabled(),
            &registry,
            Vec::new(),
            vec![Slo::latency_p99("lat", "stage.total", 200_000)],
            std::env::temp_dir().join(format!("css-plane-{}-bare", std::process::id())),
        );
        (plane, registry)
    }

    #[test]
    fn a_tick_stamped_backwards_reaches_every_store_but_the_history() {
        struct Backwards(SimClock, AtomicBool);
        impl Clock for Backwards {
            fn now(&self) -> Timestamp {
                let lag = if self.1.load(Ordering::SeqCst) {
                    9_000
                } else {
                    0
                };
                Timestamp(self.0.now().0 - lag)
            }
        }
        let sim = SimClock::starting_at(Timestamp(60_000));
        let clock = Arc::new(Backwards(sim.clone(), AtomicBool::new(false)));
        let (plane, registry) = bare(clock.clone());
        let step = |n: u64| {
            sim.advance(Duration::millis(5_000));
            for _ in 0..n {
                registry.histogram("stage.total").record(HEALTHY_NS);
            }
            plane.tick();
        };
        plane.tick();
        step(10);
        clock.1.store(true, Ordering::SeqCst);
        step(20); // stamped 61 000 < 65 000: the history refuses it
        clock.1.store(false, Ordering::SeqCst);
        step(30);
        assert_eq!(registry.snapshot().counter("chronicle.appends_skipped"), 1);
        // The SLO windows took all three ticks…
        let slo = &plane.slos()[0];
        assert_eq!((slo.samples, slo.window_total), (3, 60));
        // …and the history lost nothing: the refused tick's 20
        // observations ride into the next accepted point.
        let counts: Vec<u64> = plane
            .history
            .window("stage.total", Resolution::Raw, 0, u64::MAX)
            .iter()
            .map(|a| a.count)
            .collect();
        assert_eq!(counts, [10, 50]);
    }

    #[test]
    fn stalled_clock_produces_zero_width_ticks_without_panic() {
        // Never advanced: every tick carries the identical timestamp.
        let clock = SimClock::starting_at(Timestamp(9_000));
        let (plane, registry) = bare(Arc::new(clock));
        for _ in 0..5 {
            for _ in 0..100 {
                registry.histogram("stage.total").record(10_000_000);
            }
            plane.tick();
        }
        // Burn math is count-based, so zero elapsed time must not leak
        // NaN/inf into the report (JsonBuf renders those as null).
        let json = plane.slo_json();
        assert!(!json.contains("null"), "{json}");
        assert!(json.contains("\"last_sample_at_ms\":9000"), "{json}");
        assert_eq!(plane.slos()[0].alert, AlertLevel::Critical);
    }

    /// Idle ticks at the instant of a fresh point are not judged: the
    /// detector sees each history point once, however often a stalled
    /// clock (a `SimClock`, a sampler faster than the clock's
    /// resolution) repeats its instant.
    #[test]
    fn idle_ticks_on_a_stalled_clock_do_not_rejudge_the_last_point() {
        let clock = SimClock::starting_at(Timestamp(60_000));
        let (plane, registry) = bare(Arc::new(clock));
        plane.tick(); // baseline
        for _ in 0..100 {
            registry.histogram("stage.total").record(HEALTHY_NS);
        }
        plane.tick();
        for _ in 0..9 {
            plane.tick();
        }
        assert_eq!(plane.detector.samples(), 1);
    }

    #[test]
    fn a_clock_running_backwards_keeps_every_tick_alive() {
        /// A deliberately broken platform clock that runs *backwards*
        /// one millisecond per read — the pathological case for any
        /// delta/rate math keyed on sample timestamps.
        struct Reversing(std::sync::atomic::AtomicU64);
        impl Clock for Reversing {
            fn now(&self) -> Timestamp {
                Timestamp(self.0.fetch_sub(1, Ordering::Relaxed))
            }
        }
        let (plane, registry) = bare(Arc::new(Reversing(1_000_000.into())));
        for _ in 0..5 {
            registry.histogram("stage.total").record(10_000_000);
            plane.tick();
        }
        // Every tick reached the SLO windows and the recorder despite
        // time flowing backwards; the history refused all but the first.
        let json = plane.slo_json();
        assert!(json.starts_with(r#"{"ticks":5,"#), "{json}");
        assert!(!json.contains("null"), "{json}");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("chronicle.appends_skipped"), 4);
        assert_eq!(snapshot.counter("blackbox.frames_recorded"), 5);
    }

    #[test]
    fn a_restarted_histogram_is_one_fresh_baseline_for_every_store() {
        let sim = SimClock::starting_at(Timestamp(60_000));
        let registry = MetricsRegistry::new();
        let restarted = MetricsRegistry::new();
        let swapped = Arc::new(AtomicBool::new(false));
        let (main, after, flag) = (registry.clone(), restarted.clone(), swapped.clone());
        let plane = OpsPlane::new(
            move || {
                if flag.load(Ordering::SeqCst) {
                    after.snapshot()
                } else {
                    main.snapshot()
                }
            },
            Arc::new(sim.clone()),
            Tracer::disabled(),
            &registry,
            Vec::new(),
            vec![Slo::latency_p99("lat", "stage.total", 200_000)],
            std::env::temp_dir().join(format!("css-plane-{}-restart", std::process::id())),
        );
        plane.tick();
        sim.advance(Duration::millis(5_000));
        for _ in 0..50 {
            registry.histogram("stage.total").record(HEALTHY_NS);
        }
        plane.tick();
        // The component restarts: a smaller cumulative count, in the
        // very bucket the old histogram had filled higher.
        sim.advance(Duration::millis(5_000));
        swapped.store(true, Ordering::SeqCst);
        for _ in 0..20 {
            restarted.histogram("stage.total").record(HEALTHY_NS);
        }
        plane.tick();
        // SLO windows and history agree: 50, then 20 — not 50 then 0.
        assert_eq!(plane.slos()[0].window_total, 70);
        let counts: Vec<u64> = plane
            .history
            .window("stage.total", Resolution::Raw, 0, u64::MAX)
            .iter()
            .map(|a| a.count)
            .collect();
        assert_eq!(counts, [50, 20]);
    }

    /// Checks that judge the bus delivery lag (5 ms) and the trace drop
    /// rate (5 %, from 1 000 spans), on a plane with no SLO.
    fn judged(tag: &str) -> (OpsPlane, MetricsRegistry, SimClock) {
        let registry = MetricsRegistry::new();
        let clock = SimClock::starting_at(Timestamp(60_000));
        let source = registry.clone();
        let plane = OpsPlane::new(
            move || source.snapshot(),
            Arc::new(clock.clone()),
            Tracer::disabled(),
            &registry,
            vec![
                Check::p99_above("bus-delivery", "bus.deliver", 5_000_000),
                Check::drop_rate_above(
                    "trace",
                    "trace.spans_dropped",
                    "trace.spans_recorded",
                    0.05,
                    1_000,
                ),
            ],
            Vec::new(),
            std::env::temp_dir().join(format!("css-plane-{}-{tag}", std::process::id())),
        );
        (plane, registry, clock)
    }

    fn status_of(plane: &OpsPlane, component: &str) -> HealthStatus {
        let report = plane.health();
        let c = report.components.iter().find(|c| c.component == component);
        c.expect("a configured check").status.clone()
    }

    /// A thousand ticks of `healthy` work, one tick of `burst`, then
    /// `healthy` again: `component` turns Degraded on the burst's tick
    /// and stays so exactly while the burst is inside the slow window.
    /// Over the platform's lifetime the burst is under 1 % of the work,
    /// too little to move a lifetime judgement.
    fn a_burst_is_judged_while_it_is_in_the_window(
        component: &str,
        healthy: impl Fn(&MetricsRegistry),
        burst: impl Fn(&MetricsRegistry),
    ) {
        let (plane, registry, clock) = judged(component);
        let step = |work: &dyn Fn(&MetricsRegistry)| {
            clock.advance(Duration::millis(250));
            work(&registry);
            plane.tick();
        };
        plane.tick(); // baseline
        for _ in 0..1_000 {
            step(&healthy);
        }
        assert_eq!(status_of(&plane, component), HealthStatus::Healthy);
        step(&burst);
        assert_eq!(status_of(&plane, component).code(), "degraded");
        for _ in 1..crate::slo::SLOW_WINDOW {
            step(&healthy);
        }
        assert_eq!(
            status_of(&plane, component).code(),
            "degraded",
            "the burst's tick is still the window's oldest"
        );
        step(&healthy);
        assert_eq!(status_of(&plane, component), HealthStatus::Healthy);
    }

    #[test]
    fn a_slow_delivery_burst_after_a_healthy_run_degrades_bus_delivery() {
        a_burst_is_judged_while_it_is_in_the_window(
            "bus-delivery",
            |r| (0..1_000).for_each(|_| r.histogram("bus.deliver").record(10_000)),
            |r| (0..5_000).for_each(|_| r.histogram("bus.deliver").record(50_000_000)),
        );
    }

    #[test]
    fn a_span_drop_burst_after_a_healthy_run_degrades_the_trace_check() {
        a_burst_is_judged_while_it_is_in_the_window(
            "trace",
            |r| r.counter("trace.spans_recorded").add(1_000),
            |r| {
                r.counter("trace.spans_recorded").add(5_000);
                r.counter("trace.spans_dropped").add(5_000);
            },
        );
    }

    /// The SLO table, the checks and the history read one store: after
    /// a script with a histogram reset and a refused tick, the latency
    /// SLO counts what the raw tier holds over its window, and the
    /// delivery check names the p99 `quantile_over_time` reads there.
    #[test]
    fn the_slo_table_the_checks_and_the_history_agree() {
        let sim = SimClock::starting_at(Timestamp(60_000));
        let lag_ms = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (main, restarted) = (MetricsRegistry::new(), MetricsRegistry::new());
        let swapped = Arc::new(AtomicBool::new(false));
        let source = {
            let (main, restarted, swapped) = (main.clone(), restarted.clone(), swapped.clone());
            move || {
                let mut snapshot = main.snapshot();
                if swapped.load(Ordering::SeqCst) {
                    snapshot.histograms = restarted.snapshot().histograms;
                }
                snapshot
            }
        };
        struct Lagging(SimClock, Arc<std::sync::atomic::AtomicU64>);
        impl Clock for Lagging {
            fn now(&self) -> Timestamp {
                Timestamp(self.0.now().0 - self.1.load(Ordering::SeqCst))
            }
        }
        let plane = OpsPlane::new(
            source,
            Arc::new(Lagging(sim.clone(), lag_ms.clone())),
            Tracer::disabled(),
            &main,
            vec![Check::p99_above("bus-delivery", "bus.deliver", 5_000_000)],
            vec![Slo::latency_p99("lat", "stage.total", 200_000)],
            std::env::temp_dir().join(format!("css-plane-{}-agree", std::process::id())),
        );
        let step = || {
            sim.advance(Duration::millis(5_000));
            let work = if swapped.load(Ordering::SeqCst) {
                &restarted
            } else {
                &main
            };
            for i in 0..100 {
                work.histogram("stage.total").record(HEALTHY_NS);
                let deliver_ns = if i < 3 { 8_000_000 } else { 1_000 };
                work.histogram("bus.deliver").record(deliver_ns);
            }
            plane.tick();
        };
        plane.tick(); // baseline, at 60 000
        for _ in 0..4 {
            step();
        }
        swapped.store(true, Ordering::SeqCst); // both histograms restart
        step();
        step();
        lag_ms.store(9_000, Ordering::SeqCst); // refused
        step();
        lag_ms.store(0, Ordering::SeqCst);
        step();
        step();
        assert_eq!(main.snapshot().counter("chronicle.appends_skipped"), 1);

        // Nine ticks after the baseline, one refused, all in the slow
        // window: eight raw points, the refused tick's 100 observations
        // in the seventh.
        let lat = &plane.slos()[0];
        assert_eq!(lat.samples, 9);
        let raw: Vec<u64> = plane
            .history
            .window("stage.total", Resolution::Raw, 60_001, u64::MAX)
            .iter()
            .map(|a| a.count)
            .collect();
        assert_eq!(raw, [100, 100, 100, 100, 100, 100, 200, 100]);
        assert_eq!(lat.window_total, raw.iter().sum::<u64>());

        let p99 = plane
            .history
            .quantile_over_time("bus.deliver", 0.99, Resolution::Raw, 60_001, u64::MAX)
            .expect("deliveries in the window");
        assert_eq!(p99, 8_388_607);
        match status_of(&plane, "bus-delivery") {
            HealthStatus::Degraded { reason } => {
                assert!(reason.contains(&format!("p99 = {p99}ns")), "{reason}")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }
}
