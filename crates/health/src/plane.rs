//! The ops plane: one object with one tick.
//!
//! [`OpsPlane::tick`] is the whole per-sample pipeline, in one place
//! and in one order. Each step names what it reads and writes:
//!
//! 1. **snapshot** — call the injected source (which refreshes the
//!    platform's derived gauges first) and stamp the platform clock;
//! 2. **delta** — subtract the retained previous snapshot, once
//!    ([`SnapshotDelta::between`]); nothing below subtracts again;
//! 3. **SLO windows** — push each objective's `(bad, total)` from the
//!    delta, evaluate the alert table;
//! 4. **history** — append the snapshot's levels and the delta's
//!    histogram observations to the ring of rings, then show the
//!    watched metric's fresh point (if this tick produced one) to the
//!    anomaly detector;
//! 5. **checks** — run every health check against the snapshot (the
//!    plane's own `chronicle-anomaly` check reads the detector state
//!    step 4 just wrote);
//! 6. **recorder** — under one lock, frame the tick in bundle order:
//!    telemetry → new root spans → SLO table → health transitions;
//!    collect the edges (SLO entered Critical, check became Unhealthy);
//! 7. **capture** — one bundle per edge, SLO and health first, the
//!    anomaly edge last with its history window embedded.
//!
//! The sampler thread and a test call the same `tick`;
//! `POST /debug/capture`, the sampler and an in-process caller all
//! reach the same [`OpsPlane::capture`].

use std::path::PathBuf;
use std::sync::Arc;

use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
use css_trace::Tracer;
use css_types::Clock;
use parking_lot::Mutex;

use crate::anomaly::{AnomalyDetector, AnomalyStatus};
use crate::checks::{self, Check};
use crate::delta::SnapshotDelta;
use crate::history::{Chronicle, Resolution, Retention};
use crate::query::history_json;
use crate::recorder::{CaptureOutcome, FlightRecorder, IncidentRef, Trigger};
use crate::slo::{Slo, SloEngine, SloStatus};
use crate::status::{HealthReport, HealthStatus};

/// Observation frames the flight-recorder ring keeps — at the 250 ms
/// production cadence roughly the last minute of ticks.
const RING_FRAMES: usize = 512;
/// The metric the anomaly detector watches (per-tick p99).
const ANOMALY_METRIC: &str = "stage.total";
/// How much raw history an anomaly-triggered bundle embeds (5 min).
const ANOMALY_HISTORY_WINDOW_MS: u64 = 300_000;

/// The live ops plane of one platform: SLO windows, metrics history,
/// anomaly detector, flight recorder and health checks behind one
/// [`tick`](OpsPlane::tick). `&self` everywhere — share it behind an
/// `Arc` between the [`Sampler`](crate::Sampler) thread (writer) and
/// the [`OpsServer`](crate::OpsServer) workers (readers).
///
/// Two things are injected because their owners sit above or beside
/// this crate: the snapshot source (the platform refreshes its derived
/// gauges before every snapshot) and the `/monitor` body.
pub struct OpsPlane {
    source: Box<dyn Fn() -> TelemetrySnapshot + Send + Sync>,
    monitor: Box<dyn Fn() -> String + Send + Sync>,
    clock: Arc<dyn Clock>,
    pub(crate) tracer: Tracer,
    checks: Vec<Check>,
    /// The one retained previous snapshot. The guard is held while a
    /// tick observes, so the sampler thread and a direct caller never
    /// interleave; no reader takes it, and it is released before a
    /// bundle is written.
    prev: Mutex<Option<TelemetrySnapshot>>,
    slo: Mutex<SloEngine>,
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
            monitor: Box::new(|| "{}".to_string()),
            clock,
            tracer,
            checks,
            prev: Mutex::new(None),
            slo: Mutex::new(SloEngine::new(slos)),
            history: Chronicle::new(Retention::default(), registry),
            detector,
            recorder: FlightRecorder::new(RING_FRAMES, incident_dir, registry),
        }
    }

    /// Serve `f`'s output (PRM KPI JSON) on `GET /monitor`; an empty
    /// object until injected.
    pub fn with_monitor(mut self, f: impl Fn() -> String + Send + Sync + 'static) -> Self {
        self.monitor = Box::new(f);
        self
    }

    /// One sample: the module docs list the steps. The first tick has
    /// nothing to subtract — it seeds the SLO baseline, while the
    /// history and the recorder see every instrument's lifetime total
    /// as that tick's increase.
    pub fn tick(&self) {
        let triggers = self.observe(&mut self.prev.lock());
        for trigger in triggers {
            self.capture(trigger);
        }
    }

    fn observe(&self, prev: &mut Option<TelemetrySnapshot>) -> Vec<Trigger> {
        let snapshot = (self.source)();
        let now = self.clock.now();
        let at_ms = now.0;
        let empty = TelemetrySnapshot::default();
        let delta = SnapshotDelta::between(prev.as_ref().unwrap_or(&empty), &snapshot);
        let table = {
            let mut slo = self.slo.lock();
            slo.tick(prev.is_some().then_some(&delta), now);
            slo.table()
        };
        // History before the recorder, so this tick's point is
        // queryable by the detector and embedded in any capture below.
        self.history.append(&snapshot, &delta, now);
        let mut anomaly = None;
        if let Some(point) = self.history.latest(self.detector.metric()) {
            // Judge only ticks that recorded fresh observations — an
            // idle platform is not a latency recovery.
            if point.to_ms == at_ms {
                let v = self.detector.observe(point.last);
                if v.edge {
                    anomaly = Some(Trigger::Anomaly {
                        metric: self.detector.metric().to_string(),
                        value: v.value,
                        expected: v.expected,
                    });
                }
            }
        }
        let report = checks::report(&self.checks, &snapshot);
        let mut triggers =
            self.recorder
                .observe(at_ms, &snapshot, &delta, &self.tracer, &table, &report);
        triggers.extend(anomaly);
        *prev = Some(snapshot);
        triggers
    }

    /// Freeze the recorder's ring into an incident bundle, now: what an
    /// edge in [`tick`](Self::tick), `POST /debug/capture` and an
    /// in-process caller all reach. An anomaly trigger embeds the last
    /// five minutes of the watched metric, read from the history.
    pub fn capture(&self, trigger: Trigger) -> CaptureOutcome {
        let at_ms = self.clock.now().0;
        let history = matches!(trigger, Trigger::Anomaly { .. }).then(|| {
            let from_ms = at_ms.saturating_sub(ANOMALY_HISTORY_WINDOW_MS);
            history_json(&self.history, &self.detector, from_ms, at_ms)
        });
        self.recorder.capture(
            trigger,
            &self.snapshot(),
            &self.tracer.finished_spans(),
            at_ms,
            history.as_deref(),
        )
    }

    /// The current SLO table (same data as `GET /slo`).
    pub fn slo_table(&self) -> Vec<SloStatus> {
        self.slo.lock().table()
    }

    /// Recently captured incident bundles, oldest first (same data as
    /// `GET /debug/incidents`).
    pub fn incidents(&self) -> Vec<IncidentRef> {
        self.recorder.incidents()
    }

    /// The anomaly detector's current state.
    pub fn anomaly_status(&self) -> AnomalyStatus {
        self.detector.status()
    }

    /// `quantile_over_time` over the metrics history: the q-quantile of
    /// every observation of histogram `metric` in `[from_ms, to_ms]` at
    /// resolution `res` (what `GET /query?fn=quantile_over_time`
    /// evaluates). `None` for scalar metrics or empty windows.
    pub fn quantile_over_time(
        &self,
        metric: &str,
        q: f64,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<u64> {
        self.history
            .quantile_over_time(metric, q, res, from_ms, to_ms)
    }

    /// A fresh snapshot from the injected source.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        (self.source)()
    }

    /// Every check against a fresh snapshot (the `/health` document).
    pub(crate) fn health(&self) -> HealthReport {
        checks::report(&self.checks, &self.snapshot())
    }

    /// The `/slo` document.
    pub(crate) fn slo_json(&self) -> String {
        self.slo.lock().to_json()
    }

    /// The `/monitor` document.
    pub(crate) fn monitor_json(&self) -> String {
        (self.monitor)()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::slo::AlertLevel;
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
            Tracer::with_metrics(64, &registry),
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
        )
        .with_monitor(|| r#"{"total":7}"#.to_string());
        Rig {
            plane: Arc::new(plane),
            registry,
            clock,
            storage_down,
            dir,
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
            self.plane.incidents().iter().map(|i| i.kind).collect()
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
        assert_eq!(rig.plane.slo_table()[0].alert, AlertLevel::Ok);
        assert_eq!(rig.anomaly_check(), HealthStatus::Healthy);
        assert!(rig.kinds().is_empty(), "no spurious incident");

        // The regression: Critical and Degraded on the very next tick.
        rig.step(SLOW_NS);
        assert_eq!(rig.plane.slo_table()[0].alert, AlertLevel::Critical);
        assert!(rig.plane.anomaly_status().anomalous);
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

        // The anomaly bundle embeds its history window; the SLO one
        // has none.
        let bundle = |i: usize| {
            let path = rig.plane.incidents()[i].path.clone().expect("written");
            std::fs::read_to_string(path).expect("bundle on disk")
        };
        assert!(!bundle(0).contains(r#""history""#));
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
        assert_ne!(rig.plane.slo_table()[0].alert, AlertLevel::Critical);
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
            .json
            .match_indices(r#"{"type":""#)
            .map(|(at, m)| &manual.json[at + m.len()..])
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert_eq!(
            types,
            [
                "telemetry",
                "slo",
                "telemetry",
                "span_root",
                "slo",
                "health"
            ]
        );
        // The edge's bundle and the manual one went through one path:
        // both are listed, both are on disk as returned.
        assert_eq!(rig.kinds(), ["unhealthy", "manual"]);
        let on_disk = std::fs::read_to_string(manual.path.expect("written")).unwrap();
        assert_eq!(on_disk, manual.json);
        assert!(manual.json.contains(r#""reason":"operator request""#));
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
        let slo = &plane.slo_table()[0];
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
        assert_eq!(plane.slo_table()[0].alert, AlertLevel::Critical);
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
        assert_eq!(snapshot.counter("blackbox.frames_recorded"), 10);
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
        assert_eq!(plane.slo_table()[0].window_total, 70);
        let counts: Vec<u64> = plane
            .history
            .window("stage.total", Resolution::Raw, 0, u64::MAX)
            .iter()
            .map(|a| a.count)
            .collect();
        assert_eq!(counts, [50, 20]);
    }
}
