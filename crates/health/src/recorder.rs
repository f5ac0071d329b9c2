//! The flight recorder: bounded ring, trigger model, incident capture.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

use css_telemetry::{Counter, Gauge, MetricsRegistry, TelemetrySnapshot};
use css_trace::{Span, Tracer};
use parking_lot::Mutex;

use crate::bundle;
use crate::delta::SnapshotDelta;
use crate::frame::{Frame, HistogramStat, SpanRootFrame, TelemetryFrame};
use crate::slo::{AlertLevel, SloStatus};
use crate::status::{HealthReport, HealthStatus};

/// Root spans recorded per observation (newest win; a busy tick does
/// not flood the ring with one frame per request).
const ROOTS_PER_TICK: usize = 16;
/// Incident references retained for `/debug/incidents`.
const INCIDENTS_RETAINED: usize = 32;

/// Why a capture happened. SLO/health triggers fire on the *transition
/// into* the bad state — a burn that stays Critical for twenty ticks
/// produces one bundle, not twenty; it can fire again only after the
/// state recovers.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// An SLO's alert level reached Critical.
    SloCritical { slo: String, fast_burn: f64 },
    /// A health check transitioned to Unhealthy.
    Unhealthy { component: String, reason: String },
    /// A chronicle anomaly detector saw a metric leave its learned
    /// band (the rising edge of the anomalous state).
    Anomaly {
        metric: String,
        value: f64,
        expected: f64,
    },
    /// An operator or test asked for a capture explicitly.
    Manual { reason: String },
}

impl Trigger {
    /// Stable discriminator used in bundle JSON and incident lists.
    pub fn kind(&self) -> &'static str {
        match self {
            Trigger::SloCritical { .. } => "slo_critical",
            Trigger::Unhealthy { .. } => "unhealthy",
            Trigger::Anomaly { .. } => "anomaly",
            Trigger::Manual { .. } => "manual",
        }
    }

    /// One-line human summary (also privacy-safe: SLO names, component
    /// names, and check reasons are aggregates by construction).
    pub fn detail(&self) -> String {
        match self {
            Trigger::SloCritical { slo, fast_burn } => {
                format!("slo {slo} critical (fast burn {fast_burn:.1})")
            }
            Trigger::Unhealthy { component, reason } => format!("{component} unhealthy: {reason}"),
            Trigger::Anomaly {
                metric,
                value,
                expected,
            } => format!("{metric} anomalous: {value:.0} vs expected {expected:.0}"),
            Trigger::Manual { reason } => reason.clone(),
        }
    }
}

/// A retained pointer to a written incident bundle.
#[derive(Debug, Clone)]
pub struct IncidentRef {
    pub seq: u64,
    pub at_ms: u64,
    pub kind: &'static str,
    pub detail: String,
    /// Where the bundle landed, if the write succeeded.
    pub path: Option<PathBuf>,
    pub bytes: usize,
}

/// The result of freezing the ring.
pub struct CaptureOutcome {
    pub seq: u64,
    /// The full bundle document (what `POST /debug/capture` returns).
    pub json: String,
    /// Where it was written, unless the filesystem refused.
    pub path: Option<PathBuf>,
}

#[derive(Default)]
struct RecorderState {
    ring: VecDeque<Frame>,
    /// SLOs currently at Critical (trigger edge detection).
    critical: BTreeSet<String>,
    /// Last seen status code per health component (transition
    /// detection).
    health: BTreeMap<String, &'static str>,
    /// The tracer's lifetime span count at the last observation, so
    /// each tick records only roots that finished since.
    spans_seen: u64,
    incidents: VecDeque<IncidentRef>,
    seq: u64,
}

/// The continuously-running incident flight recorder. `&self`
/// everywhere: the plane's tick writes, the ops endpoints read.
pub(crate) struct FlightRecorder {
    capacity: usize,
    incident_dir: PathBuf,
    state: Mutex<RecorderState>,
    frames_recorded: Counter,
    frames_dropped: Counter,
    occupancy: Gauge,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` frames, writing bundles
    /// under `incident_dir`, and reporting itself through `registry`
    /// (`blackbox.frames_recorded`, `blackbox.frames_dropped`,
    /// `blackbox.ring_occupancy`).
    pub(crate) fn new(
        capacity: usize,
        incident_dir: impl Into<PathBuf>,
        registry: &MetricsRegistry,
    ) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            incident_dir: incident_dir.into(),
            state: Mutex::default(),
            frames_recorded: registry.counter("blackbox.frames_recorded"),
            frames_dropped: registry.counter("blackbox.frames_dropped"),
            occupancy: registry.gauge("blackbox.ring_occupancy"),
        }
    }

    fn push(&self, state: &mut RecorderState, frame: Frame) {
        if state.ring.len() >= self.capacity {
            state.ring.pop_front();
            self.frames_dropped.inc();
        }
        state.ring.push_back(frame);
        self.frames_recorded.inc();
        self.occupancy.set(state.ring.len() as i64);
    }

    /// Record one tick, under one lock and in bundle order — the
    /// telemetry frame, the root spans finished since the last tick,
    /// the SLO table, then each health transition — and return a
    /// trigger for every SLO that *entered* Critical and every
    /// component that *became* Unhealthy at this tick.
    pub(crate) fn observe(
        &self,
        at_ms: u64,
        snapshot: &TelemetrySnapshot,
        delta: &SnapshotDelta,
        tracer: &Tracer,
        table: &[SloStatus],
        report: &HealthReport,
    ) -> Vec<Trigger> {
        let mut state = self.state.lock();
        self.observe_telemetry(&mut state, snapshot, delta, at_ms);
        self.observe_spans(&mut state, tracer, at_ms);
        let mut triggers = self.observe_slos(&mut state, table, at_ms);
        triggers.extend(self.observe_health(&mut state, report, at_ms));
        triggers
    }

    /// The telemetry frame: the tick's counter increases plus
    /// per-histogram cumulative summaries.
    fn observe_telemetry(
        &self,
        state: &mut RecorderState,
        snapshot: &TelemetrySnapshot,
        delta: &SnapshotDelta,
        at_ms: u64,
    ) {
        let histograms = snapshot
            .histograms
            .iter()
            .map(|(name, h)| HistogramStat {
                name: name.clone(),
                count: h.count,
                p50_ns: h.p50_ns,
                p99_ns: h.p99_ns,
                max_ns: h.max_ns,
            })
            .collect();
        self.push(
            state,
            Frame::Telemetry(TelemetryFrame {
                at_ms,
                counter_deltas: delta.counters.clone(),
                histograms,
            }),
        );
    }

    /// The SLO burn-rate frame, and a trigger for every SLO that
    /// *entered* Critical at this sample.
    fn observe_slos(
        &self,
        state: &mut RecorderState,
        table: &[SloStatus],
        at_ms: u64,
    ) -> Vec<Trigger> {
        let mut triggers = Vec::new();
        for s in table {
            if s.alert != AlertLevel::Critical {
                state.critical.remove(&s.name);
            } else if state.critical.insert(s.name.clone()) {
                triggers.push(Trigger::SloCritical {
                    slo: s.name.clone(),
                    fast_burn: s.fast_burn,
                });
            }
        }
        self.push(
            state,
            Frame::Slo {
                at_ms,
                samples: table.to_vec(),
            },
        );
        triggers
    }

    /// Health transitions (changes of status code only — a reason that
    /// rewords itself is not a transition), and a trigger for every
    /// component that *became* Unhealthy.
    fn observe_health(
        &self,
        state: &mut RecorderState,
        report: &HealthReport,
        at_ms: u64,
    ) -> Vec<Trigger> {
        let mut triggers = Vec::new();
        for c in &report.components {
            let from = state
                .health
                .insert(c.component.clone(), c.status.code())
                .unwrap_or(HealthStatus::Healthy.code());
            if from == c.status.code() {
                continue;
            }
            self.push(
                state,
                Frame::Health {
                    at_ms,
                    from,
                    to: c.clone(),
                },
            );
            if let HealthStatus::Unhealthy { reason } = &c.status {
                triggers.push(Trigger::Unhealthy {
                    component: c.component.clone(),
                    reason: reason.clone(),
                });
            }
        }
        triggers
    }

    /// Root spans finished since the last observation, newest
    /// [`ROOTS_PER_TICK`] at most. "Since" is counted in finish order —
    /// the tracer's lifetime span count against its retained window,
    /// which is oldest first — never by span id: ids are minted when a
    /// span *starts*, so a slow root carries a lower id than every
    /// request that overtook it, and an id high-water mark would skip
    /// exactly the request an incident bundle exists to show. The
    /// count is read on both sides of the window: a span finishing in
    /// between may be framed twice, never missed.
    fn observe_spans(&self, state: &mut RecorderState, tracer: &Tracer, at_ms: u64) {
        let before = tracer.recorded();
        let spans = tracer.finished_spans();
        let fresh = tracer.recorded().saturating_sub(state.spans_seen) as usize;
        state.spans_seen = before;
        let new_roots: Vec<&Span> = spans[spans.len() - fresh.min(spans.len())..]
            .iter()
            .filter(|s| s.parent.is_none())
            .collect();
        let skip = new_roots.len().saturating_sub(ROOTS_PER_TICK);
        for span in new_roots.into_iter().skip(skip) {
            self.push(
                state,
                Frame::SpanRoot(SpanRootFrame {
                    at_ms,
                    trace_id: span.trace.0,
                    name: span.name.to_string(),
                    duration_ns: span.duration_ns(),
                    status: span.status.code(),
                }),
            );
        }
    }

    /// Freeze the ring into an incident bundle: serialize it with the
    /// trigger, current exemplars, the span trees those exemplars point
    /// at, `stage.*`/`shard.*` percentiles and — when the caller read
    /// one from the history store — the metrics-history window as the
    /// bundle's `history` section; write it under the incident
    /// directory; remember it for `/debug/incidents`. Never panics: a
    /// filesystem failure yields `path: None` with the JSON still
    /// returned.
    pub(crate) fn capture(
        &self,
        trigger: Trigger,
        snapshot: &TelemetrySnapshot,
        spans: &[Span],
        at_ms: u64,
        history: Option<&str>,
    ) -> CaptureOutcome {
        let (seq, frames) = {
            let mut state = self.state.lock();
            state.seq += 1;
            (state.seq, state.ring.iter().cloned().collect::<Vec<_>>())
        };
        let json = bundle::bundle_json(seq, at_ms, &trigger, &frames, snapshot, spans, history);
        let path = self.write_bundle(seq, at_ms, &json);
        let mut state = self.state.lock();
        let evicted = if state.incidents.len() >= INCIDENTS_RETAINED {
            state.incidents.pop_front()
        } else {
            None
        };
        state.incidents.push_back(IncidentRef {
            seq,
            at_ms,
            kind: trigger.kind(),
            detail: trigger.detail(),
            path: path.clone(),
            bytes: json.len(),
        });
        drop(state);
        // The list and the directory are bounded together: a check
        // flapping at the sampler cadence must not fill the disk.
        // Failing to remove is ignored, as failing to write is.
        if let Some(old) = evicted.and_then(|incident| incident.path) {
            let _ = std::fs::remove_file(old);
        }
        CaptureOutcome { seq, json, path }
    }

    fn write_bundle(&self, seq: u64, at_ms: u64, json: &str) -> Option<PathBuf> {
        std::fs::create_dir_all(&self.incident_dir).ok()?;
        let path = self
            .incident_dir
            .join(format!("incident-{seq:04}-{at_ms}.json"));
        std::fs::write(&path, json).ok()?;
        Some(path)
    }

    /// The `/debug/incidents` document: recently captured bundles,
    /// oldest first.
    pub(crate) fn incidents_json(&self) -> String {
        bundle::incidents_json(self.state.lock().incidents.iter())
    }

    /// Recent incident references (oldest first).
    pub(crate) fn incidents(&self) -> Vec<IncidentRef> {
        self.state.lock().incidents.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::ComponentHealth;
    use css_types::Timestamp;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("css-recorder-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn recorder(capacity: usize, registry: &MetricsRegistry) -> FlightRecorder {
        FlightRecorder::new(capacity, temp_dir(&format!("ring-{capacity}")), registry)
    }

    impl FlightRecorder {
        fn occupancy(&self) -> usize {
            self.state.lock().ring.len()
        }

        fn slos(&self, table: &[SloStatus], at_ms: u64) -> Vec<Trigger> {
            self.observe_slos(&mut self.state.lock(), table, at_ms)
        }

        fn health(&self, status: HealthStatus, at_ms: u64) -> Vec<Trigger> {
            let components = vec![ComponentHealth {
                component: "storage".to_string(),
                status,
            }];
            self.observe_health(&mut self.state.lock(), &HealthReport { components }, at_ms)
        }

        fn manual(&self, snapshot: &TelemetrySnapshot, at_ms: u64) -> CaptureOutcome {
            let reason = "operator test".to_string();
            self.capture(Trigger::Manual { reason }, snapshot, &[], at_ms, None)
        }
    }

    fn slo(name: &str, alert: AlertLevel) -> SloStatus {
        SloStatus {
            name: name.to_string(),
            objective: String::new(),
            fast_burn: if alert == AlertLevel::Critical {
                25.0
            } else {
                0.1
            },
            slow_burn: 0.1,
            alert,
            samples: 1,
            window_bad: 0,
            window_total: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_it() {
        let registry = MetricsRegistry::new();
        let rec = recorder(3, &registry);
        for i in 0..5 {
            rec.slos(&[slo("lat", AlertLevel::Ok)], i);
        }
        assert_eq!(rec.occupancy(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["blackbox.frames_recorded"], 5);
        assert_eq!(snap.counters["blackbox.frames_dropped"], 2);
        assert_eq!(snap.gauges["blackbox.ring_occupancy"], 3);
        // The survivors are the newest frames.
        let out = rec.manual(&snap, 99);
        assert!(out.json.contains(r#""at_ms":4"#), "{}", out.json);
        assert!(!out.json.contains(r#""at_ms":0"#), "{}", out.json);
    }

    #[test]
    fn slo_trigger_fires_on_the_transition_only() {
        let registry = MetricsRegistry::new();
        let rec = recorder(16, &registry);
        assert!(rec.slos(&[slo("lat", AlertLevel::Ok)], 1).is_empty());
        let t = rec.slos(&[slo("lat", AlertLevel::Critical)], 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].kind(), "slo_critical");
        // Still critical: no re-trigger.
        assert!(rec.slos(&[slo("lat", AlertLevel::Critical)], 3).is_empty());
        // Recovered, then critical again: fires again.
        assert!(rec.slos(&[slo("lat", AlertLevel::Ok)], 4).is_empty());
        assert_eq!(rec.slos(&[slo("lat", AlertLevel::Critical)], 5).len(), 1);
    }

    #[test]
    fn health_records_transitions_and_triggers_on_unhealthy() {
        let registry = MetricsRegistry::new();
        let rec = recorder(16, &registry);
        let unhealthy = || HealthStatus::unhealthy("probe read mismatch");
        // Initial Healthy is the implied baseline: no frame, no trigger.
        assert!(rec.health(HealthStatus::Healthy, 1).is_empty());
        assert_eq!(rec.occupancy(), 0);
        let t = rec.health(unhealthy(), 2);
        assert_eq!(t.len(), 1);
        assert!(matches!(&t[0], Trigger::Unhealthy { component, .. } if component == "storage"));
        assert_eq!(rec.occupancy(), 1);
        // Unchanged state: no new frame, no re-trigger — even when the
        // reason rewords itself.
        assert!(rec.health(unhealthy(), 3).is_empty());
        assert!(rec
            .health(HealthStatus::unhealthy("probe append failed"), 3)
            .is_empty());
        assert_eq!(rec.occupancy(), 1);
        // Recovery is a recorded transition but not a trigger.
        assert!(rec.health(HealthStatus::Healthy, 4).is_empty());
        assert_eq!(rec.occupancy(), 2);
    }

    #[test]
    fn telemetry_frames_carry_counter_deltas() {
        let registry = MetricsRegistry::new();
        let rec = recorder(16, &registry);
        let work = MetricsRegistry::new();
        work.counter("controller.published").add(10);
        let first = work.snapshot();
        let delta = SnapshotDelta::between(&TelemetrySnapshot::default(), &first);
        rec.observe_telemetry(&mut rec.state.lock(), &first, &delta, 1);
        work.counter("controller.published").add(5);
        let second = work.snapshot();
        let delta = SnapshotDelta::between(&first, &second);
        rec.observe_telemetry(&mut rec.state.lock(), &second, &delta, 2);
        let out = rec.manual(&second, 3);
        // First frame sees the full total, second only the increase.
        assert!(
            out.json.contains(r#"["controller.published",10]"#),
            "{}",
            out.json
        );
        assert!(
            out.json.contains(r#"["controller.published",5]"#),
            "{}",
            out.json
        );
    }

    /// The interleaving that lost the slow request when "new" was read
    /// off span ids: A starts first (lowest id) and finishes last.
    #[test]
    fn a_slow_root_overtaken_by_a_fast_one_is_still_recorded() {
        let registry = MetricsRegistry::new();
        let rec = recorder(16, &registry);
        let tracer = Tracer::new(64);
        let slow = tracer.root("slow_request", Timestamp(1));
        let fast = tracer.root("fast_request", Timestamp(1));
        fast.finish();
        slow.context().child("pep.pdp_evaluate").finish();
        rec.observe_spans(&mut rec.state.lock(), &tracer, 10);
        assert_eq!(rec.occupancy(), 1, "only the fast root has finished");
        slow.finish();
        rec.observe_spans(&mut rec.state.lock(), &tracer, 20);
        rec.observe_spans(&mut rec.state.lock(), &tracer, 30);
        let json = rec.manual(&registry.snapshot(), 40).json;
        assert_eq!(json.matches(r#""type":"span_root""#).count(), 2, "{json}");
        assert!(json.contains(r#""name":"slow_request""#), "{json}");
    }

    #[test]
    fn a_busy_tick_keeps_the_newest_roots_and_a_lapped_ring_does_not_panic() {
        let registry = MetricsRegistry::new();
        let rec = recorder(64, &registry);
        let tracer = Tracer::new(8);
        for _ in 0..40 {
            tracer.root("request", Timestamp(1)).finish();
        }
        rec.observe_spans(&mut rec.state.lock(), &tracer, 1);
        assert_eq!(rec.occupancy(), 8, "the retained window, all roots");
        for _ in 0..3 {
            tracer.root("request", Timestamp(2)).finish();
        }
        rec.observe_spans(&mut rec.state.lock(), &tracer, 2);
        assert_eq!(rec.occupancy(), 11, "three finished since");
    }

    #[test]
    fn ring_overrun_degrades_the_drop_rate_check() {
        use crate::checks::{report, Check};
        let registry = MetricsRegistry::new();
        let rec = recorder(4, &registry);
        let check = [Check::drop_rate_above(
            "blackbox",
            "blackbox.frames_dropped",
            "blackbox.frames_recorded",
            0.25,
            1_000,
        )];
        // Under the minimum sample count the check withholds judgment.
        for i in 0..100 {
            rec.slos(&[slo("lat", AlertLevel::Ok)], i);
        }
        let status = report(&check, &registry.snapshot()).rollup();
        assert_eq!(status, HealthStatus::Healthy);
        // Force a sustained overrun: far more frames than the ring
        // holds, so most recorded frames have been dropped.
        for i in 100..2_000 {
            rec.slos(&[slo("lat", AlertLevel::Ok)], i);
        }
        let status = report(&check, &registry.snapshot()).rollup();
        assert!(
            matches!(status, HealthStatus::Degraded { .. }),
            "overrun must degrade the ring: {status:?}"
        );
    }

    #[test]
    fn capture_writes_the_bundle_and_lists_it() {
        let registry = MetricsRegistry::new();
        let dir = temp_dir("capture");
        let rec = FlightRecorder::new(8, &dir, &registry);
        rec.slos(&[slo("lat", AlertLevel::Ok)], 1);
        let out = rec.manual(&registry.snapshot(), 2);
        let path = out.path.expect("bundle written");
        let on_disk = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(on_disk, out.json);
        assert!(out.json.starts_with(r#"{"schema":"css-blackbox/1""#));
        assert!(out.json.contains(r#""kind":"manual""#));
        let list = rec.incidents_json();
        assert!(list.contains(r#""seq":1"#), "{list}");
        assert!(list.contains("operator test"), "{list}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_incident_directory_is_bounded_with_the_list() {
        let registry = MetricsRegistry::new();
        let dir = temp_dir("bounded");
        let rec = FlightRecorder::new(8, &dir, &registry);
        for at_ms in 1..=40 {
            rec.manual(&registry.snapshot(), at_ms);
        }
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("incident dir")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        on_disk.sort();
        let listed: Vec<String> = rec
            .incidents()
            .iter()
            .map(|i| i.path.as_ref().unwrap().file_name().unwrap())
            .map(|n| n.to_string_lossy().into_owned())
            .collect();
        assert_eq!(on_disk.len(), INCIDENTS_RETAINED);
        assert_eq!(on_disk, listed, "the files kept are the ones listed");
        assert_eq!(on_disk[0], "incident-0009-9.json", "the 32 newest");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
