//! Declarative SLOs evaluated as multi-window error-budget burn rates.
//!
//! The engine consumes one [`SnapshotDelta`] per tick (the plane
//! subtracts the previous snapshot once, for every consumer) and
//! classifies the *new* observations in it as good or bad per
//! objective:
//!
//! - a **latency** objective (`detail_request p99 < 200µs`) counts an
//!   observation bad when its log₂ bucket's upper bound exceeds the
//!   threshold (the same upper-bound convention the histogram's own
//!   quantiles use);
//! - an **error-ratio** objective (`publish error ratio < 0.1%`) counts
//!   the delta of an error counter against the delta of the attempt
//!   counters.
//!
//! Each tick's `(bad, total)` pair enters a sliding window; the burn
//! rate over a window is `observed bad fraction / allowed bad fraction`
//! — burn 1.0 spends exactly the error budget, sustained; burn 10 spends
//! it ten times too fast. Two windows are kept, SRE-style: **fast**
//! (last 5 samples, catches a live regression within a tick or two) and
//! **slow** (last 60 samples, catches slow leaks), mapped to
//! [`AlertLevel`]s.

use std::collections::VecDeque;

use css_telemetry::JsonBuf;
use css_types::Timestamp;

use crate::delta::SnapshotDelta;

/// Samples in the fast (paging) window.
pub const FAST_WINDOW: usize = 5;
/// Samples in the slow (ticketing) window; also the retained history.
pub const SLOW_WINDOW: usize = 60;
/// Fast-window burn rate at or above which an alert is `Critical`.
pub const CRITICAL_BURN: f64 = 10.0;

/// What a [`Slo`] measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// No more than `allowed` of observations in `histogram` may exceed
    /// `threshold_ns` (e.g. p99 < 200µs ⇔ allowed = 1%).
    LatencyP99 {
        /// Histogram instrument name, e.g. `stage.total`.
        histogram: String,
        /// Per-observation latency ceiling, nanoseconds.
        threshold_ns: u64,
    },
    /// No more than `allowed` of attempts may land on the error counter.
    ErrorRatio {
        /// Error counter name.
        errors: String,
        /// Attempt counters; their delta sum is the denominator (the
        /// error counter is included implicitly if listed).
        attempts: Vec<String>,
    },
}

impl SloObjective {
    /// One-line human description for reports.
    fn describe(&self, allowed: f64) -> String {
        match self {
            SloObjective::LatencyP99 {
                histogram,
                threshold_ns,
            } => format!(
                "{histogram}: at most {:.2}% of observations over {threshold_ns}ns",
                allowed * 100.0
            ),
            SloObjective::ErrorRatio { errors, attempts } => format!(
                "{errors} / ({}) below {:.2}%",
                attempts.join("+"),
                allowed * 100.0
            ),
        }
    }
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Report name, e.g. `detail_request_p99`.
    pub name: String,
    /// What is measured.
    pub objective: SloObjective,
    /// Allowed bad fraction — the error budget per unit of traffic.
    pub allowed: f64,
}

impl Slo {
    /// `p99 < threshold` over a latency histogram: at most 1% of
    /// observations may exceed `threshold_ns`.
    pub fn latency_p99(
        name: impl Into<String>,
        histogram: impl Into<String>,
        threshold_ns: u64,
    ) -> Self {
        Slo {
            name: name.into(),
            objective: SloObjective::LatencyP99 {
                histogram: histogram.into(),
                threshold_ns,
            },
            allowed: 0.01,
        }
    }

    /// An error-ratio objective: `errors / Σ attempts < allowed`.
    pub fn error_ratio(
        name: impl Into<String>,
        errors: impl Into<String>,
        attempts: &[&str],
        allowed: f64,
    ) -> Self {
        Slo {
            name: name.into(),
            objective: SloObjective::ErrorRatio {
                errors: errors.into(),
                attempts: attempts.iter().map(|s| s.to_string()).collect(),
            },
            allowed: allowed.max(f64::MIN_POSITIVE), // a zero budget would divide by zero
        }
    }
}

/// Alert level derived from the two burn-rate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertLevel {
    /// Burn below 1 on both windows: the budget outlives the period.
    Ok,
    /// Burn at or above 1 on either window: budget spending too fast.
    Warning,
    /// Fast-window burn at or above [`CRITICAL_BURN`]: page now.
    Critical,
}

impl AlertLevel {
    /// Wire code: `ok` / `warning` / `critical`.
    pub fn code(self) -> &'static str {
        match self {
            AlertLevel::Ok => "ok",
            AlertLevel::Warning => "warning",
            AlertLevel::Critical => "critical",
        }
    }
}

/// One SLO's evaluated state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The SLO's name.
    pub name: String,
    /// Human description of the objective.
    pub objective: String,
    /// Burn rate over the last [`FAST_WINDOW`] samples.
    pub fast_burn: f64,
    /// Burn rate over the last [`SLOW_WINDOW`] samples.
    pub slow_burn: f64,
    /// Derived alert level.
    pub alert: AlertLevel,
    /// Samples currently in the window.
    pub samples: usize,
    /// Bad observations over the retained window.
    pub window_bad: u64,
    /// Total observations over the retained window.
    pub window_total: u64,
}

/// Per-SLO sliding window of `(bad, total)` tick deltas.
struct SloWindow {
    slo: Slo,
    ticks: VecDeque<(u64, u64)>,
}

impl SloWindow {
    fn burn(&self, window: usize, allowed: f64) -> f64 {
        let (mut bad, mut total) = (0u64, 0u64);
        for (b, t) in self.ticks.iter().rev().take(window) {
            bad += b;
            total += t;
        }
        if total == 0 {
            return 0.0; // no traffic burns no budget
        }
        (bad as f64 / total as f64) / allowed
    }
}

/// The burn-rate engine: feed it tick deltas, read the alert table.
pub(crate) struct SloEngine {
    windows: Vec<SloWindow>,
    ticks: u64,
    last_sample_at: Timestamp,
}

impl SloEngine {
    /// An engine over `slos` (report order = the given order).
    pub(crate) fn new(slos: Vec<Slo>) -> Self {
        SloEngine {
            windows: slos
                .into_iter()
                .map(|slo| SloWindow {
                    slo,
                    ticks: VecDeque::with_capacity(SLOW_WINDOW),
                })
                .collect(),
            ticks: 0,
            last_sample_at: Timestamp::default(),
        }
    }

    /// Consume one tick taken at platform time `at`: push each SLO's
    /// `(bad, total)` of the new observations into its window. The
    /// first tick has no previous snapshot to subtract (`None`) and
    /// only establishes the baseline.
    pub(crate) fn tick(&mut self, delta: Option<&SnapshotDelta>, at: Timestamp) {
        self.ticks += 1;
        self.last_sample_at = at;
        let Some(delta) = delta else { return };
        for w in &mut self.windows {
            if w.ticks.len() == SLOW_WINDOW {
                w.ticks.pop_front();
            }
            w.ticks.push_back(bad_and_total(&w.slo.objective, delta));
        }
    }

    /// The evaluated burn-rate table, in registration order.
    pub(crate) fn table(&self) -> Vec<SloStatus> {
        self.windows
            .iter()
            .map(|w| {
                let fast = w.burn(FAST_WINDOW, w.slo.allowed);
                let slow = w.burn(SLOW_WINDOW, w.slo.allowed);
                let alert = if fast >= CRITICAL_BURN {
                    AlertLevel::Critical
                } else if fast >= 1.0 || slow >= 1.0 {
                    AlertLevel::Warning
                } else {
                    AlertLevel::Ok
                };
                let (bad, total) = w
                    .ticks
                    .iter()
                    .fold((0, 0), |(b, t), (db, dt)| (b + db, t + dt));
                SloStatus {
                    name: w.slo.name.clone(),
                    objective: w.slo.objective.describe(w.slo.allowed),
                    fast_burn: fast,
                    slow_burn: slow,
                    alert,
                    samples: w.ticks.len(),
                    window_bad: bad,
                    window_total: total,
                }
            })
            .collect()
    }

    /// The JSON document served on `GET /slo`.
    pub(crate) fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_object();
        j.key("ticks").u64(self.ticks);
        j.key("last_sample_at_ms")
            .u64(self.last_sample_at.as_millis());
        j.key("fast_window").u64(FAST_WINDOW as u64);
        j.key("slow_window").u64(SLOW_WINDOW as u64);
        j.key("slos").begin_array();
        for s in self.table() {
            j.begin_object();
            j.key("name").string(&s.name);
            j.key("objective").string(&s.objective);
            j.key("fast_burn").f64(s.fast_burn);
            j.key("slow_burn").f64(s.slow_burn);
            j.key("alert").string(s.alert.code());
            j.key("samples").u64(s.samples as u64);
            j.key("window_bad").u64(s.window_bad);
            j.key("window_total").u64(s.window_total);
            j.end_object();
        }
        j.end_array();
        j.end_object();
        j.finish()
    }
}

/// The `(bad, total)` of the observations one tick added, per the
/// objective. A latency bucket counts as over when its upper bound
/// exceeds the threshold — the histogram's own upper-bound quantile
/// convention, so `p99 < t` and `burn(t) < 1` agree.
fn bad_and_total(objective: &SloObjective, delta: &SnapshotDelta) -> (u64, u64) {
    match objective {
        SloObjective::LatencyP99 {
            histogram,
            threshold_ns,
        } => {
            let Some(h) = delta.histograms.get(histogram) else {
                return (0, 0);
            };
            let over = h.buckets.iter().filter(|(bound, _)| bound > threshold_ns);
            (
                over.map(|(_, n)| n).sum(),
                h.buckets.iter().map(|(_, n)| n).sum(),
            )
        }
        SloObjective::ErrorRatio { errors, attempts } => {
            let total: u64 = attempts.iter().map(|c| delta.counter(c)).sum();
            (delta.counter(errors).min(total), total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::{MetricsRegistry, TelemetrySnapshot};

    /// An engine fed the way the plane feeds it: one delta per tick
    /// against the previous snapshot, none on the first.
    struct Fed {
        engine: SloEngine,
        prev: Option<TelemetrySnapshot>,
    }

    impl Fed {
        fn tick(&mut self, cur: &TelemetrySnapshot, at: Timestamp) {
            let delta = self.prev.as_ref().map(|p| SnapshotDelta::between(p, cur));
            self.engine.tick(delta.as_ref(), at);
            self.prev = Some(cur.clone());
        }

        fn table(&self) -> Vec<SloStatus> {
            self.engine.table()
        }
    }

    fn engine_with(slo: Slo) -> (MetricsRegistry, Fed) {
        let engine = SloEngine::new(vec![slo]);
        (MetricsRegistry::new(), Fed { engine, prev: None })
    }

    #[test]
    fn no_traffic_burns_nothing() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(0));
        engine.tick(&reg.snapshot(), Timestamp(100));
        let t = &engine.table()[0];
        assert_eq!(t.fast_burn, 0.0);
        assert_eq!(t.alert, AlertLevel::Ok);
        assert_eq!(t.window_total, 0);
    }

    #[test]
    fn fast_traffic_within_budget_is_ok() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(0));
        for _ in 0..1_000 {
            reg.histogram("stage.total").record(50_000); // well under
        }
        engine.tick(&reg.snapshot(), Timestamp(100));
        let t = &engine.table()[0];
        assert_eq!(t.fast_burn, 0.0);
        assert_eq!(t.window_total, 1_000);
        assert_eq!(t.alert, AlertLevel::Ok);
    }

    #[test]
    fn forced_p99_regression_goes_critical_in_one_traffic_tick() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(0));
        // Every observation lands over the threshold: bad fraction 1.0,
        // burn = 1.0 / 0.01 = 100 ≫ CRITICAL_BURN.
        for _ in 0..100 {
            reg.histogram("stage.total").record(5_000_000);
        }
        engine.tick(&reg.snapshot(), Timestamp(100));
        let t = &engine.table()[0];
        assert!(t.fast_burn > CRITICAL_BURN, "burn={}", t.fast_burn);
        assert_eq!(t.alert, AlertLevel::Critical);
        assert_eq!(t.window_bad, 100);
    }

    #[test]
    fn borderline_burn_warns_before_paging() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(0));
        // 2% of observations slow: burn = 2 — over budget but not 10×.
        for _ in 0..980 {
            reg.histogram("stage.total").record(1_000);
        }
        for _ in 0..20 {
            reg.histogram("stage.total").record(5_000_000);
        }
        engine.tick(&reg.snapshot(), Timestamp(100));
        let t = &engine.table()[0];
        assert!(t.fast_burn > 1.0 && t.fast_burn < CRITICAL_BURN);
        assert_eq!(t.alert, AlertLevel::Warning);
    }

    #[test]
    fn error_ratio_counts_counter_deltas() {
        let (reg, mut engine) = engine_with(Slo::error_ratio(
            "publish_errors",
            "controller.publish_denied",
            &["controller.published", "controller.publish_denied"],
            0.001,
        ));
        reg.counter("controller.published").add(1_000); // pre-baseline
        engine.tick(&reg.snapshot(), Timestamp(0));
        reg.counter("controller.published").add(999);
        reg.counter("controller.publish_denied").add(1);
        engine.tick(&reg.snapshot(), Timestamp(100));
        let t = &engine.table()[0];
        // 1/1000 errors against a 0.1% budget: burn exactly 1.0.
        assert!((t.fast_burn - 1.0).abs() < 1e-9, "burn={}", t.fast_burn);
        assert_eq!(t.alert, AlertLevel::Warning);
        assert_eq!(t.window_total, 1_000);
    }

    #[test]
    fn fast_window_recovers_while_slow_window_remembers() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(0));
        for _ in 0..100 {
            reg.histogram("stage.total").record(5_000_000); // regression tick
        }
        engine.tick(&reg.snapshot(), Timestamp(1));
        // FAST_WINDOW quiet-but-busy ticks push the incident out of the
        // fast window while it stays inside the slow one.
        for tick in 0..FAST_WINDOW as u64 {
            for _ in 0..10_000 {
                reg.histogram("stage.total").record(1_000);
            }
            engine.tick(&reg.snapshot(), Timestamp(2 + tick));
        }
        let t = &engine.table()[0];
        assert_eq!(t.fast_burn, 0.0, "incident aged out of the fast window");
        assert!(t.slow_burn > 0.0, "slow window still carries it");
    }

    #[test]
    fn window_is_bounded_at_slow_window() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        for i in 0..(SLOW_WINDOW as u64 + 20) {
            reg.histogram("stage.total").record(1_000);
            engine.tick(&reg.snapshot(), Timestamp(i));
        }
        assert_eq!(engine.table()[0].samples, SLOW_WINDOW);
        assert_eq!(engine.engine.ticks, SLOW_WINDOW as u64 + 20);
    }

    #[test]
    fn json_renders_the_table() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(42));
        let json = engine.engine.to_json();
        assert!(
            json.starts_with("{\"ticks\":1,\"last_sample_at_ms\":42,"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"lat\""));
        assert!(json.contains("\"alert\":\"ok\""));
    }
}
