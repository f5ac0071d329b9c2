//! Declarative SLOs evaluated as multi-window error-budget burn rates.
//!
//! The table keeps no ticks of its own: each objective reads the last
//! ticks the plane ran back from the chronicle's raw tier
//! ([`Chronicle::recent`], [`Chronicle::increase`]) and classifies the
//! observations in them as good or bad:
//!
//! - a **latency** objective (`detail_request p99 < 200µs`) counts an
//!   observation bad when its log₂ bucket's upper bound exceeds the
//!   threshold (the same upper-bound convention the histogram's own
//!   quantiles use);
//! - an **error-ratio** objective (`publish error ratio < 0.1%`) counts
//!   the rise of an error counter against the rise of the attempt
//!   counters.
//!
//! The burn rate over a window is `observed bad fraction / allowed bad
//! fraction` — burn 1.0 spends exactly the error budget, sustained;
//! burn 10 spends it ten times too fast. Two windows are read,
//! SRE-style: **fast** (last 5 ticks, catches a live regression within
//! a tick or two) and **slow** (last 60 ticks, catches slow leaks; the
//! health checks judge over it too), mapped to [`AlertLevel`]s.

use css_telemetry::JsonBuf;

use crate::history::Chronicle;

/// Ticks in the fast (paging) window.
const FAST_WINDOW: u64 = 5;
/// Ticks in the slow (ticketing) window, and the window every windowed
/// health check judges.
pub(crate) const SLOW_WINDOW: u64 = 60;
/// Fast-window burn rate at or above which an alert is `Critical`.
const CRITICAL_BURN: f64 = 10.0;
/// What a [`Slo`] measures.
#[derive(Debug, Clone, PartialEq)]
enum SloObjective {
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
    name: String,
    /// What is measured.
    objective: SloObjective,
    /// Allowed bad fraction — the error budget per unit of traffic.
    allowed: f64,
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
pub(crate) enum AlertLevel {
    /// Burn below 1 on both windows: the budget outlives the period.
    Ok,
    /// Burn at or above 1 on either window: budget spending too fast.
    Warning,
    /// Fast-window burn at or above [`CRITICAL_BURN`]: page now.
    Critical,
}

impl AlertLevel {
    /// Wire code: `ok` / `warning` / `critical`.
    pub(crate) fn code(self) -> &'static str {
        match self {
            AlertLevel::Ok => "ok",
            AlertLevel::Warning => "warning",
            AlertLevel::Critical => "critical",
        }
    }
}

/// One SLO's evaluated state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SloStatus {
    /// The SLO's name.
    pub name: String,
    /// Human description of the objective.
    pub objective: String,
    /// Burn rate over the last [`FAST_WINDOW`] ticks.
    pub fast_burn: f64,
    /// Burn rate over the last [`SLOW_WINDOW`] ticks.
    pub slow_burn: f64,
    /// Derived alert level.
    pub alert: AlertLevel,
    /// Ticks in the slow window (the baseline tick never is).
    pub samples: u64,
    /// Bad observations over the slow window.
    pub window_bad: u64,
    /// Total observations over the slow window.
    pub window_total: u64,
}

impl Slo {
    /// The `(bad, total)` of the observations the last `ticks` ticks
    /// added, per the objective. A latency bucket counts as over when
    /// its upper bound exceeds the threshold — the histogram's own
    /// upper-bound quantile convention, so `p99 < t` and `burn(t) < 1`
    /// agree.
    fn bad_and_total(&self, history: &Chronicle, ticks: u64) -> (u64, u64) {
        match &self.objective {
            SloObjective::LatencyP99 {
                histogram,
                threshold_ns,
            } => {
                let Some(h) = history.recent(histogram, ticks) else {
                    return (0, 0);
                };
                let over = h.buckets.iter().filter(|(bound, _)| bound > threshold_ns);
                (
                    over.map(|(_, n)| n).sum(),
                    h.buckets.iter().map(|(_, n)| n).sum(),
                )
            }
            SloObjective::ErrorRatio { errors, attempts } => {
                let total: u64 = attempts.iter().map(|c| history.increase(c, ticks)).sum();
                (history.increase(errors, ticks).min(total), total)
            }
        }
    }

    /// Burn rate of a window's `(bad, total)`.
    fn burn(&self, (bad, total): (u64, u64)) -> f64 {
        if total == 0 {
            return 0.0; // no traffic burns no budget
        }
        (bad as f64 / total as f64) / self.allowed
    }
}

/// The evaluated burn-rate table over what `history` holds, in the
/// order `slos` were given.
pub(crate) fn table(slos: &[Slo], history: &Chronicle) -> Vec<SloStatus> {
    let samples = history.ticks().saturating_sub(1).min(SLOW_WINDOW);
    slos.iter()
        .map(|slo| {
            let (bad, total) = slo.bad_and_total(history, SLOW_WINDOW);
            let fast = slo.burn(slo.bad_and_total(history, FAST_WINDOW));
            let slow = slo.burn((bad, total));
            let alert = if fast >= CRITICAL_BURN {
                AlertLevel::Critical
            } else if fast >= 1.0 || slow >= 1.0 {
                AlertLevel::Warning
            } else {
                AlertLevel::Ok
            };
            SloStatus {
                name: slo.name.clone(),
                objective: slo.objective.describe(slo.allowed),
                fast_burn: fast,
                slow_burn: slow,
                alert,
                samples,
                window_bad: bad,
                window_total: total,
            }
        })
        .collect()
}

/// The JSON document served on `GET /slo`.
pub(crate) fn to_json(slos: &[Slo], history: &Chronicle) -> String {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("ticks").u64(history.ticks());
    j.key("last_sample_at_ms").u64(history.last_at_ms());
    j.key("fast_window").u64(FAST_WINDOW);
    j.key("slow_window").u64(SLOW_WINDOW);
    j.key("slos").begin_array();
    for s in table(slos, history) {
        j.begin_object();
        j.key("name").string(&s.name);
        j.key("objective").string(&s.objective);
        j.key("fast_burn").f64(s.fast_burn);
        j.key("slow_burn").f64(s.slow_burn);
        j.key("alert").string(s.alert.code());
        j.key("samples").u64(s.samples);
        j.key("window_bad").u64(s.window_bad);
        j.key("window_total").u64(s.window_total);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
    use css_types::Timestamp;

    /// One objective over a chronicle fed the way the plane feeds it:
    /// one append per tick, the first the baseline.
    struct Fed {
        slos: Vec<Slo>,
        history: Chronicle,
    }

    impl Fed {
        fn tick(&mut self, cur: &TelemetrySnapshot, at: Timestamp) {
            self.history.append(cur, at, "stage.total");
        }

        fn table(&self) -> Vec<SloStatus> {
            table(&self.slos, &self.history)
        }
    }

    fn engine_with(slo: Slo) -> (MetricsRegistry, Fed) {
        let history = Chronicle::new(&MetricsRegistry::new());
        let fed = Fed {
            slos: vec![slo],
            history,
        };
        (MetricsRegistry::new(), fed)
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
        for tick in 0..FAST_WINDOW {
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
        for i in 0..(SLOW_WINDOW + 20) {
            reg.histogram("stage.total").record(1_000);
            engine.tick(&reg.snapshot(), Timestamp(i));
        }
        assert_eq!(engine.table()[0].samples, SLOW_WINDOW);
        assert_eq!(engine.table()[0].window_total, SLOW_WINDOW);
        assert_eq!(engine.history.ticks(), SLOW_WINDOW + 20);
    }

    #[test]
    fn json_renders_the_table() {
        let (reg, mut engine) = engine_with(Slo::latency_p99("lat", "stage.total", 200_000));
        engine.tick(&reg.snapshot(), Timestamp(42));
        let json = to_json(&engine.slos, &engine.history);
        assert!(
            json.starts_with("{\"ticks\":1,\"last_sample_at_ms\":42,"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"lat\""));
        assert!(json.contains("\"alert\":\"ok\""));
    }
}
