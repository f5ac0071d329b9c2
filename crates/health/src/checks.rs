//! Component health checks.
//!
//! A check is a component name and a probe. Every probe of a round
//! sees one consistent [`TelemetrySnapshot`] (so every threshold
//! compares numbers from the same instant) and may additionally run an
//! active probe of its own, like the storage write/read round-trip the
//! platform wires in through [`Check::new`].

use css_telemetry::TelemetrySnapshot;

use crate::status::{ComponentHealth, HealthReport, HealthStatus};

/// A named component probe.
pub struct Check {
    component: String,
    probe: Box<dyn Fn(&TelemetrySnapshot) -> HealthStatus + Send + Sync>,
}

impl Check {
    /// A check named `component` running `probe` each round — e.g. the
    /// storage round-trip (append a marker, read it back, compare). The
    /// probe runs on every tick and every `/health` request, so keep it
    /// cheap and bounded.
    pub fn new(
        component: impl Into<String>,
        probe: impl Fn(&TelemetrySnapshot) -> HealthStatus + Send + Sync + 'static,
    ) -> Check {
        Check {
            component: component.into(),
            probe: Box::new(probe),
        }
    }

    /// A gauge compared against a degrade ceiling and, optionally, a
    /// hard ceiling past which the component is `Unhealthy` — e.g. the
    /// bus queue depth or the gateway's pending detail backlog.
    pub fn gauge_above(
        component: impl Into<String>,
        gauge: impl Into<String>,
        degraded_above: i64,
        unhealthy_above: Option<i64>,
    ) -> Check {
        let gauge = gauge.into();
        Check::new(component, move |snapshot| {
            let level = snapshot.gauge(&gauge);
            match unhealthy_above {
                Some(ceiling) if level > ceiling => {
                    HealthStatus::unhealthy(format!("{gauge} = {level} > hard ceiling {ceiling}"))
                }
                _ if level > degraded_above => {
                    HealthStatus::degraded(format!("{gauge} = {level} > {degraded_above}"))
                }
                _ => HealthStatus::Healthy,
            }
        })
    }

    /// A histogram's windowless p99 compared against a ceiling — e.g.
    /// the bus delivery lag. (The SLO engine owns the *windowed* view;
    /// this is the coarse lifetime guardrail.)
    pub fn p99_above(
        component: impl Into<String>,
        histogram: impl Into<String>,
        p99_above_ns: u64,
    ) -> Check {
        let histogram = histogram.into();
        Check::new(component, move |snapshot| {
            match snapshot.histogram(&histogram) {
                None => HealthStatus::Healthy, // not yet exercised
                Some(h) if h.p99_ns <= p99_above_ns => HealthStatus::Healthy,
                Some(h) => HealthStatus::degraded(format!(
                    "{histogram} p99 = {}ns > {p99_above_ns}ns",
                    h.p99_ns
                )),
            }
        })
    }

    /// A hit/(hit+miss) ratio held above a floor — e.g. the PDP
    /// decision cache. Below `min_samples` total observations the check
    /// reports `Healthy` (a cold cache is expected at startup, not an
    /// incident).
    pub fn hit_rate_below(
        component: impl Into<String>,
        hits: impl Into<String>,
        misses: impl Into<String>,
        floor: f64,
        min_samples: u64,
    ) -> Check {
        let (component, hits, misses) = (component.into(), hits.into(), misses.into());
        Check::new(component.clone(), move |snapshot| {
            let hit = snapshot.counter(&hits);
            let total = hit + snapshot.counter(&misses);
            if total < min_samples {
                return HealthStatus::Healthy;
            }
            let ratio = hit as f64 / total as f64;
            if ratio < floor {
                return HealthStatus::degraded(format!(
                    "{component} hit rate {ratio:.3} < floor {floor:.3} over {total} lookups"
                ));
            }
            HealthStatus::Healthy
        })
    }

    /// A dropped/attempted ratio held below a ceiling, judged only
    /// after `min_samples` attempts — e.g. the trace ring's drop rate
    /// (a high rate means the ring is undersized for the traffic and
    /// causality is being lost).
    pub fn drop_rate_above(
        component: impl Into<String>,
        dropped: impl Into<String>,
        attempted: impl Into<String>,
        ceiling: f64,
        min_samples: u64,
    ) -> Check {
        let (component, dropped, attempted) = (component.into(), dropped.into(), attempted.into());
        Check::new(component.clone(), move |snapshot| {
            let (lost, total) = (snapshot.counter(&dropped), snapshot.counter(&attempted));
            if total < min_samples {
                return HealthStatus::Healthy;
            }
            let rate = lost as f64 / total as f64;
            if rate > ceiling {
                return HealthStatus::degraded(format!(
                    "{component} drop rate {rate:.3} > {ceiling:.3} ({lost} of {total} dropped)"
                ));
            }
            HealthStatus::Healthy
        })
    }
}

/// Run every check against `snapshot` (report order = the given order).
pub(crate) fn report(checks: &[Check], snapshot: &TelemetrySnapshot) -> HealthReport {
    HealthReport {
        components: checks
            .iter()
            .map(|c| ComponentHealth {
                component: c.component.clone(),
                status: (c.probe)(snapshot),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::MetricsRegistry;

    fn run(check: &Check, reg: &MetricsRegistry) -> HealthStatus {
        (check.probe)(&reg.snapshot())
    }

    #[test]
    fn gauge_threshold_degrades_and_fails() {
        let reg = MetricsRegistry::new();
        let check = Check::gauge_above("bus", "bus.queue_depth", 10, Some(100));
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
        reg.gauge("bus.queue_depth").set(11);
        assert_eq!(run(&check, &reg).code(), "degraded");
        reg.gauge("bus.queue_depth").set(101);
        let status = run(&check, &reg);
        assert_eq!(status.code(), "unhealthy");
        assert!(status.reason().unwrap().contains("101"), "{status}");
    }

    #[test]
    fn latency_check_reads_p99() {
        let reg = MetricsRegistry::new();
        let check = Check::p99_above("bus", "bus.deliver", 1_000);
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
        reg.histogram("bus.deliver").record(100);
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
        for _ in 0..100 {
            reg.histogram("bus.deliver").record(50_000);
        }
        assert_eq!(run(&check, &reg).code(), "degraded");
    }

    #[test]
    fn ratio_floor_ignores_cold_cache() {
        let reg = MetricsRegistry::new();
        let check = Check::hit_rate_below("policy", "pdp.cache_hit", "pdp.cache_miss", 0.5, 100);
        assert_eq!(run(&check, &reg), HealthStatus::Healthy, "0 of 0 lookups");
        reg.counter("pdp.cache_miss").add(99); // below min_samples
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
        reg.counter("pdp.cache_miss").add(1); // now 100 lookups, 0% hits
        assert_eq!(run(&check, &reg).code(), "degraded");
        reg.counter("pdp.cache_hit").add(900); // 90% hits
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
    }

    #[test]
    fn drop_rate_flags_undersized_ring() {
        let reg = MetricsRegistry::new();
        let check = Check::drop_rate_above(
            "trace",
            "trace.spans_dropped",
            "trace.spans_recorded",
            0.5,
            10,
        );
        reg.counter("trace.spans_recorded").add(10);
        reg.counter("trace.spans_dropped").add(4);
        assert_eq!(run(&check, &reg), HealthStatus::Healthy);
        reg.counter("trace.spans_dropped").add(2);
        assert_eq!(run(&check, &reg).code(), "degraded");
    }

    #[test]
    fn probe_check_runs_and_report_keeps_the_given_order() {
        let reg = MetricsRegistry::new();
        let checks = [
            Check::new("storage", |_| HealthStatus::unhealthy("probe write failed")),
            Check::gauge_above("gateway", "platform.pending_requests", 100, None),
        ];
        let report = report(&checks, &reg.snapshot());
        assert_eq!(report.components[0].component, "storage");
        assert_eq!(report.components[1].component, "gateway");
        assert!(!report.is_serving());
    }
}
