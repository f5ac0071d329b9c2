//! Component health checks.
//!
//! A check is a component name and a probe. Every probe of a round
//! sees one consistent [`TelemetrySnapshot`] and the chronicle as the
//! round's tick left it. A gauge check and a probe built with
//! [`Check::new`] — like the storage write/read round-trip the platform
//! wires in — read the fresh snapshot; a latency, hit-rate or drop-rate
//! check judges the last [`SLOW_WINDOW`] ticks the chronicle holds,
//! the window the SLO table's slow burn reads, so a platform that ran
//! healthy for hours still shows a regression within a tick.

use css_telemetry::TelemetrySnapshot;

use crate::history::Chronicle;
use crate::slo::SLOW_WINDOW;
use crate::status::{ComponentHealth, HealthReport, HealthStatus};

/// What a probe reads: the fresh snapshot and the chronicle.
type Probe = Box<dyn Fn(&TelemetrySnapshot, &Chronicle) -> HealthStatus + Send + Sync>;

/// A named component probe.
pub struct Check {
    component: String,
    probe: Probe,
}

impl Check {
    /// A check named `component` running `probe` on a fresh snapshot
    /// each round — e.g. the storage round-trip (append a marker, read
    /// it back, compare). The probe runs on every tick and every
    /// `/health` request, so keep it cheap and bounded.
    pub fn new(
        component: impl Into<String>,
        probe: impl Fn(&TelemetrySnapshot) -> HealthStatus + Send + Sync + 'static,
    ) -> Check {
        Check::over(component, move |snapshot, _| probe(snapshot))
    }

    /// A check reading both the snapshot and the chronicle.
    fn over(
        component: impl Into<String>,
        probe: impl Fn(&TelemetrySnapshot, &Chronicle) -> HealthStatus + Send + Sync + 'static,
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

    /// A histogram's p99 over the window compared against a ceiling —
    /// e.g. the bus delivery lag. The p99 is the one `/query fn=p99`
    /// reads over the same raw points.
    pub fn p99_above(
        component: impl Into<String>,
        histogram: impl Into<String>,
        p99_above_ns: u64,
    ) -> Check {
        let histogram = histogram.into();
        Check::over(component, move |_, history| {
            let recent = history.recent(&histogram, SLOW_WINDOW);
            match recent.and_then(|h| h.quantile_ns(0.99)) {
                None => HealthStatus::Healthy, // no observation in the window
                Some(p99) if p99 <= p99_above_ns => HealthStatus::Healthy,
                Some(p99) => {
                    HealthStatus::degraded(format!("{histogram} p99 = {p99}ns > {p99_above_ns}ns"))
                }
            }
        })
    }

    /// A hit/(hit+miss) ratio over the window held above a floor — e.g.
    /// the PDP decision cache. Below `min_samples` lookups in the window
    /// the check reports `Healthy` (a cold cache is expected at startup,
    /// not an incident).
    pub fn hit_rate_below(
        component: impl Into<String>,
        hits: impl Into<String>,
        misses: impl Into<String>,
        floor: f64,
        min_samples: u64,
    ) -> Check {
        let (component, hits, misses) = (component.into(), hits.into(), misses.into());
        Check::over(component.clone(), move |_, history| {
            let hit = history.increase(&hits, SLOW_WINDOW);
            let total = hit + history.increase(&misses, SLOW_WINDOW);
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

    /// A dropped/attempted ratio over the window held below a ceiling,
    /// judged only once the window holds `min_samples` attempts — e.g.
    /// the trace ring's drop rate (a high rate means the ring is
    /// undersized for the traffic and causality is being lost).
    pub fn drop_rate_above(
        component: impl Into<String>,
        dropped: impl Into<String>,
        attempted: impl Into<String>,
        ceiling: f64,
        min_samples: u64,
    ) -> Check {
        let (component, dropped, attempted) = (component.into(), dropped.into(), attempted.into());
        Check::over(component.clone(), move |_, history| {
            let lost = history.increase(&dropped, SLOW_WINDOW);
            let total = history.increase(&attempted, SLOW_WINDOW);
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

/// Run every check against `snapshot` and `history` (report order =
/// the given order).
pub(crate) fn report(
    checks: &[Check],
    snapshot: &TelemetrySnapshot,
    history: &Chronicle,
) -> HealthReport {
    HealthReport {
        components: checks
            .iter()
            .map(|c| ComponentHealth {
                component: c.component.clone(),
                status: (c.probe)(snapshot, history),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::MetricsRegistry;
    use css_types::Timestamp;

    /// A registry and a chronicle that took its baseline tick: what a
    /// check reads from the plane's next tick on.
    fn fed() -> (MetricsRegistry, Chronicle) {
        let (reg, history) = (
            MetricsRegistry::new(),
            Chronicle::new(&MetricsRegistry::new()),
        );
        history.append(&reg.snapshot(), Timestamp(0), "stage.total");
        (reg, history)
    }

    /// One tick of the plane, then the check as that tick judged it.
    fn run(check: &Check, reg: &MetricsRegistry, history: &Chronicle) -> HealthStatus {
        let snapshot = reg.snapshot();
        history.append(&snapshot, Timestamp(history.ticks()), "stage.total");
        (check.probe)(&snapshot, history)
    }

    #[test]
    fn gauge_threshold_degrades_and_fails() {
        let (reg, history) = fed();
        let check = Check::gauge_above("bus", "bus.queue_depth", 10, Some(100));
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
        reg.gauge("bus.queue_depth").set(11);
        assert_eq!(run(&check, &reg, &history).code(), "degraded");
        reg.gauge("bus.queue_depth").set(101);
        let status = run(&check, &reg, &history);
        assert_eq!(status.code(), "unhealthy");
        assert!(status.reason().unwrap().contains("101"), "{status}");
    }

    #[test]
    fn latency_check_reads_p99() {
        let (reg, history) = fed();
        let check = Check::p99_above("bus", "bus.deliver", 1_000);
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
        reg.histogram("bus.deliver").record(100);
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
        for _ in 0..100 {
            reg.histogram("bus.deliver").record(50_000);
        }
        assert_eq!(run(&check, &reg, &history).code(), "degraded");
    }

    #[test]
    fn ratio_floor_ignores_cold_cache() {
        let (reg, history) = fed();
        let check = Check::hit_rate_below("policy", "pdp.cache_hit", "pdp.cache_miss", 0.5, 100);
        assert_eq!(
            run(&check, &reg, &history),
            HealthStatus::Healthy,
            "0 of 0 lookups"
        );
        reg.counter("pdp.cache_miss").add(99); // below min_samples
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
        reg.counter("pdp.cache_miss").add(1); // now 100 lookups, 0% hits
        assert_eq!(run(&check, &reg, &history).code(), "degraded");
        reg.counter("pdp.cache_hit").add(900); // 90% hits
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
    }

    #[test]
    fn drop_rate_flags_undersized_ring() {
        let (reg, history) = fed();
        let check = Check::drop_rate_above(
            "trace",
            "trace.spans_dropped",
            "trace.spans_recorded",
            0.5,
            10,
        );
        reg.counter("trace.spans_recorded").add(10);
        reg.counter("trace.spans_dropped").add(4);
        assert_eq!(run(&check, &reg, &history), HealthStatus::Healthy);
        reg.counter("trace.spans_dropped").add(2);
        assert_eq!(run(&check, &reg, &history).code(), "degraded");
    }

    #[test]
    fn probe_check_runs_and_report_keeps_the_given_order() {
        let (reg, history) = fed();
        let checks = [
            Check::new("storage", |_| HealthStatus::unhealthy("probe write failed")),
            Check::gauge_above("gateway", "platform.pending_requests", 100, None),
        ];
        let report = report(&checks, &reg.snapshot(), &history);
        assert_eq!(report.components[0].component, "storage");
        assert_eq!(report.components[1].component, "gateway");
        assert!(!report.is_serving());
    }
}
