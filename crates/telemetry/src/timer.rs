//! Multi-stage pipeline timing.

use crate::{Histogram, MetricsRegistry};
use std::time::Instant;

/// Splits one pass through a pipeline into per-stage histograms.
///
/// Each [`stage`](StageTimer::stage) call records the time since the
/// previous boundary into `"{prefix}.{stage}"` — one clock read per
/// boundary, so an N-stage pipeline costs N+1 `Instant::now()` calls
/// total. A pass that bails early (a deny, an error, a panic) records
/// the stages it reached, and on `Drop` the remainder lands in
/// `"{prefix}.partial"` plus the whole pass in `"{prefix}.total"` — so
/// denied requests are never invisible in the latency record.
///
/// ```
/// use css_telemetry::{MetricsRegistry, StageTimer};
///
/// let registry = MetricsRegistry::new();
/// let mut timer = StageTimer::start(&registry, "stage");
/// // ... resolve the event source ...
/// timer.stage("pip_resolve");
/// // ... evaluate policy ...
/// timer.stage("pdp_evaluate");
/// timer.finish();
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.histogram("stage.pip_resolve").unwrap().count, 1);
/// assert_eq!(snap.histogram("stage.total").unwrap().count, 1);
/// ```
#[derive(Debug)]
pub struct StageTimer<'a> {
    registry: &'a MetricsRegistry,
    /// `"{prefix}."` followed by the stage being looked up: written
    /// once at `start`, truncated back and re-filled per boundary, so a
    /// pass formats no name and allocates once.
    name: String,
    prefix_len: usize,
    started: Instant,
    last: Instant,
    finished: bool,
    exemplar: Option<(u64, u64)>,
}

/// Capacity reserved past the prefix so the usual stage names
/// (`obligation_filter` is the longest in the tree) never regrow the
/// buffer; a longer name still works, it just reallocates.
const STAGE_NAME_ROOM: usize = 24;

impl<'a> StageTimer<'a> {
    /// Start timing; the first `stage` call measures from here.
    pub fn start(registry: &'a MetricsRegistry, prefix: &str) -> Self {
        let mut name = String::with_capacity(prefix.len() + 1 + STAGE_NAME_ROOM);
        name.push_str(prefix);
        name.push('.');
        let now = Instant::now();
        StageTimer {
            registry,
            prefix_len: name.len(),
            name,
            started: now,
            last: now,
            finished: false,
            exemplar: None,
        }
    }

    /// Attach an exemplar `(trace_id, at_ms)` to this pass: every
    /// stage/total/partial record from here on carries it, so the
    /// bucket an outlier lands in retains a link back to the span tree
    /// that produced it. A zero trace id is ignored (0 marks "no
    /// exemplar" in the histogram slots).
    pub fn exemplar(&mut self, trace_id: u64, at_ms: u64) {
        if trace_id != 0 {
            self.exemplar = Some((trace_id, at_ms));
        }
    }

    /// The histogram `"{prefix}.{stage}"`.
    fn histogram(&mut self, stage: &str) -> Histogram {
        self.name.truncate(self.prefix_len);
        self.name.push_str(stage);
        self.registry.histogram(&self.name)
    }

    /// Close the current stage: record the time since the previous
    /// boundary into `"{prefix}.{stage}"` and start the next stage.
    pub fn stage(&mut self, stage: &str) {
        let now = Instant::now();
        let histogram = self.histogram(stage);
        match self.exemplar {
            Some((trace_id, at_ms)) => histogram.record_duration_with_exemplar(
                now.duration_since(self.last),
                trace_id,
                at_ms,
            ),
            None => histogram.record_duration(now.duration_since(self.last)),
        }
        self.last = now;
    }

    /// Record the whole pass into `"{prefix}.total"` and consume the
    /// timer. A timer dropped without `finish` (early return, `?`,
    /// panic unwind) records the open stage into `"{prefix}.partial"`
    /// and still contributes to `"{prefix}.total"`.
    pub fn finish(mut self) {
        self.finished = true;
        let histogram = self.histogram("total");
        match self.exemplar {
            Some((trace_id, at_ms)) => {
                histogram.record_duration_with_exemplar(self.started.elapsed(), trace_id, at_ms)
            }
            None => histogram.record_duration(self.started.elapsed()),
        }
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let now = Instant::now();
        let (partial, total) = (self.histogram("partial"), self.histogram("total"));
        match self.exemplar {
            Some((trace_id, at_ms)) => {
                partial.record_duration_with_exemplar(
                    now.duration_since(self.last),
                    trace_id,
                    at_ms,
                );
                total.record_duration_with_exemplar(
                    now.duration_since(self.started),
                    trace_id,
                    at_ms,
                );
            }
            None => {
                partial.record_duration(now.duration_since(self.last));
                total.record_duration(now.duration_since(self.started));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_record_into_prefixed_histograms() {
        let registry = MetricsRegistry::new();
        let mut timer = StageTimer::start(&registry, "pipeline");
        timer.stage("first");
        std::thread::sleep(Duration::from_millis(2));
        timer.stage("second");
        timer.finish();

        let snap = registry.snapshot();
        assert_eq!(snap.histogram("pipeline.first").unwrap().count, 1);
        let second = snap.histogram("pipeline.second").unwrap();
        assert_eq!(second.count, 1);
        assert!(
            second.max_ns >= 2_000_000,
            "slept 2ms, saw {}",
            second.max_ns
        );
        let total = snap.histogram("pipeline.total").unwrap();
        assert!(total.max_ns >= second.max_ns);
    }

    #[test]
    fn early_exit_still_records_partial_and_total() {
        let registry = MetricsRegistry::new();
        {
            let mut timer = StageTimer::start(&registry, "p");
            timer.stage("reached");
            // early return: timer dropped without finish()
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("p.reached").unwrap().count, 1);
        assert_eq!(snap.histogram("p.partial").unwrap().count, 1);
        assert_eq!(snap.histogram("p.total").unwrap().count, 1);
    }

    #[test]
    fn panic_unwind_records_partial_and_total() {
        let registry = MetricsRegistry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut timer = StageTimer::start(&registry, "p");
            timer.stage("reached");
            panic!("boom");
        }));
        assert!(result.is_err());
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("p.reached").unwrap().count, 1);
        assert_eq!(snap.histogram("p.partial").unwrap().count, 1);
        assert_eq!(snap.histogram("p.total").unwrap().count, 1);
    }

    #[test]
    fn finish_does_not_record_partial() {
        let registry = MetricsRegistry::new();
        let mut timer = StageTimer::start(&registry, "p");
        timer.stage("only");
        timer.finish();
        let snap = registry.snapshot();
        assert!(snap.histogram("p.partial").is_none());
        assert_eq!(snap.histogram("p.total").unwrap().count, 1);
    }

    #[test]
    fn exemplar_rides_every_boundary_of_the_pass() {
        let registry = MetricsRegistry::new();
        let mut timer = StageTimer::start(&registry, "p");
        timer.exemplar(0xBEEF, 42);
        timer.stage("only");
        timer.finish();

        let snap = registry.snapshot();
        for name in ["p.only", "p.total"] {
            let h = snap.histogram(name).unwrap();
            assert_eq!(h.exemplars.len(), 1, "{name}");
            assert_eq!(h.exemplars[0].trace_id, 0xBEEF, "{name}");
            assert_eq!(h.exemplars[0].at_ms, 42, "{name}");
        }
    }

    #[test]
    fn zero_trace_id_never_becomes_an_exemplar() {
        let registry = MetricsRegistry::new();
        let mut timer = StageTimer::start(&registry, "p");
        timer.exemplar(0, 42);
        timer.stage("only");
        timer.finish();
        let snap = registry.snapshot();
        assert!(snap.histogram("p.total").unwrap().exemplars.is_empty());
    }

    #[test]
    fn repeated_passes_accumulate() {
        let registry = MetricsRegistry::new();
        for _ in 0..10 {
            let mut timer = StageTimer::start(&registry, "p");
            timer.stage("only");
            timer.finish();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("p.only").unwrap().count, 10);
        assert_eq!(snap.histogram("p.total").unwrap().count, 10);
    }
}
