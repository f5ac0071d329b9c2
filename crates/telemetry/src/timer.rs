//! Multi-stage pipeline timing.

use crate::{Histogram, MetricsRegistry};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
/// A timer [`started`](StageTimer::start) on a registry looks each
/// histogram up by name at its boundary; one started on a
/// [`StageTable`] records into the handles the table holds.
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
    stages: Stages<'a>,
    started: Instant,
    last: Instant,
    finished: bool,
    /// `(trace_id, at_ms)`; a zero trace id records no exemplar.
    exemplar: (u64, u64),
}

/// Where a timer's histograms come from.
#[derive(Debug)]
enum Stages<'a> {
    /// Looked up by name: the name is `"{prefix}."` (its length the
    /// `usize`) followed by the stage being looked up, written once at
    /// `start`, truncated back and re-filled per boundary, so a pass
    /// formats no name and allocates once.
    Named(&'a MetricsRegistry, String, usize),
    /// Held by a table.
    Table(&'a StageTable),
}

/// Capacity reserved past the prefix so the usual stage names
/// (`obligation_filter` is the longest in the tree) never regrow the
/// buffer; a longer name still works, it just reallocates.
const STAGE_NAME_ROOM: usize = 24;

/// The stage histograms of one pipeline, `"{prefix}.{stage}"`, held.
/// A table starts empty and fills as it is used: the first record of a
/// stage formats its name, takes its handle from the registry and keeps
/// both in the next free slot; every later record finds it there. So a
/// pass through a warm table takes no registry lock and allocates
/// nothing, the stages a pipeline has are named only where it times
/// them, and a stage no pass reached is not registered.
///
/// ```
/// use css_telemetry::{MetricsRegistry, StageTable};
///
/// let registry = MetricsRegistry::new();
/// let table = StageTable::new(&registry, "stage");
/// let mut timer = table.start();
/// timer.stage("pip_resolve");
/// drop(timer);
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.histogram("stage.partial").unwrap().count, 1);
/// assert!(snap.histogram("stage.pdp_evaluate").is_none());
/// ```
#[derive(Debug)]
pub struct StageTable {
    registry: MetricsRegistry,
    prefix: String,
    /// Each stage recorded so far with its histogram, in first-record
    /// order; `partial` and `total` take a slot like any other stage.
    /// Sixteen: the detail pipeline's six stages with `partial` and
    /// `total` fill half. Past that, a stage records nothing.
    slots: [OnceLock<(String, Histogram)>; 16],
}

impl StageTable {
    /// An empty table of the stages under `prefix` in `registry`.
    pub fn new(registry: &MetricsRegistry, prefix: &str) -> Self {
        StageTable {
            registry: registry.clone(),
            prefix: prefix.to_string(),
            slots: [const { OnceLock::new() }; 16],
        }
    }

    /// Start timing a pass; the first `stage` call measures from here.
    pub fn start(&self) -> StageTimer<'_> {
        StageTimer::over(Stages::Table(self))
    }

    /// The slot of `stage`: the first filled with it, or else the first
    /// free one, filled with it here. Slots fill in order and each
    /// once, so no stage takes two.
    fn histogram(&self, stage: &str) -> Option<&Histogram> {
        self.slots.iter().find_map(|slot| {
            let (name, histogram) = slot.get_or_init(|| {
                let histogram = self.registry.histogram(&format!("{}.{stage}", self.prefix));
                (stage.to_string(), histogram)
            });
            (name == stage).then_some(histogram)
        })
    }
}

impl<'a> StageTimer<'a> {
    /// Start timing; the first `stage` call measures from here.
    pub fn start(registry: &'a MetricsRegistry, prefix: &str) -> Self {
        let mut name = String::with_capacity(prefix.len() + 1 + STAGE_NAME_ROOM);
        name.push_str(prefix);
        name.push('.');
        StageTimer::over(Stages::Named(registry, name, prefix.len() + 1))
    }

    fn over(stages: Stages<'a>) -> Self {
        let now = Instant::now();
        StageTimer {
            stages,
            started: now,
            last: now,
            finished: false,
            exemplar: (0, 0),
        }
    }

    /// Attach an exemplar `(trace_id, at_ms)` to this pass: every
    /// stage/total/partial record from here on carries it, so the
    /// bucket an outlier lands in retains a link back to the span tree
    /// that produced it. A zero trace id attaches none (0 marks "no
    /// exemplar" in the histogram slots).
    pub fn exemplar(&mut self, trace_id: u64, at_ms: u64) {
        self.exemplar = (trace_id, at_ms);
    }

    /// Record `elapsed` into `"{prefix}.{stage}"`.
    fn record(&mut self, stage: &str, elapsed: Duration) {
        let named;
        let histogram = match &mut self.stages {
            Stages::Named(registry, name, prefix_len) => {
                name.truncate(*prefix_len);
                name.push_str(stage);
                named = registry.histogram(name);
                Some(&named)
            }
            Stages::Table(table) => table.histogram(stage),
        };
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(histogram) = histogram {
            histogram.record_with_exemplar(ns, self.exemplar.0, self.exemplar.1);
        }
    }

    /// Close the current stage: record the time since the previous
    /// boundary into `"{prefix}.{stage}"` and start the next stage.
    pub fn stage(&mut self, stage: &str) {
        let now = Instant::now();
        self.record(stage, now.duration_since(self.last));
        self.last = now;
    }

    /// Record the whole pass into `"{prefix}.total"` and consume the
    /// timer. A timer dropped without `finish` (early return, `?`,
    /// panic unwind) records the open stage into `"{prefix}.partial"`
    /// and still contributes to `"{prefix}.total"`.
    pub fn finish(mut self) {
        self.finished = true;
        self.record("total", self.started.elapsed());
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let now = Instant::now();
            self.record("partial", now.duration_since(self.last));
            self.record("total", now.duration_since(self.started));
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
    fn a_table_records_what_a_named_timer_records() {
        let (named, tabled) = (MetricsRegistry::new(), MetricsRegistry::new());
        let table = StageTable::new(&tabled, "p");
        for registry in [&named, &tabled] {
            let start = || {
                if std::ptr::eq(registry, &tabled) {
                    table.start()
                } else {
                    StageTimer::start(registry, "p")
                }
            };
            let mut timer = start();
            timer.exemplar(7, 1);
            timer.stage("first");
            timer.stage("second");
            timer.finish();
            start().stage("first");
        }
        let (named, tabled) = (named.snapshot(), tabled.snapshot());
        // The same names, none for a stage never reached, the same
        // counts and exemplars.
        let names = |s: &crate::TelemetrySnapshot| s.histograms.keys().cloned().collect::<Vec<_>>();
        assert_eq!(
            names(&tabled),
            ["p.first", "p.partial", "p.second", "p.total"]
        );
        assert_eq!(names(&named), names(&tabled));
        for (name, h) in &tabled.histograms {
            let n = &named.histograms[name];
            assert_eq!(
                (h.count, h.exemplars.len()),
                (n.count, n.exemplars.len()),
                "{name}"
            );
        }
        assert_eq!(tabled.histograms["p.first"].count, 2);
    }

    #[test]
    fn threads_sharing_a_table_hold_each_stage_once() {
        let registry = MetricsRegistry::new();
        let table = StageTable::new(&registry, "p");
        let stages = ["a", "b", "c", "d", "e", "f"];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let table = &table;
                scope.spawn(move || {
                    for pass in 0..50 {
                        let mut timer = table.start();
                        for k in 0..6 {
                            timer.stage(stages[(t + k + pass) % 6]);
                        }
                        timer.finish();
                    }
                });
            }
        });
        let mut held: Vec<&str> = table
            .slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|(n, _)| n.as_str())
            .collect();
        held.sort_unstable();
        assert_eq!(held, ["a", "b", "c", "d", "e", "f", "total"]);
        let snap = registry.snapshot();
        for stage in stages {
            assert_eq!(snap.histogram(&format!("p.{stage}")).unwrap().count, 200);
        }
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
