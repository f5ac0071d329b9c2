//! The tracer, live span guards, the propagated trace context, and
//! the timed pass whose stages are spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use css_telemetry::{clock, MetricsRegistry, StageTimer};
use css_types::Timestamp;

use crate::collector::SpanCollector;
use crate::id::{SpanId, TraceId};
use crate::span::{Span, SpanAttr, SpanStatus};

struct TracerInner {
    collector: SpanCollector,
    /// Monotonic origin; span offsets are measured from here so span
    /// ordering never goes backwards even if the wall clock does.
    origin: Instant,
    trace_seq: AtomicU64,
    span_seq: AtomicU64,
}

/// Entry point of the tracing layer.
///
/// A `Tracer` is cheap to clone (an `Arc` inside) and is either
/// *enabled* — spans are timed and recorded into its ring-buffer
/// collector — or *disabled* ([`Tracer::disabled`], the default), in
/// which case every operation is a no-op with near-zero cost. All
/// platform components accept a `Tracer` and work identically either
/// way, so tracing is strictly opt-in.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer retaining at most `capacity` finished spans and
    /// counting them into `registry` (`trace.spans_recorded`,
    /// `trace.spans_dropped`).
    pub fn new(capacity: usize, registry: &MetricsRegistry) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                collector: SpanCollector::new(capacity, registry),
                origin: clock::now(),
                trace_seq: AtomicU64::new(1),
                span_seq: AtomicU64::new(1),
            })),
        }
    }

    /// Whether spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a new trace with a root span named `name`.
    ///
    /// `now` seeds the [`TraceId`] (high bits = milliseconds, low bits =
    /// a process-local counter), so a simulated clock yields
    /// reproducible ids. On a disabled tracer this returns a no-op
    /// guard whose `trace_id()` is `None`.
    pub fn root(&self, name: &'static str, now: Timestamp) -> SpanGuard {
        SpanGuard::live(self, self.next_trace(now), None, name, clock::now)
    }

    /// Copy out the finished spans, oldest first. Empty when disabled.
    pub fn finished_spans(&self) -> Vec<Span> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.collector.snapshot(),
        }
    }

    /// Spans recorded over the tracer's lifetime.
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.collector.recorded())
    }

    /// Spans lost to ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.collector.dropped())
    }

    /// `at`'s offset from the tracer's origin, nanoseconds.
    fn offset_ns(inner: &TracerInner, at: Instant) -> u64 {
        at.duration_since(inner.origin).as_nanos() as u64
    }

    /// The id of the next trace started at `now`.
    fn next_trace(&self, now: Timestamp) -> TraceId {
        let seq = self
            .inner
            .as_ref()
            .map_or(0, |inner| inner.trace_seq.fetch_add(1, Ordering::Relaxed));
        TraceId::mint(now.as_millis(), seq)
    }
}

/// A live span. Records itself into the collector exactly once — on
/// [`SpanGuard::finish`] or, failing that, on `Drop`, so early returns
/// and panics between stages still leave a (partial) causal record.
/// The default guard is a no-op one, as a disabled tracer hands out.
#[derive(Default)]
pub struct SpanGuard {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    status: SpanStatus,
    attrs: Vec<SpanAttr>,
    /// Live and not yet recorded.
    open: bool,
}

impl SpanGuard {
    /// A span of `tracer` starting at the instant `start` reads; a
    /// no-op one, reading nothing, when the tracer is disabled.
    fn live(
        tracer: &Tracer,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        start: impl FnOnce() -> Instant,
    ) -> SpanGuard {
        let Some(inner) = &tracer.inner else {
            return SpanGuard::default();
        };
        SpanGuard {
            tracer: tracer.clone(),
            trace,
            id: SpanId(inner.span_seq.fetch_add(1, Ordering::Relaxed)),
            parent,
            name,
            start_ns: Tracer::offset_ns(inner, start()),
            status: SpanStatus::Ok,
            attrs: Vec::new(),
            open: true,
        }
    }

    /// Attach the privacy-safe attribute `attr` builds. A disabled
    /// guard never calls it: with tracing off no attribute is built.
    pub fn attr(&mut self, attr: impl FnOnce() -> SpanAttr) {
        if self.tracer.is_enabled() {
            self.attrs.push(attr());
        }
    }

    /// Mark the span's outcome (defaults to [`SpanStatus::Ok`]).
    pub fn set_status(&mut self, status: SpanStatus) {
        self.status = status;
    }

    /// The id of the trace this span belongs to; `None` when disabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.tracer.is_enabled().then_some(self.trace)
    }

    /// A propagatable context with this span as the parent.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            tracer: self.tracer.clone(),
            trace: self.trace,
            parent: Some(self.id),
        }
    }

    /// End the span now and record it. Idempotent with `Drop`.
    pub fn finish(mut self) {
        self.close(clock::now);
    }

    /// Record the span, ending at the instant `end` reads; a span
    /// already recorded, or a no-op one, reads nothing.
    fn close(&mut self, end: impl FnOnce() -> Instant) {
        if !std::mem::take(&mut self.open) {
            return;
        }
        if let Some(inner) = self.tracer.inner.as_ref() {
            inner.collector.record(Span {
                trace: self.trace,
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: Tracer::offset_ns(inner, end()),
                status: self.status,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(clock::now);
    }
}

/// The piece of a trace that travels across component boundaries:
/// which tracer, which trace, and which span is the current parent.
#[derive(Clone)]
pub struct TraceContext {
    tracer: Tracer,
    trace: TraceId,
    parent: Option<SpanId>,
}

impl TraceContext {
    /// Start a child span of this context's parent.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        SpanGuard::live(&self.tracer, self.trace, self.parent, name, clock::now)
    }

    /// Start a child span of `ctx` when present, a no-op guard when not.
    /// The idiom for optionally-traced call sites.
    pub fn child_opt(ctx: Option<&TraceContext>, name: &'static str) -> SpanGuard {
        ctx.map_or_else(SpanGuard::default, |c| c.child(name))
    }

    /// The trace id carried by this context; `None` when disabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.tracer.is_enabled().then_some(self.trace)
    }
}

/// One pass through a staged operation (a publish, an Algorithm 1
/// detail request), timed and, on an enabled tracer, traced by the same
/// clock readings.
///
/// Each [`stage`](Pass::stage) boundary reads the clock once, through
/// its [`StageTimer`], and that one reading closes the stage's
/// histogram observation, its exemplar (the pass's trace id) and, when
/// the pass is traced, a child span of the root named after the stage.
/// The root starts at the timer's start and ends at its last boundary,
/// so an N-stage pass reads the clock N + 1 times, traced or not, and
/// its stage spans tile the root exactly. A pass dropped without
/// [`finish`](Pass::finish) closes its open stage as `partial` and its
/// root [`SpanStatus::Error`], unless it was [denied](Pass::deny).
///
/// ```
/// use css_telemetry::{MetricsRegistry, StageTimer};
/// use css_trace::{SpanStatus, Tracer};
/// use css_types::Timestamp;
///
/// let registry = MetricsRegistry::new();
/// let tracer = Tracer::new(16, &registry);
/// let timer = StageTimer::start(&registry, "stage");
/// let mut pass = tracer.pass(timer, "detail_request", Timestamp(7));
/// pass.stage("pip_resolve");
/// pass.deny();
/// drop(pass);
///
/// let spans = tracer.finished_spans();
/// let names: Vec<_> = spans.iter().map(|s| (s.name, s.status)).collect();
/// assert_eq!(
///     names,
///     [
///         ("pip_resolve", SpanStatus::Ok),
///         ("partial", SpanStatus::Ok),
///         ("detail_request", SpanStatus::Denied)
///     ]
/// );
/// let total = registry.snapshot().histogram("stage.total").unwrap().sum_ns;
/// assert_eq!(spans[2].duration_ns(), total);
/// ```
pub struct Pass<'a> {
    timer: StageTimer<'a>,
    /// A no-op guard when the tracer is disabled.
    root: SpanGuard,
}

impl Tracer {
    /// Start a pass named `name` over `timer`, just started: a trace
    /// rooted at the timer's start (the trace id seeded from `now`, as
    /// [`Tracer::root`] seeds it) whose id every histogram record of
    /// the pass carries as its exemplar. On a disabled tracer the pass
    /// only times.
    pub fn pass<'a>(
        &self,
        mut timer: StageTimer<'a>,
        name: &'static str,
        now: Timestamp,
    ) -> Pass<'a> {
        let start = timer.last();
        let root = SpanGuard::live(self, self.next_trace(now), None, name, || start);
        if let Some(trace) = root.trace_id() {
            timer.exemplar(trace.value(), now.as_millis());
        }
        Pass { timer, root }
    }
}

impl Pass<'_> {
    /// Close the current stage, named `name`.
    pub fn stage(&mut self, name: &'static str) {
        self.stage_with(name, || []);
    }

    /// Close the current stage, named `name`; when traced, its span
    /// carries the attributes `attrs` builds (never called untraced).
    pub fn stage_with<const N: usize>(
        &mut self,
        name: &'static str,
        attrs: impl FnOnce() -> [SpanAttr; N],
    ) {
        let from = self.timer.last();
        let to = self.timer.stage(name);
        if self.root.open {
            let root = &self.root;
            let mut span = SpanGuard::live(&root.tracer, root.trace, Some(root.id), name, || from);
            span.attrs = attrs().into();
            span.close(|| to);
        }
    }

    /// Attach an attribute to the root span.
    pub fn attr(&mut self, attr: impl FnOnce() -> SpanAttr) {
        self.root.attr(attr);
    }

    /// Mark the pass a denial: its root closes [`SpanStatus::Denied`].
    pub fn deny(&mut self) {
        self.root.set_status(SpanStatus::Denied);
    }

    /// The pass's trace id; `None` when untraced.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.root.trace_id()
    }

    /// A context whose parent is the root, for the spans inside a
    /// stage that are not stages of the pass (`bus.route`, the
    /// gateway's).
    pub fn context(&self) -> TraceContext {
        self.root.context()
    }

    /// End the pass at its last boundary: `"{prefix}.total"` and the
    /// root both close on that reading.
    pub fn finish(mut self) {
        let end = self.timer.finish();
        self.root.close(|| end);
    }
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        // Untraced, the timer's own drop closes the pass.
        if self.root.open {
            if self.root.status != SpanStatus::Denied {
                self.root.status = SpanStatus::Error;
            }
            self.stage("partial");
            let end = self.timer.finish();
            self.root.close(|| end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut root = tracer.root("publish", Timestamp::EPOCH);
        assert!(root.trace_id().is_none());
        root.attr(|| SpanAttr::decision(true));
        let ctx = root.context();
        assert!(ctx.trace_id().is_none());
        let child = ctx.child("bus.route");
        child.finish();
        root.finish();
        assert!(tracer.finished_spans().is_empty());
        assert_eq!(tracer.recorded(), 0);
    }

    #[test]
    fn root_and_child_share_a_trace() {
        let tracer = Tracer::new(64, &MetricsRegistry::new());
        let root = tracer.root("publish", Timestamp(42));
        let trace = root.trace_id().unwrap();
        let ctx = root.context();
        assert_eq!(ctx.trace_id(), Some(trace));
        let child = ctx.child("bus.route");
        let grandchild = child.context().child("bus.deliver");
        grandchild.finish();
        child.finish();
        root.finish();

        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace == trace));
        let root_span = spans.iter().find(|s| s.name == "publish").unwrap();
        let route = spans.iter().find(|s| s.name == "bus.route").unwrap();
        let deliver = spans.iter().find(|s| s.name == "bus.deliver").unwrap();
        assert_eq!(root_span.parent, None);
        assert_eq!(route.parent, Some(root_span.id));
        assert_eq!(deliver.parent, Some(route.id));
    }

    #[test]
    fn trace_id_is_seeded_from_the_clock() {
        let tracer = Tracer::new(16, &MetricsRegistry::new());
        let a = tracer.root("a", Timestamp(7_000));
        let id = a.trace_id().unwrap();
        assert_eq!(id.value() >> 32, 7_000);
        // First trace of this tracer → counter 1.
        assert_eq!(id.value() & 0xFFFF_FFFF, 1);
        a.finish();
    }

    #[test]
    fn drop_records_the_span_like_finish_would() {
        let tracer = Tracer::new(16, &MetricsRegistry::new());
        {
            let mut span = tracer.root("detail_request", Timestamp::EPOCH);
            span.set_status(SpanStatus::Denied);
            // dropped without finish(): early return / panic path
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].status, SpanStatus::Denied);
    }

    #[test]
    fn child_opt_handles_missing_context() {
        let none = TraceContext::child_opt(None, "x");
        assert!(none.trace_id().is_none());
        none.finish();

        let tracer = Tracer::new(16, &MetricsRegistry::new());
        let root = tracer.root("r", Timestamp::EPOCH);
        let ctx = root.context();
        let some = TraceContext::child_opt(Some(&ctx), "x");
        assert_eq!(some.trace_id(), root.trace_id());
        some.finish();
        root.finish();
        assert_eq!(tracer.finished_spans().len(), 2);
    }

    #[test]
    fn a_disabled_span_builds_no_attribute() {
        let built = std::cell::Cell::new(0);
        let attr = || {
            built.set(built.get() + 1);
            SpanAttr::cache_hit(true)
        };
        let mut root = Tracer::disabled().root("r", Timestamp::EPOCH);
        root.attr(attr);
        root.context().child("c").attr(attr);
        assert_eq!(built.get(), 0);
        Tracer::new(4, &MetricsRegistry::new())
            .root("r", Timestamp::EPOCH)
            .attr(attr);
        assert_eq!(built.get(), 1);
    }

    #[test]
    fn attrs_and_status_land_on_the_recorded_span() {
        let tracer = Tracer::new(16, &MetricsRegistry::new());
        let mut span = tracer.root("pep.pdp_evaluate", Timestamp::EPOCH);
        span.attr(|| SpanAttr::cache_hit(true));
        span.attr(|| SpanAttr::decision(false));
        span.set_status(SpanStatus::Denied);
        span.finish();
        let spans = tracer.finished_spans();
        assert_eq!(spans[0].attrs.len(), 2);
        assert_eq!(spans[0].attrs[1].to_string(), "decision=deny");
        assert_eq!(spans[0].status, SpanStatus::Denied);
    }

    /// Three stages and a finish on a `t.*` timer: the spans recorded and
    /// the clock reads made.
    fn three_stage_pass(tracer: &Tracer) -> (Vec<Span>, Option<u64>) {
        let registry = MetricsRegistry::new();
        let before = clock::reads();
        let timer = StageTimer::start(&registry, "t");
        let mut pass = tracer.pass(timer, "r", Timestamp(3));
        pass.stage("a");
        pass.stage_with("b", || [SpanAttr::cache_hit(true)]);
        pass.stage("c");
        pass.finish();
        let reads = clock::reads()
            .zip(before)
            .map(|(after, before)| after - before);
        (tracer.finished_spans(), reads)
    }

    #[test]
    fn a_pass_reads_the_clock_once_per_boundary_traced_or_not() {
        let (spans, untraced) = three_stage_pass(&Tracer::disabled());
        assert!(spans.is_empty());
        let (spans, traced) = three_stage_pass(&Tracer::new(16, &MetricsRegistry::new()));
        if cfg!(debug_assertions) {
            assert_eq!((untraced, traced), (Some(4), Some(4)));
        }
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "c", "r"]);
        let root = &spans[3];
        assert!(spans[..3].iter().all(|s| s.parent == Some(root.id)));
        assert_eq!(spans[1].attrs, [SpanAttr::cache_hit(true)]);
        assert_eq!(
            (spans[0].start_ns, spans[2].end_ns),
            (root.start_ns, root.end_ns)
        );
        assert_eq!(root.status, SpanStatus::Ok);
    }

    #[test]
    fn a_pass_dropped_unfinished_closes_its_root_as_an_error() {
        let tracer = Tracer::new(16, &MetricsRegistry::new());
        let registry = MetricsRegistry::new();
        let mut pass = tracer.pass(StageTimer::start(&registry, "t"), "r", Timestamp(3));
        pass.stage("a");
        drop(pass);
        let spans = tracer.finished_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.status)).collect();
        assert_eq!(
            names,
            [
                ("a", SpanStatus::Ok),
                ("partial", SpanStatus::Ok),
                ("r", SpanStatus::Error)
            ]
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("t.total").unwrap().sum_ns,
            spans[2].duration_ns()
        );
        let exemplar = snap.histogram("t.total").unwrap().exemplars[0];
        assert_eq!(exemplar.trace_id, spans[2].trace.value());
    }
}
