//! The tracer, live span guards, and the propagated trace context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use css_telemetry::MetricsRegistry;
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
                origin: Instant::now(),
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
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => {
                let counter = inner.trace_seq.fetch_add(1, Ordering::Relaxed);
                let trace = TraceId::mint(now.as_millis(), counter);
                SpanGuard::live(self.clone(), trace, None, name)
            }
        }
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

    fn now_ns(inner: &TracerInner) -> u64 {
        inner.origin.elapsed().as_nanos() as u64
    }

    fn next_span_id(inner: &TracerInner) -> SpanId {
        SpanId(inner.span_seq.fetch_add(1, Ordering::Relaxed))
    }
}

/// A live span. Records itself into the collector exactly once — on
/// [`SpanGuard::finish`] or, failing that, on `Drop`, so early returns
/// and panics between stages still leave a (partial) causal record.
pub struct SpanGuard {
    tracer: Tracer,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    status: SpanStatus,
    attrs: Vec<SpanAttr>,
    done: bool,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            tracer: Tracer::disabled(),
            trace: TraceId(0),
            id: SpanId(0),
            parent: None,
            name: "",
            start_ns: 0,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
            done: true,
        }
    }

    fn live(
        tracer: Tracer,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
    ) -> SpanGuard {
        let inner = tracer
            .inner
            .as_ref()
            .expect("live span needs an enabled tracer");
        let start_ns = Tracer::now_ns(inner);
        let id = Tracer::next_span_id(inner);
        SpanGuard {
            tracer: tracer.clone(),
            trace,
            id,
            parent,
            name,
            start_ns,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
            done: false,
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
        if self.tracer.is_enabled() {
            TraceContext {
                tracer: self.tracer.clone(),
                trace: self.trace,
                parent: Some(self.id),
            }
        } else {
            TraceContext::disabled()
        }
    }

    /// End the span now and record it. Idempotent with `Drop`.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(inner) = self.tracer.inner.as_ref() {
            let end_ns = Tracer::now_ns(inner);
            inner.collector.record(Span {
                trace: self.trace,
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                status: self.status,
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
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
    /// A context that produces only no-op children.
    fn disabled() -> TraceContext {
        TraceContext {
            tracer: Tracer::disabled(),
            trace: TraceId(0),
            parent: None,
        }
    }

    /// Start a child span of this context's parent.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        if self.tracer.is_enabled() {
            SpanGuard::live(self.tracer.clone(), self.trace, self.parent, name)
        } else {
            SpanGuard::noop()
        }
    }

    /// Start a child span of `ctx` when present, a no-op guard when not.
    /// The idiom for optionally-traced call sites.
    pub fn child_opt(ctx: Option<&TraceContext>, name: &'static str) -> SpanGuard {
        match ctx {
            Some(c) => c.child(name),
            None => SpanGuard::noop(),
        }
    }

    /// The trace id carried by this context; `None` when disabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.tracer.is_enabled().then_some(self.trace)
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
            SpanAttr::stage("pdp_evaluate")
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
}
