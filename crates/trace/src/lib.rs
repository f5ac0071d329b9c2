//! Causal tracing for the CSS platform.
//!
//! Aggregate metrics (css-telemetry) answer "how fast is the platform";
//! this crate answers "what happened to *this* request": one trace per
//! publish or detail request, spans for each stage it crossed, and a
//! `trace` dimension stamped into the audit log so accountability
//! queries can join back to the causal record.
//!
//! Privacy is enforced **by construction**, mirroring the
//! detail-confinement invariant: a [`Span`] carries only a static name
//! and [`SpanAttr`] values built through a closed constructor set
//! (event id, event type, actor id, purpose code, decision, stage,
//! cache hit). There is no constructor taking a free-form string, so
//! decrypted identities or detail-payload fields are unrepresentable
//! in a trace. rustc keeps it that way: `SpanAttr`'s fields and its
//! value type are private (its `compile_fail` examples prove it).
//!
//! Identifiers are deterministic: a [`TraceId`] is seeded from the
//! caller-supplied clock plus a process-local counter — no ambient
//! `Date::now`-style entropy, so simulated clocks yield reproducible
//! ids in tests.
//!
//! Finished spans land in a bounded ring-buffer [`SpanCollector`]
//! (drop-oldest; the drop counter is exported through the shared
//! `MetricsRegistry`) and can be rendered as a text tree
//! ([`render_text_tree`]) or as Chrome `trace_event` JSON
//! ([`render_chrome_trace`]) for `about:tracing` / Perfetto.

mod collector;
mod export;
mod id;
mod span;
mod tracer;

pub use collector::SpanCollector;
pub use export::{render_chrome_trace, render_text_tree};
pub use id::{SpanId, TraceId};
pub use span::{Span, SpanAttr, SpanStatus};
pub use tracer::{SpanGuard, TraceContext, Tracer};
