//! Spans and their privacy-safe attributes.

use std::fmt;

use css_types::{ActorId, EventTypeId, GlobalEventId, Purpose};

use crate::id::{SpanId, TraceId};

/// How the operation a span covers ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanStatus {
    /// Completed normally.
    #[default]
    Ok,
    /// Ended in a policy/consent/notification denial — an expected,
    /// correct outcome of enforcement, not a fault.
    Denied,
    /// Ended in an infrastructure or validation error.
    Error,
}

impl SpanStatus {
    /// Stable short code used by the exporters.
    pub fn code(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Denied => "denied",
            SpanStatus::Error => "error",
        }
    }
}

/// The value side of an attribute. Private on purpose: no code outside
/// this crate can name it (see the second example on [`SpanAttr`]), so
/// no constructor taking arbitrary data can be added without editing
/// this file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AttrValue {
    /// A numeric platform identifier (actor, event).
    Id(u64),
    /// A closed-vocabulary code (event type, purpose code, decision).
    Code(String),
    /// A static label known at compile time.
    Static(&'static str),
    /// A boolean flag.
    Flag(bool),
}

/// One privacy-safe key/value pair on a span.
///
/// The only way to build one is the closed constructor set below —
/// every constructor takes a non-identifying platform type (ids, type
/// codes, purposes, booleans), never a
/// free-form runtime string. Decrypted person identities and detail
/// payload fields are therefore unrepresentable in a trace. The
/// compiler holds both halves: the fields are private, so a struct
/// literal outside this crate is refused,
///
/// ```compile_fail,E0451
/// let smuggled = css_trace::SpanAttr { key: "fiscal_code", value: panic!() };
/// ```
///
/// and so is the value type, so there is nothing to write one with:
///
/// ```compile_fail,E0603
/// use css_trace::span::AttrValue;
/// ```
///
/// (Stable rustdoc does not check the codes in the fences; that the
/// first example fails on the literal and not on a name is pinned by
/// the one that must compile.)
///
/// ```
/// let attr = css_trace::SpanAttr::decision(true);
/// assert_eq!((attr.key(), attr.render_value().as_str()), ("decision", "permit"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAttr {
    key: &'static str,
    value: AttrValue,
}

impl SpanAttr {
    /// The global event id involved.
    pub fn event(id: GlobalEventId) -> SpanAttr {
        SpanAttr {
            key: "event",
            value: AttrValue::Id(id.value()),
        }
    }

    /// The class of event involved (catalog-public code, not data).
    pub fn event_type(ty: &EventTypeId) -> SpanAttr {
        SpanAttr {
            key: "event_type",
            value: AttrValue::Code(ty.to_string()),
        }
    }

    /// The acting party (an organizational id, not a person).
    pub fn actor(id: ActorId) -> SpanAttr {
        SpanAttr {
            key: "actor",
            value: AttrValue::Id(id.value()),
        }
    }

    /// The stated purpose's closed-vocabulary code.
    pub fn purpose(p: &Purpose) -> SpanAttr {
        SpanAttr {
            key: "purpose",
            value: AttrValue::Code(p.code().to_string()),
        }
    }

    /// The enforcement outcome: permit or deny.
    pub fn decision(permit: bool) -> SpanAttr {
        SpanAttr {
            key: "decision",
            value: AttrValue::Static(if permit { "permit" } else { "deny" }),
        }
    }

    /// Whether the PDP answered from its decision cache.
    pub fn cache_hit(hit: bool) -> SpanAttr {
        SpanAttr {
            key: "cache_hit",
            value: AttrValue::Flag(hit),
        }
    }

    /// The attribute key.
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// The rendered value (what the exporters print).
    pub fn render_value(&self) -> String {
        match &self.value {
            AttrValue::Id(v) => v.to_string(),
            AttrValue::Code(c) => c.clone(),
            AttrValue::Static(s) => (*s).to_string(),
            AttrValue::Flag(b) => b.to_string(),
        }
    }
}

impl fmt::Display for SpanAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.key, self.render_value())
    }
}

/// One finished span: a named slice of a trace with causal parentage.
///
/// Spans are plain data; they are produced by [`SpanGuard`]s and read
/// back from the collector by the exporters and by tests.
///
/// [`SpanGuard`]: crate::SpanGuard
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the collector.
    pub id: SpanId,
    /// The causal parent, `None` for a root span.
    pub parent: Option<SpanId>,
    /// Static operation name (e.g. `"publish"`, `"pdp_evaluate"`).
    pub name: &'static str,
    /// Start offset from the tracer's origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer's origin, nanoseconds.
    pub end_ns: u64,
    /// Outcome.
    pub status: SpanStatus,
    /// Privacy-safe attributes.
    pub attrs: Vec<SpanAttr>,
}

impl Span {
    /// Wall-clock duration of the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_render_key_value() {
        assert_eq!(SpanAttr::event(GlobalEventId(7)).to_string(), "event=7");
        assert_eq!(SpanAttr::actor(ActorId(3)).to_string(), "actor=3");
        assert_eq!(
            SpanAttr::event_type(&EventTypeId::v1("blood-test")).to_string(),
            "event_type=blood-test@v1"
        );
        assert_eq!(
            SpanAttr::purpose(&Purpose::HealthcareTreatment).render_value(),
            Purpose::HealthcareTreatment.code()
        );
        assert_eq!(SpanAttr::decision(true).to_string(), "decision=permit");
        assert_eq!(SpanAttr::decision(false).to_string(), "decision=deny");
        assert_eq!(SpanAttr::cache_hit(true).to_string(), "cache_hit=true");
    }

    #[test]
    fn status_codes_are_stable() {
        assert_eq!(SpanStatus::Ok.code(), "ok");
        assert_eq!(SpanStatus::Denied.code(), "denied");
        assert_eq!(SpanStatus::Error.code(), "error");
        assert_eq!(SpanStatus::default(), SpanStatus::Ok);
    }

    #[test]
    fn span_duration_saturates() {
        let span = Span {
            trace: TraceId(1),
            id: SpanId(1),
            parent: None,
            name: "x",
            start_ns: 10,
            end_ns: 4,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
        };
        assert_eq!(span.duration_ns(), 0);
    }
}
