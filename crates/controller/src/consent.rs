//! Data-subject consent (opt-in / opt-out).
//!
//! One of the platform's stated goals is "patient/citizen empowerment by
//! supporting consent collection at data source level (opt-in, opt-out
//! options to share the events and their content)" (Section 1). The
//! registry stores directives at three scopes; the most specific
//! directive decides, and among directives at the same scope the most
//! recent wins.

use std::collections::HashMap;

use css_types::{ActorId, EventTypeId, PersonId, Timestamp};

/// What a directive applies to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConsentScope {
    /// Everything about the person.
    All,
    /// Events published by one producer.
    Producer(ActorId),
    /// Events of one class, from any producer.
    EventType(EventTypeId),
    /// Events of one class from one producer (most specific).
    ProducerEventType(ActorId, EventTypeId),
}

impl ConsentScope {
    /// The producer and the event class the scope names, each if any:
    /// the scope as a consent change's audit record carries it.
    pub(crate) fn parts(&self) -> (Option<ActorId>, Option<&EventTypeId>) {
        match self {
            ConsentScope::All => (None, None),
            ConsentScope::Producer(p) => (Some(*p), None),
            ConsentScope::EventType(t) => (None, Some(t)),
            ConsentScope::ProducerEventType(p, t) => (Some(*p), Some(t)),
        }
    }

    /// How many of the two the scope names: the more, the more specific.
    fn specificity(&self) -> u8 {
        let (producer, class) = self.parts();
        u8::from(producer.is_some()) + u8::from(class.is_some())
    }

    fn applies(&self, producer: ActorId, event_type: &EventTypeId) -> bool {
        let (named, class) = self.parts();
        named.is_none_or(|p| p == producer) && class.is_none_or(|t| t == event_type)
    }
}

/// Opt in or out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsentDecision {
    /// Sharing allowed.
    OptIn,
    /// Sharing forbidden.
    OptOut,
}

#[derive(Debug, Clone)]
struct Directive {
    scope: ConsentScope,
    decision: ConsentDecision,
    at: Timestamp,
}

/// Registry of consent directives per person.
///
/// The default (no directive) is **opt-in**: the paper's platform shares
/// events unless the citizen objects, with the fine-grained policies
/// limiting *what* is shared.
#[derive(Debug, Default)]
pub struct ConsentRegistry {
    directives: HashMap<PersonId, Vec<Directive>>,
}

impl ConsentRegistry {
    /// Empty registry (everyone defaults to opt-in).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a directive.
    pub fn record(
        &mut self,
        person: PersonId,
        scope: ConsentScope,
        decision: ConsentDecision,
        at: Timestamp,
    ) {
        self.directives.entry(person).or_default().push(Directive {
            scope,
            decision,
            at,
        });
    }

    /// Whether sharing an event of `event_type` from `producer` about
    /// `person` is permitted.
    pub fn allows(&self, person: PersonId, producer: ActorId, event_type: &EventTypeId) -> bool {
        let Some(directives) = self.directives.get(&person) else {
            return true;
        };
        let winner = directives
            .iter()
            .filter(|d| d.scope.applies(producer, event_type))
            // max_by_key takes the LAST maximal element, so ties in
            // (specificity, time) resolve to the most recently recorded.
            .max_by_key(|d| (d.scope.specificity(), d.at));
        match winner {
            None => true,
            Some(d) => d.decision == ConsentDecision::OptIn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PersonId = PersonId(1);
    const HOSPITAL: ActorId = ActorId(10);
    const TELECARE: ActorId = ActorId(20);

    fn ty(code: &str) -> EventTypeId {
        EventTypeId::v1(code)
    }

    #[test]
    fn default_is_opt_in() {
        let reg = ConsentRegistry::new();
        assert!(reg.allows(P, HOSPITAL, &ty("blood-test")));
    }

    #[test]
    fn global_opt_out_blocks_everything() {
        let mut reg = ConsentRegistry::new();
        reg.record(P, ConsentScope::All, ConsentDecision::OptOut, Timestamp(1));
        assert!(!reg.allows(P, HOSPITAL, &ty("blood-test")));
        assert!(!reg.allows(P, TELECARE, &ty("telecare-alarm")));
        // Other persons unaffected.
        assert!(reg.allows(PersonId(2), HOSPITAL, &ty("blood-test")));
    }

    #[test]
    fn specific_opt_in_overrides_global_opt_out() {
        let mut reg = ConsentRegistry::new();
        reg.record(P, ConsentScope::All, ConsentDecision::OptOut, Timestamp(1));
        reg.record(
            P,
            ConsentScope::ProducerEventType(HOSPITAL, ty("blood-test")),
            ConsentDecision::OptIn,
            Timestamp(2),
        );
        assert!(reg.allows(P, HOSPITAL, &ty("blood-test")));
        assert!(!reg.allows(P, HOSPITAL, &ty("discharge")));
    }

    #[test]
    fn producer_scope_only_affects_that_producer() {
        let mut reg = ConsentRegistry::new();
        reg.record(
            P,
            ConsentScope::Producer(TELECARE),
            ConsentDecision::OptOut,
            Timestamp(1),
        );
        assert!(!reg.allows(P, TELECARE, &ty("telecare-alarm")));
        assert!(reg.allows(P, HOSPITAL, &ty("blood-test")));
    }

    #[test]
    fn event_type_scope_spans_producers() {
        let mut reg = ConsentRegistry::new();
        reg.record(
            P,
            ConsentScope::EventType(ty("psych-report")),
            ConsentDecision::OptOut,
            Timestamp(1),
        );
        assert!(!reg.allows(P, HOSPITAL, &ty("psych-report")));
        assert!(!reg.allows(P, TELECARE, &ty("psych-report")));
        assert!(reg.allows(P, HOSPITAL, &ty("blood-test")));
    }

    #[test]
    fn later_directive_wins_at_same_specificity() {
        let mut reg = ConsentRegistry::new();
        reg.record(P, ConsentScope::All, ConsentDecision::OptOut, Timestamp(1));
        reg.record(P, ConsentScope::All, ConsentDecision::OptIn, Timestamp(2));
        assert!(reg.allows(P, HOSPITAL, &ty("blood-test")));
        reg.record(P, ConsentScope::All, ConsentDecision::OptOut, Timestamp(3));
        assert!(!reg.allows(P, HOSPITAL, &ty("blood-test")));
    }

    #[test]
    fn specificity_beats_recency() {
        let mut reg = ConsentRegistry::new();
        reg.record(
            P,
            ConsentScope::ProducerEventType(HOSPITAL, ty("blood-test")),
            ConsentDecision::OptOut,
            Timestamp(1),
        );
        // A *later* but less specific opt-in does not override.
        reg.record(P, ConsentScope::All, ConsentDecision::OptIn, Timestamp(5));
        assert!(!reg.allows(P, HOSPITAL, &ty("blood-test")));
    }
}
