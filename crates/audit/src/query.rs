//! Audit inquiries: "who did the request and why / for which purpose?"

use css_trace::TraceId;
use css_types::{ActorId, GlobalEventId, PersonId, Purpose, Timestamp};

use crate::record::{AuditAction, AuditRecord};

/// A conjunctive filter over audit records. Unset dimensions match
/// everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditQuery {
    actor: Option<ActorId>,
    person: Option<PersonId>,
    event: Option<GlobalEventId>,
    action: Option<AuditAction>,
    purpose: Option<Purpose>,
    from: Option<Timestamp>,
    to: Option<Timestamp>,
    trace: Option<TraceId>,
    only_denied: bool,
}

impl AuditQuery {
    /// A query matching every record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restrict to one acting party.
    pub fn actor(mut self, id: ActorId) -> Self {
        self.actor = Some(id);
        self
    }

    /// Restrict to records about one data subject — the query a citizen
    /// exercising their access rights triggers.
    pub fn person(mut self, id: PersonId) -> Self {
        self.person = Some(id);
        self
    }

    /// Restrict to one event.
    pub fn event(mut self, id: GlobalEventId) -> Self {
        self.event = Some(id);
        self
    }

    /// Restrict to one action kind.
    pub fn action(mut self, action: AuditAction) -> Self {
        self.action = Some(action);
        self
    }

    /// Restrict to one stated purpose.
    pub fn purpose(mut self, purpose: Purpose) -> Self {
        self.purpose = Some(purpose);
        self
    }

    /// Restrict to records in `[from, to]` (inclusive).
    pub fn between(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.from = Some(from);
        self.to = Some(to);
        self
    }

    /// Restrict to records of one causal trace — the audit side of the
    /// trace ↔ audit join: given a trace id from a span tree, return
    /// every accountable action that request performed.
    pub fn trace(mut self, id: TraceId) -> Self {
        self.trace = Some(id);
        self
    }

    /// Restrict to denials.
    pub fn denied_only(mut self) -> Self {
        self.only_denied = true;
        self
    }

    /// The data subject the query names, if any — the dimension the
    /// shard logs keep a posting list for.
    pub(crate) fn subject(&self) -> Option<PersonId> {
        self.person
    }

    /// Whether a record matches.
    pub fn matches(&self, r: &AuditRecord) -> bool {
        self.actor.is_none_or(|a| r.actor == a)
            && self.person.is_none_or(|p| r.person == Some(p))
            && self.event.is_none_or(|e| r.event == Some(e))
            && self.action.is_none_or(|a| r.action == a)
            && self
                .purpose
                .as_ref()
                .is_none_or(|p| r.purpose.as_ref() == Some(p))
            && self.from.is_none_or(|t| r.at >= t)
            && self.to.is_none_or(|t| r.at <= t)
            && self.trace.is_none_or(|t| r.trace == Some(t))
            && (!self.only_denied || !r.outcome.is_permitted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> AuditRecord {
        AuditRecord::new(Timestamp(100), ActorId(1), AuditAction::DetailRequest)
            .person(PersonId(7))
            .event(GlobalEventId(3))
            .purpose(Purpose::HealthcareTreatment)
    }

    #[test]
    fn empty_query_matches_all() {
        assert!(AuditQuery::new().matches(&rec()));
    }

    #[test]
    fn each_dimension_filters() {
        let r = rec();
        assert!(AuditQuery::new().actor(ActorId(1)).matches(&r));
        assert!(!AuditQuery::new().actor(ActorId(2)).matches(&r));
        assert!(AuditQuery::new().person(PersonId(7)).matches(&r));
        assert!(!AuditQuery::new().person(PersonId(8)).matches(&r));
        assert!(AuditQuery::new().event(GlobalEventId(3)).matches(&r));
        assert!(!AuditQuery::new().event(GlobalEventId(4)).matches(&r));
        assert!(AuditQuery::new()
            .action(AuditAction::DetailRequest)
            .matches(&r));
        assert!(!AuditQuery::new().action(AuditAction::Publish).matches(&r));
        assert!(AuditQuery::new()
            .purpose(Purpose::HealthcareTreatment)
            .matches(&r));
        assert!(!AuditQuery::new().purpose(Purpose::Audit).matches(&r));
    }

    #[test]
    fn time_window() {
        let r = rec();
        assert!(AuditQuery::new()
            .between(Timestamp(50), Timestamp(150))
            .matches(&r));
        assert!(!AuditQuery::new()
            .between(Timestamp(101), Timestamp(150))
            .matches(&r));
        assert!(AuditQuery::new()
            .between(Timestamp(100), Timestamp(100))
            .matches(&r));
    }

    #[test]
    fn denied_only() {
        let ok = rec();
        let no = rec().denied("no matching policy");
        assert!(!AuditQuery::new().denied_only().matches(&ok));
        assert!(AuditQuery::new().denied_only().matches(&no));
    }

    #[test]
    fn trace_dimension_filters() {
        let traced = rec().trace(Some(TraceId::mint(9, 1)));
        let untraced = rec();
        let q = AuditQuery::new().trace(TraceId::mint(9, 1));
        assert!(q.matches(&traced));
        assert!(!q.matches(&untraced));
        assert!(!AuditQuery::new()
            .trace(TraceId::mint(9, 2))
            .matches(&traced));
    }

    #[test]
    fn dimensions_conjoin() {
        let r = rec();
        let q = AuditQuery::new()
            .actor(ActorId(1))
            .person(PersonId(7))
            .action(AuditAction::DetailRequest);
        assert!(q.matches(&r));
        let q2 = q.purpose(Purpose::Audit);
        assert!(!q2.matches(&r));
    }

    #[test]
    fn record_without_person_fails_person_query() {
        let r = AuditRecord::new(Timestamp(0), ActorId(1), AuditAction::ContractSigned);
        assert!(!AuditQuery::new().person(PersonId(7)).matches(&r));
    }
}
