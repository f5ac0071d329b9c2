//! The control journal: the audit records that carry a control change.
//!
//! The data controller is the "guarantor and certificated repository of
//! the privacy policies" (Section 5), and it collects the citizens'
//! consent. Both kinds of state have one store, the tamper-evident audit
//! chain: a policy define, a policy revoke and a consent change is each
//! one audit record that carries the change in the record's existing
//! fields.
//!
//! - A define is a `PolicyChange` by the producer, of the policy's event
//!   class, whose detail is the policy's XACML document.
//! - A revoke is a `PolicyChange` by the producer whose detail is
//!   `revoked <policy id>`.
//! - A consent change is a `ConsentChange` by the platform about the
//!   person, whose detail is the decision (`opt-in` / `opt-out`),
//!   followed by the producer when the scope names one; the scope's
//!   event class, when it names one, is the record's event type.
//!
//! The controller commits each record (append and sync, under its
//! control lock) before it applies the change, and [`fold`]s the
//! journal, in seq order, at open.
//!
//! Records written before the journal carried its changes are folded
//! too. A legacy define, `defined <policy id>`, names a policy whose
//! XACML the directory's `policies.log` holds: the fold reads that file,
//! and only for those ids. A legacy `ConsentChange` carries no directive
//! (consent was not durable then) and changes nothing.

use std::collections::HashMap;

use css_audit::{AuditAction, AuditRecord};
use css_policy::{xacml::from_xacml_text, PolicyDecisionPoint};
use css_storage::{decode_put, LogBackend, RecordLog};
use css_types::{ActorId, CssError, CssResult, IdGenerator, PersonId, PolicyId, Timestamp};

use crate::consent::{ConsentDecision, ConsentRegistry, ConsentScope};

/// The record of a consent change, logged against the platform itself
/// with the subject in the person dimension.
pub(crate) fn consent(
    at: Timestamp,
    person: PersonId,
    scope: &ConsentScope,
    decision: ConsentDecision,
) -> AuditRecord {
    let (producer, class) = scope.parts();
    let code = DECISIONS[decision as usize].1;
    let mut record = AuditRecord::new(at, ActorId(0), AuditAction::ConsentChange)
        .person(person)
        .with_detail(producer.map_or(code.to_string(), |p| format!("{code} {p}")));
    record.event_type = class.cloned();
    record
}

/// Each consent decision, in declaration order, and its code in a
/// consent change's record.
const DECISIONS: [(ConsentDecision, &str); 2] = [
    (ConsentDecision::OptIn, "opt-in"),
    (ConsentDecision::OptOut, "opt-out"),
];

/// The decision point, the consent registry and the policy id
/// generator `journal` leaves — control records in seq order, as
/// [`css_audit::AuditShards::open_anchored`] hands them over — folded
/// from empty: ids are minted past every journaled policy id.
///
/// Policies are installed unchecked: actors and schemas are registered
/// after open. `legacy_policies` opens the directory's `policies.log`;
/// it is called only for a legacy define, and at most once. A legacy
/// define whose policy that file does not hold (a define made before the
/// controller stored its policies) restores nothing, as it did then.
pub(crate) fn fold<B: LogBackend>(
    journal: Vec<AuditRecord>,
    mut legacy_policies: impl FnMut() -> CssResult<B>,
) -> CssResult<(PolicyDecisionPoint, ConsentRegistry, IdGenerator)> {
    let (mut pdp, mut consent) = (PolicyDecisionPoint::new(), ConsentRegistry::new());
    let policy_gen = IdGenerator::default();
    let mut legacy: Option<HashMap<Vec<u8>, Vec<u8>>> = None;
    for record in journal {
        let bad =
            |what: String| CssError::Storage(format!("control record {}: {what}", record.seq));
        let mut words = record.detail.split(' ');
        match (record.action, words.next(), words.next()) {
            (AuditAction::PolicyChange, Some(verb @ ("revoked" | "defined")), Some(id)) => {
                let id = id.parse::<PolicyId>().map_err(|e| bad(e.to_string()))?;
                policy_gen.advance_past(id.value());
                if verb == "revoked" {
                    pdp.revoke(id);
                    continue;
                }
                if legacy.is_none() {
                    // Its put records in one pass; a key's last is its value.
                    let mut values = HashMap::new();
                    RecordLog::recover(legacy_policies()?, |_, record| {
                        let (key, value) = decode_put(record)?;
                        values.insert(key.to_vec(), value.to_vec());
                        Ok(())
                    })?;
                    legacy = Some(values);
                }
                let key = format!("policy:{}", id.value());
                let stored = legacy.as_ref().and_then(|store| store.get(key.as_bytes()));
                if let Some(bytes) = stored {
                    pdp.install(from_xacml_text(
                        std::str::from_utf8(bytes).map_err(|e| bad(e.to_string()))?,
                    )?);
                }
            }
            (AuditAction::PolicyChange, ..) => {
                let policy = from_xacml_text(&record.detail)?;
                policy_gen.advance_past(policy.id.value());
                pdp.install(policy);
            }
            // A legacy consent change carries no directive.
            (AuditAction::ConsentChange, Some(decision), producer) if !decision.is_empty() => {
                let (decision, _) = DECISIONS
                    .into_iter()
                    .find(|(_, code)| *code == decision)
                    .ok_or_else(|| bad(format!("unknown decision {decision:?}")))?;
                let producer = producer.map(str::parse::<ActorId>).transpose();
                let producer = producer.map_err(|e| bad(e.to_string()))?;
                let scope = match (producer, record.event_type) {
                    (None, None) => ConsentScope::All,
                    (Some(p), None) => ConsentScope::Producer(p),
                    (None, Some(t)) => ConsentScope::EventType(t),
                    (Some(p), Some(t)) => ConsentScope::ProducerEventType(p, t),
                };
                let person = record.person.ok_or_else(|| bad("no person".into()))?;
                consent.record(person, scope, decision, record.at);
            }
            _ => {}
        }
    }
    Ok((pdp, consent, policy_gen))
}
