//! Policy matching (Definition 3).
//!
//! `p` is a matching policy for `r` iff `e_j = τ_e ∧ A_r = A ∧ S_r ∈ S`.
//! Two deployment realities extend the literal definition:
//!
//! - the actor test uses the organizational hierarchy (Section 5.1): a
//!   request from the `Laboratory` is covered by a policy granted to
//!   `Hospital S. Maria`;
//! - policies may carry a validity window (Fig. 7), and revoked
//!   policies never match.
//!
//! The outcome is reported per-dimension so the PDP can map a failed
//! match to the most precise deny reason for the audit trail.

use css_types::{ActorRegistry, Timestamp};

use crate::model::PrivacyPolicy;
use crate::request::DetailRequest;

/// Why (or that) a policy matched a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// All conditions hold — the policy authorizes the request.
    Match,
    /// The event type differs (`e_j ≠ τ_e`).
    WrongEventType,
    /// The requesting actor is not the granted actor nor below it.
    WrongActor,
    /// The stated purpose is not in `S`.
    PurposeNotAllowed,
    /// The request falls outside the validity window.
    OutsideValidity,
    /// The policy has been revoked by its producer.
    Revoked,
}

/// Evaluate Definition 3 for one policy and one request at time `now`.
///
/// Checks run from cheapest to most specific; the first failing
/// dimension is reported.
pub fn matches(
    policy: &PrivacyPolicy,
    request: &DetailRequest,
    actors: &ActorRegistry,
    now: Timestamp,
) -> MatchOutcome {
    if policy.revoked {
        return MatchOutcome::Revoked;
    }
    if policy.event_type != request.event_type {
        return MatchOutcome::WrongEventType;
    }
    if !actors.is_same_or_descendant(request.actor, policy.actor) {
        return MatchOutcome::WrongActor;
    }
    if !policy.purposes.contains(&request.purpose) {
        return MatchOutcome::PurposeNotAllowed;
    }
    if !policy.validity.contains(now) {
        return MatchOutcome::OutsideValidity;
    }
    MatchOutcome::Match
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ValidityWindow;
    use css_types::{Actor, ActorId, EventTypeId, GlobalEventId, PolicyId, Purpose, RequestId};

    fn registry() -> ActorRegistry {
        let mut reg = ActorRegistry::new();
        reg.register(Actor::organization(ActorId(1), "Hospital"))
            .unwrap();
        reg.register(Actor::unit(ActorId(2), "Laboratory", ActorId(1)))
            .unwrap();
        reg.register(Actor::organization(ActorId(3), "Municipality"))
            .unwrap();
        reg
    }

    fn policy() -> PrivacyPolicy {
        PrivacyPolicy::new(
            PolicyId(1),
            ActorId(9),
            ActorId(1), // granted to the Hospital
            EventTypeId::v1("blood-test"),
            [Purpose::HealthcareTreatment, Purpose::Administration],
            ["PatientId".to_string()],
        )
    }

    fn request(actor: ActorId, ty: &str, purpose: Purpose) -> DetailRequest {
        DetailRequest::new(
            RequestId(1),
            actor,
            EventTypeId::v1(ty),
            GlobalEventId(1),
            purpose,
        )
    }

    #[test]
    fn exact_match() {
        let out = matches(
            &policy(),
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::Match);
    }

    #[test]
    fn descendant_actor_matches() {
        let out = matches(
            &policy(),
            &request(ActorId(2), "blood-test", Purpose::Administration),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::Match);
    }

    #[test]
    fn unrelated_actor_fails() {
        let out = matches(
            &policy(),
            &request(ActorId(3), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::WrongActor);
    }

    #[test]
    fn wrong_event_type_fails() {
        let out = matches(
            &policy(),
            &request(ActorId(1), "urine-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::WrongEventType);
    }

    #[test]
    fn wrong_purpose_fails() {
        let out = matches(
            &policy(),
            &request(ActorId(1), "blood-test", Purpose::StatisticalAnalysis),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::PurposeNotAllowed);
    }

    #[test]
    fn event_type_version_is_significant() {
        let mut p = policy();
        p.event_type = EventTypeId::new("blood-test", 2);
        let out = matches(
            &p,
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(out, MatchOutcome::WrongEventType);
    }

    #[test]
    fn expired_policy_fails() {
        let p = policy().valid(ValidityWindow::until(Timestamp(1_000)));
        let r = request(ActorId(1), "blood-test", Purpose::HealthcareTreatment);
        assert_eq!(
            matches(&p, &r, &registry(), Timestamp(1_000)),
            MatchOutcome::Match
        );
        assert_eq!(
            matches(&p, &r, &registry(), Timestamp(1_001)),
            MatchOutcome::OutsideValidity
        );
    }

    #[test]
    fn not_yet_valid_policy_fails() {
        let p = policy().valid(ValidityWindow::between(Timestamp(500), Timestamp(1_000)));
        let r = request(ActorId(1), "blood-test", Purpose::HealthcareTreatment);
        assert_eq!(
            matches(&p, &r, &registry(), Timestamp(499)),
            MatchOutcome::OutsideValidity
        );
    }

    #[test]
    fn revoked_policy_never_matches() {
        let mut p = policy();
        p.revoke();
        let r = request(ActorId(1), "blood-test", Purpose::HealthcareTreatment);
        assert_eq!(
            matches(&p, &r, &registry(), Timestamp(0)),
            MatchOutcome::Revoked
        );
    }

    #[test]
    fn grant_does_not_flow_upward() {
        // Policy granted to the Laboratory must not cover the Hospital.
        let mut p = policy();
        p.actor = ActorId(2);
        let r = request(ActorId(1), "blood-test", Purpose::HealthcareTreatment);
        assert_eq!(
            matches(&p, &r, &registry(), Timestamp(0)),
            MatchOutcome::WrongActor
        );
    }
}
