//! The Policy Decision Point.
//!
//! The PDP holds the policies a producer has defined and evaluates
//! requests with **deny-by-default** semantics: "unless permitted by
//! some privacy policy an Event Details cannot be accessed by any
//! subject" (Section 5.1).
//!
//! When several policies match (e.g. one granted to the organization and
//! one to the department), the permit carries the **union** of their
//! field sets — each matching policy independently authorizes its own
//! fields, so the combined obligation is their union. This is XACML's
//! permit-overrides combining algorithm restricted to the paper's
//! read-only rules.

use std::collections::HashMap;
use std::fmt;

use css_types::{ActorId, ActorRegistry, DenyReason, EventTypeId, PolicyId, Purpose, Timestamp};

use crate::cache::{CacheStats, DecisionCache, Generation, Probe, StabilityInterval};
use crate::decision::Decision;
use crate::matching::{matches, MatchOutcome};
use crate::model::PrivacyPolicy;
use crate::request::DetailRequest;

/// Key of the evaluation cache, and the borrowed parts it is probed with.
type EvalKey = (ActorId, EventTypeId, Purpose);

impl Probe<EvalKey> for (ActorId, &EventTypeId, &Purpose) {
    fn is(&self, key: &EvalKey) -> bool {
        (self.0, self.1, self.2) == (key.0, &key.1, &key.2)
    }
}

/// Key of the authorization cache, and the borrowed parts it is probed with.
type AuthKey = (ActorId, EventTypeId);

impl Probe<AuthKey> for (ActorId, &EventTypeId) {
    fn is(&self, key: &AuthKey) -> bool {
        (self.0, self.1) == (key.0, &key.1)
    }
}

/// In-memory decision point over an indexed policy set, with a
/// generation-stamped decision cache over the evaluation paths.
#[derive(Default)]
pub struct PolicyDecisionPoint {
    by_type: HashMap<EventTypeId, Vec<PrivacyPolicy>>,
    /// `id → event type` so removal and revocation resolve their bucket
    /// in O(1) instead of scanning every bucket.
    by_id: HashMap<PolicyId, EventTypeId>,
    /// Bumped on every policy mutation; stale cache entries miss.
    generation: Generation,
    eval_cache: DecisionCache<EvalKey, Decision>,
    auth_cache: DecisionCache<AuthKey, bool>,
}

impl fmt::Debug for PolicyDecisionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyDecisionPoint")
            .field("policies", &self.by_id.len())
            .field("event_types", &self.by_type.len())
            .field("generation", &self.generation.current())
            .finish()
    }
}

impl PolicyDecisionPoint {
    /// An empty PDP (every request denies).
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidate every cached decision (policy set changed, or an
    /// external input of matching — e.g. the actor hierarchy — did).
    pub fn invalidate_cache(&self) {
        self.generation.bump();
        self.eval_cache.clear();
        self.auth_cache.clear();
    }

    /// Hit/miss totals across both decision caches.
    pub fn cache_stats(&self) -> CacheStats {
        let e = self.eval_cache.stats();
        let a = self.auth_cache.stats();
        CacheStats {
            hits: e.hits + a.hits,
            misses: e.misses + a.misses,
        }
    }

    /// Load a policy. Replaces any existing policy with the same id.
    pub fn install(&mut self, policy: PrivacyPolicy) {
        self.remove(policy.id);
        self.by_id.insert(policy.id, policy.event_type.clone());
        self.by_type
            .entry(policy.event_type.clone())
            .or_default()
            .push(policy);
        self.invalidate_cache();
    }

    /// Remove a policy by id. Returns whether it was present.
    pub fn remove(&mut self, id: PolicyId) -> bool {
        let Some(event_type) = self.by_id.remove(&id) else {
            return false;
        };
        // by_id and by_type are maintained in lockstep; if the bucket or
        // its entry is somehow already gone, the policy is removed either
        // way — degrade gracefully rather than panic mid-request.
        if let Some(bucket) = self.by_type.get_mut(&event_type) {
            if let Some(pos) = bucket.iter().position(|p| p.id == id) {
                bucket.remove(pos);
            }
            // Drop emptied buckets so churn doesn't grow the map forever.
            if bucket.is_empty() {
                self.by_type.remove(&event_type);
            }
        }
        self.invalidate_cache();
        true
    }

    /// Mark a policy revoked (kept for audit, never matches again).
    pub fn revoke(&mut self, id: PolicyId) -> bool {
        let Some(event_type) = self.by_id.get(&id) else {
            return false;
        };
        let revoked = self
            .by_type
            .get_mut(event_type)
            .and_then(|bucket| bucket.iter_mut().find(|p| p.id == id))
            .map(|p| p.revoke())
            .is_some();
        if revoked {
            self.invalidate_cache();
        }
        revoked
    }

    /// Number of installed policies (including revoked ones).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no policies are installed.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// All policies for an event type.
    pub fn policies_for(&self, event_type: &EventTypeId) -> &[PrivacyPolicy] {
        self.by_type
            .get(event_type)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate over every installed policy.
    pub fn iter(&self) -> impl Iterator<Item = &PrivacyPolicy> {
        self.by_type.values().flatten()
    }

    /// Evaluate a request (Algorithm 1, steps 2–3), consulting the
    /// decision cache first.
    ///
    /// Returns `Permit` with the union of allowed fields over all
    /// matching policies, or the most precise deny reason observed.
    pub fn evaluate(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> Decision {
        self.evaluate_traced(request, actors, now).0
    }

    /// Like [`PolicyDecisionPoint::evaluate`], also reporting whether
    /// the decision was answered from the cache (for telemetry).
    pub fn evaluate_traced(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> (Decision, bool) {
        let generation = self.generation.current();
        let probe = (request.actor, &request.event_type, &request.purpose);
        if let Some(decision) = self.eval_cache.get(&probe, generation, now) {
            return (decision, true);
        }
        let decision = self.evaluate_uncached(request, actors, now);
        let stable = StabilityInterval::around(now, self.policies_for(&request.event_type));
        let key = (
            request.actor,
            request.event_type.clone(),
            request.purpose.clone(),
        );
        self.eval_cache
            .put(key, generation, stable, decision.clone());
        (decision, false)
    }

    /// Whether `consumer` (or an ancestor organization) holds any live,
    /// in-window policy over `event_type` — the notification-routing
    /// authorization check, cached per `(consumer, event type)`.
    pub fn is_authorized(
        &self,
        consumer: ActorId,
        event_type: &EventTypeId,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> bool {
        let generation = self.generation.current();
        if let Some(authorized) = self
            .auth_cache
            .get(&(consumer, event_type), generation, now)
        {
            return authorized;
        }
        let candidates = self.policies_for(event_type);
        let authorized = candidates.iter().any(|p| {
            !p.revoked
                && p.validity.contains(now)
                && actors.is_same_or_descendant(consumer, p.actor)
        });
        let stable = StabilityInterval::around(now, candidates);
        self.auth_cache.put(
            (consumer, event_type.clone()),
            generation,
            stable,
            authorized,
        );
        authorized
    }

    /// Evaluate a request without touching the cache (the raw
    /// Algorithm-1 matching walk; benchmark baseline).
    pub fn evaluate_uncached(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> Decision {
        let candidates = self.policies_for(&request.event_type);
        let mut allowed = std::collections::BTreeSet::new();
        let mut matched = Vec::new();
        // Track the "closest" failure for a precise deny reason:
        // later outcomes in this ordering indicate the request got
        // further through the checks.
        let mut best_failure = DenyReason::NoMatchingPolicy;
        let mut best_rank = 0u8;
        for policy in candidates {
            let (rank, reason) = match matches(policy, request, actors, now) {
                MatchOutcome::Match => {
                    allowed.extend(policy.fields.iter().cloned());
                    matched.push(policy.id);
                    continue;
                }
                MatchOutcome::WrongEventType | MatchOutcome::Revoked => {
                    (1, DenyReason::NoMatchingPolicy)
                }
                MatchOutcome::WrongActor => (2, DenyReason::NoMatchingPolicy),
                MatchOutcome::PurposeNotAllowed => (3, DenyReason::PurposeNotAllowed),
                MatchOutcome::OutsideValidity => (4, DenyReason::PolicyExpired),
            };
            if rank > best_rank {
                best_rank = rank;
                best_failure = reason;
            }
        }
        if matched.is_empty() {
            Decision::Deny(best_failure)
        } else {
            Decision::Permit {
                allowed_fields: allowed,
                matched_policies: matched,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ValidityWindow;
    use css_types::{Actor, ActorId, GlobalEventId, Purpose, RequestId};

    fn registry() -> ActorRegistry {
        let mut reg = ActorRegistry::new();
        reg.register(Actor::organization(ActorId(1), "Hospital"))
            .unwrap();
        reg.register(Actor::unit(ActorId(2), "Laboratory", ActorId(1)))
            .unwrap();
        reg.register(Actor::organization(ActorId(3), "SocialWelfare"))
            .unwrap();
        reg
    }

    fn policy(
        id: u64,
        actor: ActorId,
        ty: &str,
        purpose: Purpose,
        fields: &[&str],
    ) -> PrivacyPolicy {
        PrivacyPolicy::new(
            PolicyId(id),
            ActorId(9),
            actor,
            EventTypeId::v1(ty),
            [purpose],
            fields.iter().map(|s| s.to_string()),
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
    fn deny_by_default_on_empty_pdp() {
        let pdp = PolicyDecisionPoint::new();
        let d = pdp.evaluate(
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(d, Decision::Deny(DenyReason::NoMatchingPolicy));
    }

    #[test]
    fn single_match_permits_with_its_fields() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a", "b"],
        ));
        let d = pdp.evaluate(
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        match d {
            Decision::Permit {
                allowed_fields,
                matched_policies,
            } => {
                assert_eq!(allowed_fields.len(), 2);
                assert_eq!(matched_policies, vec![PolicyId(1)]);
            }
            other => panic!("expected permit, got {other:?}"),
        }
    }

    #[test]
    fn multiple_matches_union_fields() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a"],
        ));
        pdp.install(policy(
            2,
            ActorId(2),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["b"],
        ));
        // Request from the Laboratory: both the hospital-level and the
        // lab-level grant apply.
        let d = pdp.evaluate(
            &request(ActorId(2), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        let fields = d.allowed_fields().unwrap();
        assert!(fields.contains("a") && fields.contains("b"));
    }

    #[test]
    fn deny_reason_prefers_purpose_over_no_match() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::Administration,
            &["a"],
        ));
        let d = pdp.evaluate(
            &request(ActorId(1), "blood-test", Purpose::StatisticalAnalysis),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(d, Decision::Deny(DenyReason::PurposeNotAllowed));
    }

    #[test]
    fn deny_reason_expired() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(
            policy(
                1,
                ActorId(1),
                "blood-test",
                Purpose::HealthcareTreatment,
                &["a"],
            )
            .valid(ValidityWindow::until(Timestamp(10))),
        );
        let d = pdp.evaluate(
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(11),
        );
        assert_eq!(d, Decision::Deny(DenyReason::PolicyExpired));
    }

    #[test]
    fn revoke_turns_permit_into_deny() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a"],
        ));
        let r = request(ActorId(1), "blood-test", Purpose::HealthcareTreatment);
        assert!(pdp.evaluate(&r, &registry(), Timestamp(0)).is_permit());
        assert!(pdp.revoke(PolicyId(1)));
        assert!(!pdp.evaluate(&r, &registry(), Timestamp(0)).is_permit());
        // Still installed (audit), just inert.
        assert_eq!(pdp.len(), 1);
    }

    #[test]
    fn install_replaces_same_id() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a"],
        ));
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["b"],
        ));
        assert_eq!(pdp.len(), 1);
        let d = pdp.evaluate(
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        let fields = d.allowed_fields().unwrap();
        assert!(fields.contains("b") && !fields.contains("a"));
    }

    #[test]
    fn remove_policy() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a"],
        ));
        assert!(pdp.remove(PolicyId(1)));
        assert!(!pdp.remove(PolicyId(1)));
        assert!(pdp.is_empty());
    }

    #[test]
    fn unrelated_consumer_denied_even_with_policies_present() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(
            1,
            ActorId(1),
            "blood-test",
            Purpose::HealthcareTreatment,
            &["a"],
        ));
        let d = pdp.evaluate(
            &request(ActorId(3), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        assert_eq!(d, Decision::Deny(DenyReason::NoMatchingPolicy));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::model::ValidityWindow;
    use css_types::{Actor, ActorId, GlobalEventId, Purpose, RequestId};

    fn registry() -> ActorRegistry {
        let mut reg = ActorRegistry::new();
        reg.register(Actor::organization(ActorId(1), "Hospital"))
            .unwrap();
        reg
    }

    fn policy(id: u64) -> PrivacyPolicy {
        PrivacyPolicy::new(
            PolicyId(id),
            ActorId(9),
            ActorId(1),
            EventTypeId::v1("blood-test"),
            [Purpose::HealthcareTreatment],
            ["a".to_string()],
        )
    }

    fn request() -> DetailRequest {
        DetailRequest::new(
            RequestId(1),
            ActorId(1),
            EventTypeId::v1("blood-test"),
            GlobalEventId(1),
            Purpose::HealthcareTreatment,
        )
    }

    #[test]
    fn repeat_evaluation_hits_the_cache() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(1));
        let actors = registry();
        let (d1, hit1) = pdp.evaluate_traced(&request(), &actors, Timestamp(5));
        let (d2, hit2) = pdp.evaluate_traced(&request(), &actors, Timestamp(6));
        assert!(!hit1, "first evaluation computes");
        assert!(hit2, "second evaluation is served from cache");
        assert_eq!(d1, d2);
        let stats = pdp.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn revocation_denies_on_the_very_next_request() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(1));
        let actors = registry();
        // Warm the cache with a permit.
        assert!(pdp.evaluate(&request(), &actors, Timestamp(0)).is_permit());
        assert!(pdp.evaluate(&request(), &actors, Timestamp(0)).is_permit());
        assert!(pdp.revoke(PolicyId(1)));
        // No propagation window: the generation bump invalidates the
        // cached permit immediately.
        let (d, hit) = pdp.evaluate_traced(&request(), &actors, Timestamp(0));
        assert!(!hit);
        assert_eq!(d, Decision::Deny(DenyReason::NoMatchingPolicy));
    }

    #[test]
    fn install_invalidates_cached_deny() {
        let mut pdp = PolicyDecisionPoint::new();
        let actors = registry();
        assert!(!pdp.evaluate(&request(), &actors, Timestamp(0)).is_permit());
        pdp.install(policy(1));
        assert!(pdp.evaluate(&request(), &actors, Timestamp(0)).is_permit());
    }

    #[test]
    fn cached_permit_expires_at_validity_boundary() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(1).valid(ValidityWindow::until(Timestamp(100))));
        let actors = registry();
        assert!(pdp.evaluate(&request(), &actors, Timestamp(50)).is_permit());
        // Inside the stability interval: cached permit still valid.
        let (d, hit) = pdp.evaluate_traced(&request(), &actors, Timestamp(100));
        assert!(hit && d.is_permit());
        // Past the boundary: the cached entry must NOT answer.
        let (d, hit) = pdp.evaluate_traced(&request(), &actors, Timestamp(101));
        assert!(!hit);
        assert_eq!(d, Decision::Deny(DenyReason::PolicyExpired));
    }

    #[test]
    fn authorization_check_is_cached_and_invalidated() {
        let mut pdp = PolicyDecisionPoint::new();
        pdp.install(policy(1));
        let actors = registry();
        let ty = EventTypeId::v1("blood-test");
        assert!(pdp.is_authorized(ActorId(1), &ty, &actors, Timestamp(0)));
        assert!(pdp.is_authorized(ActorId(1), &ty, &actors, Timestamp(0)));
        assert!(!pdp.is_authorized(ActorId(7), &ty, &actors, Timestamp(0)));
        pdp.revoke(PolicyId(1));
        assert!(!pdp.is_authorized(ActorId(1), &ty, &actors, Timestamp(0)));
    }

    #[test]
    fn generation_bump_is_visible_to_concurrent_readers() {
        use parking_lot::RwLock;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // Readers evaluate through a shared lock while the writer
        // revokes; after the revocation no reader may observe a permit.
        let pdp = Arc::new(RwLock::new(PolicyDecisionPoint::new()));
        pdp.write().install(policy(1));
        let actors = Arc::new(registry());
        let revoked = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let pdp = Arc::clone(&pdp);
                let actors = Arc::clone(&actors);
                let revoked = Arc::clone(&revoked);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        let seen_revoked = revoked.load(Ordering::SeqCst);
                        let d = pdp.read().evaluate(&request(), &actors, Timestamp(0));
                        // If the revocation happened-before this read,
                        // a cached permit would be a correctness bug.
                        if seen_revoked {
                            assert!(!d.is_permit(), "stale cached permit after revoke");
                        }
                    }
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_millis(2));
        pdp.write().revoke(PolicyId(1));
        revoked.store(true, Ordering::SeqCst);

        for r in readers {
            r.join().unwrap();
        }
        assert!(!pdp
            .read()
            .evaluate(&request(), &actors, Timestamp(0))
            .is_permit());
    }
}

#[cfg(test)]
mod validity_tests {
    use super::*;
    use crate::model::{PrivacyPolicy, ValidityWindow};
    use css_types::{Actor, ActorId, EventTypeId, GlobalEventId, Purpose, RequestId};

    #[test]
    fn valid_policy_wins_even_when_siblings_expired() {
        let mut actors = ActorRegistry::new();
        actors
            .register(Actor::organization(ActorId(1), "C"))
            .unwrap();
        let mut pdp = PolicyDecisionPoint::new();
        let base = |id: u64, fields: &[&str]| {
            PrivacyPolicy::new(
                PolicyId(id),
                ActorId(9),
                ActorId(1),
                EventTypeId::v1("e"),
                [Purpose::Audit],
                fields.iter().map(|s| s.to_string()),
            )
        };
        pdp.install(base(1, &["old"]).valid(ValidityWindow::until(Timestamp(10))));
        pdp.install(base(2, &["current"]));
        let request = DetailRequest::new(
            RequestId(1),
            ActorId(1),
            EventTypeId::v1("e"),
            GlobalEventId(1),
            Purpose::Audit,
        );
        match pdp.evaluate(&request, &actors, Timestamp(100)) {
            Decision::Permit {
                allowed_fields,
                matched_policies,
            } => {
                // Only the in-window policy contributes fields.
                assert!(allowed_fields.contains("current"));
                assert!(!allowed_fields.contains("old"));
                assert_eq!(matched_policies, vec![PolicyId(2)]);
            }
            other => panic!("expected permit, got {other:?}"),
        }
    }
}
