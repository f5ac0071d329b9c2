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
//!
//! Each class keeps its policies in one flat list, in install order,
//! and an index from granted actor to the positions of that actor's
//! unrevoked policies. A request is matched against the policies
//! granted to a link of the requester's lineage only: every other
//! policy of the class — granted elsewhere, or revoked — fails
//! Definition 3 on the actor or as revoked, which is the default
//! `NoMatchingPolicy` deny, so skipping it changes no decision.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use css_types::{ActorId, ActorRegistry, DenyReason, EventTypeId, PolicyId, Purpose, Timestamp};

use crate::cache::{CacheStats, DecisionCache, Generation, Probe, StabilityInterval};
use crate::decision::{Decision, Permit, Verdict};
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

/// One event class's policies.
#[derive(Default)]
struct ClassPolicies {
    /// Every policy of the class, in install order; a revoked one stays
    /// in place, flagged.
    policies: Vec<PrivacyPolicy>,
    /// Granted actor → the positions in `policies` of that actor's
    /// unrevoked policies, ascending.
    granted: HashMap<ActorId, Vec<usize>>,
}

impl ClassPolicies {
    /// Rebuild `granted` from `policies`.
    fn reindex(&mut self) {
        self.granted.clear();
        for (pos, policy) in self.policies.iter().enumerate() {
            if !policy.revoked {
                self.granted.entry(policy.actor).or_default().push(pos);
            }
        }
    }
}

/// In-memory decision point over an indexed policy set, with a
/// generation-stamped decision cache over the evaluation paths.
#[derive(Default)]
pub struct PolicyDecisionPoint {
    by_type: HashMap<EventTypeId, ClassPolicies>,
    /// `id → (event type, position in its class's list)`, so a by-id
    /// lookup, removal or revocation finds its policy without a scan.
    by_id: HashMap<PolicyId, (EventTypeId, usize)>,
    /// Bumped on every policy mutation; stale cache entries miss.
    generation: Generation,
    eval_cache: DecisionCache<EvalKey, Verdict>,
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

    /// The version of the policy set every decision is computed under:
    /// it changes on every install, removal, revocation and
    /// [`PolicyDecisionPoint::invalidate_cache`].
    pub fn generation(&self) -> u64 {
        self.generation.current()
    }

    /// The instants around `now` in which no policy over `event_type`
    /// enters or leaves its validity window: while the generation
    /// holds, every authorisation for the class decided at `now` holds
    /// throughout them.
    pub fn stability(&self, event_type: &EventTypeId, now: Timestamp) -> StabilityInterval {
        StabilityInterval::around(now, self.policies_for(event_type))
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
        let class = self.by_type.entry(policy.event_type.clone()).or_default();
        let pos = class.policies.len();
        if !policy.revoked {
            class.granted.entry(policy.actor).or_default().push(pos);
        }
        self.by_id
            .insert(policy.id, (policy.event_type.clone(), pos));
        class.policies.push(policy);
        self.invalidate_cache();
    }

    /// Remove a policy by id. Returns whether it was present.
    pub fn remove(&mut self, id: PolicyId) -> bool {
        let Some((event_type, pos)) = self.by_id.remove(&id) else {
            return false;
        };
        // by_id and by_type are maintained in lockstep; if the class or
        // its entry is somehow already gone, the policy is removed either
        // way — degrade gracefully rather than panic mid-request.
        if let Some(class) = self.by_type.get_mut(&event_type) {
            if pos < class.policies.len() {
                class.policies.remove(pos);
                // Every later policy moved up one place.
                for (moved, policy) in class.policies.iter().enumerate().skip(pos) {
                    if let Some(entry) = self.by_id.get_mut(&policy.id) {
                        entry.1 = moved;
                    }
                }
                class.reindex();
            }
            // Drop emptied classes so churn doesn't grow the map forever.
            if class.policies.is_empty() {
                self.by_type.remove(&event_type);
            }
        }
        self.invalidate_cache();
        true
    }

    /// Mark a policy revoked (kept for audit, never matches again). It
    /// leaves its actor's index, a scan of that actor's positions only.
    pub fn revoke(&mut self, id: PolicyId) -> bool {
        let Some((event_type, pos)) = self.by_id.get(&id) else {
            return false;
        };
        let Some(class) = self.by_type.get_mut(event_type) else {
            return false;
        };
        let Some(policy) = class.policies.get_mut(*pos) else {
            return false;
        };
        policy.revoke();
        if let Some(positions) = class.granted.get_mut(&policy.actor) {
            positions.retain(|p| p != pos);
            if positions.is_empty() {
                class.granted.remove(&policy.actor);
            }
        }
        self.invalidate_cache();
        true
    }

    /// The installed policy with this id (revoked or not).
    pub fn get(&self, id: PolicyId) -> Option<&PrivacyPolicy> {
        let (event_type, pos) = self.by_id.get(&id)?;
        self.by_type.get(event_type)?.policies.get(*pos)
    }

    /// Number of installed policies (including revoked ones).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no policies are installed.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// All policies for an event type, in install order.
    fn policies_for(&self, event_type: &EventTypeId) -> &[PrivacyPolicy] {
        self.by_type
            .get(event_type)
            .map_or(&[], |class| class.policies.as_slice())
    }

    /// Iterate over every installed policy.
    pub fn iter(&self) -> impl Iterator<Item = &PrivacyPolicy> {
        self.by_type.values().flat_map(|class| &class.policies)
    }

    /// The unrevoked policies over `event_type` granted to `actor` or to
    /// an ancestor of it — the only ones Definition 3 can match for a
    /// request by `actor`. Nearest link first, each link's policies in
    /// install order.
    fn on_lineage<'a>(
        &'a self,
        event_type: &EventTypeId,
        actor: ActorId,
        actors: &'a ActorRegistry,
    ) -> impl Iterator<Item = &'a PrivacyPolicy> + 'a {
        self.by_type
            .get(event_type)
            .into_iter()
            .flat_map(move |class| {
                actors
                    .lineage(actor)
                    .filter_map(|link| class.granted.get(&link))
                    .flatten()
                    .filter_map(|&pos| class.policies.get(pos))
            })
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
        Decision::from(&self.decide(request, actors, now).0)
    }

    /// Like [`PolicyDecisionPoint::evaluate`], on the shared verdict — a
    /// cache hit reads the one permit the miss built — and reporting
    /// whether the cache answered (for telemetry).
    pub fn decide(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> (Verdict, bool) {
        let generation = self.generation.current();
        let probe = (request.actor, &request.event_type, &request.purpose);
        if let Some(verdict) = self.eval_cache.get(&probe, generation, now) {
            return (verdict, true);
        }
        let verdict = self.decide_uncached(request, actors, now);
        // Only the policies the decision was computed from can flip it.
        let stable = StabilityInterval::around(
            now,
            self.on_lineage(&request.event_type, request.actor, actors),
        );
        let key = (
            request.actor,
            request.event_type.clone(),
            request.purpose.clone(),
        );
        self.eval_cache
            .put(key, generation, stable, verdict.clone());
        (verdict, false)
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
        let authorized = self
            .on_lineage(event_type, consumer, actors)
            .any(|p| p.validity.contains(now));
        let stable = StabilityInterval::around(now, self.on_lineage(event_type, consumer, actors));
        self.auth_cache.put(
            (consumer, event_type.clone()),
            generation,
            stable,
            authorized,
        );
        authorized
    }

    /// Evaluate a request without touching the cache (the raw
    /// Algorithm-1 matching walk over the requester's lineage;
    /// benchmark baseline).
    pub fn evaluate_uncached(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> Decision {
        Decision::from(&self.decide_uncached(request, actors, now))
    }

    /// The matching walk behind both evaluations: a permit is built
    /// here, once per computed decision.
    fn decide_uncached(
        &self,
        request: &DetailRequest,
        actors: &ActorRegistry,
        now: Timestamp,
    ) -> Verdict {
        let mut allowed = BTreeSet::new();
        let mut matched = Vec::new();
        // Track the "closest" failure for a precise deny reason:
        // later outcomes in this ordering indicate the request got
        // further through the checks.
        let mut best_failure = DenyReason::NoMatchingPolicy;
        let mut best_rank = 0u8;
        for policy in self.on_lineage(&request.event_type, request.actor, actors) {
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
            Err(best_failure)
        } else {
            // The permit's audit detail lists its policies in install
            // order, whatever link of the lineage each was found at.
            matched.sort_unstable_by_key(|id| self.by_id.get(id).map(|&(_, pos)| pos));
            Ok(Arc::new(Permit::new(allowed, matched)))
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
        let (d, _) = pdp.decide(
            &request(ActorId(2), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        let fields = d.unwrap().allowed_fields().clone();
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
        let (d, _) = pdp.decide(
            &request(ActorId(1), "blood-test", Purpose::HealthcareTreatment),
            &registry(),
            Timestamp(0),
        );
        let fields = d.unwrap().allowed_fields().clone();
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
        let (d1, hit1) = pdp.decide(&request(), &actors, Timestamp(5));
        let (d2, hit2) = pdp.decide(&request(), &actors, Timestamp(6));
        assert!(!hit1, "first evaluation computes");
        assert!(hit2, "second evaluation is served from cache");
        // The hit hands out the permit the miss built, not a copy.
        assert!(Arc::ptr_eq(&d1.unwrap(), &d2.unwrap()));
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
        let (d, hit) = pdp.decide(&request(), &actors, Timestamp(0));
        assert!(!hit);
        assert_eq!(d, Err(DenyReason::NoMatchingPolicy));
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
        let (d, hit) = pdp.decide(&request(), &actors, Timestamp(100));
        assert!(hit && d.is_ok());
        // Past the boundary: the cached entry must NOT answer.
        let (d, hit) = pdp.decide(&request(), &actors, Timestamp(101));
        assert!(!hit);
        assert_eq!(d, Err(DenyReason::PolicyExpired));
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
        let pdp = Arc::new(RwLock::ranked(
            "pdp",
            css_types::lock_order::PDP,
            PolicyDecisionPoint::new(),
        ));
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
