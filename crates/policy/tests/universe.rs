//! The decision point over a bounded universe, checked cell by cell
//! against the literal Definition 3 walk.
//!
//! The universe: two organisations, each with two units, each with two
//! roles, and one actor nobody registered; two classes; three
//! purposes. A pool of policy templates grants at every level of the
//! hierarchy (and to the unregistered actor), with purpose subsets, the
//! four validity shapes and revoked or not. Every set of up to two
//! templates is installed in a fresh decision point, and every actor ×
//! class × purpose is asked at instants on both sides of each validity
//! boundary. Each policy of the set is then revoked, and then removed,
//! in turn, and everything is asked again through the same warm cache.
//! Time is a number here: nothing reads a clock.

use std::collections::BTreeSet;

use css_policy::{
    matches, Decision, DetailRequest, MatchOutcome, PolicyDecisionPoint, PrivacyPolicy,
    ValidityWindow,
};
use css_types::{
    Actor, ActorId, ActorRegistry, DenyReason, EventTypeId, GlobalEventId, PolicyId, Purpose,
    RequestId, Timestamp,
};

/// `until T1`, `from T2` and `between T2 and T1` are the bounded windows.
const T2: u64 = 10;
const T1: u64 = 20;

/// Each side of every boundary: a window opens at `not_before` and
/// closes just after `not_after`.
const INSTANTS: [u64; 4] = [T2 - 1, T2, T1, T1 + 1];

/// An actor the registry never heard of.
const GHOST: ActorId = ActorId(999);

/// Templates in the pool: every grantee in every window takes 7 × 4.
const POOL: usize = 28;

fn classes() -> [EventTypeId; 2] {
    [EventTypeId::v1("blood-test"), EventTypeId::v1("home-care")]
}

fn purposes() -> [Purpose; 3] {
    [
        Purpose::HealthcareTreatment,
        Purpose::Administration,
        Purpose::StatisticalAnalysis,
    ]
}

/// Organisations 1 and 2; unit `10·o + u`; role `10·unit + r`.
fn hierarchy() -> (ActorRegistry, Vec<ActorId>) {
    let mut actors = ActorRegistry::new();
    let mut all = Vec::new();
    for o in 1..=2 {
        let org = ActorId(o);
        actors
            .register(Actor::organization(org, format!("org {o}")))
            .unwrap();
        all.push(org);
        for unit in [10 * o + 1, 10 * o + 2].map(ActorId) {
            actors.register(Actor::unit(unit, "unit", org)).unwrap();
            all.push(unit);
            for role in [10 * unit.0 + 1, 10 * unit.0 + 2].map(ActorId) {
                actors.register(Actor::role(role, "role", unit)).unwrap();
                all.push(role);
            }
        }
    }
    all.push(GHOST);
    (actors, all)
}

/// Template `i`. The grantee, window, purpose subset and revocation
/// cycle with coprime periods, so the pool meets every grantee in every
/// window; the class changes every seven, so each class meets every
/// grantee twice. Ids fall as `i` rises: a pair installs in the
/// opposite of id order.
fn template(i: usize) -> PrivacyPolicy {
    const GRANTEES: [ActorId; 7] = [
        ActorId(1),   // an organisation,
        ActorId(11),  // one of its units,
        ActorId(111), // one of that unit's roles,
        ActorId(112), // the role beside it,
        ActorId(12),  // the unit beside it,
        ActorId(2),   // the other organisation,
        GHOST,        // and the unregistered actor.
    ];
    let [treatment, administration, statistics] = purposes();
    let granted = match i % 3 {
        0 => vec![treatment],
        1 => vec![treatment, administration],
        _ => vec![administration, statistics],
    };
    let window = match i % 4 {
        0 => ValidityWindow::ALWAYS,
        1 => ValidityWindow::until(Timestamp(T1)),
        2 => ValidityWindow {
            not_before: Some(Timestamp(T2)),
            not_after: None,
        },
        _ => ValidityWindow::between(Timestamp(T2), Timestamp(T1)),
    };
    let mut policy = PrivacyPolicy::new(
        PolicyId(100 - i as u64),
        ActorId(500),
        GRANTEES[i % GRANTEES.len()],
        classes()[i / 7 % 2].clone(),
        granted,
        ["PatientId".to_string(), format!("F{i}")],
    )
    .valid(window);
    if i % 5 == 3 {
        policy.revoke();
    }
    policy
}

/// A permit's fields and policies, or a deny's reason.
type Outcome = Result<(BTreeSet<String>, Vec<PolicyId>), DenyReason>;

fn outcome(decision: Decision) -> Outcome {
    match decision {
        Decision::Permit {
            allowed_fields,
            matched_policies,
            ..
        } => Ok((allowed_fields, matched_policies)),
        Decision::Deny(reason) => Err(reason),
    }
}

/// Definition 3, literally: every installed policy, in install order,
/// through `matches`. A permit is the union of the matches; a deny
/// names the furthest any policy got.
fn reference(
    installed: &[PrivacyPolicy],
    request: &DetailRequest,
    actors: &ActorRegistry,
    now: Timestamp,
) -> Outcome {
    let (mut fields, mut matched) = (BTreeSet::new(), Vec::new());
    let mut furthest = (0, DenyReason::NoMatchingPolicy);
    for policy in installed {
        let failed = match matches(policy, request, actors, now) {
            MatchOutcome::Match => {
                fields.extend(policy.fields.iter().cloned());
                matched.push(policy.id);
                continue;
            }
            MatchOutcome::PurposeNotAllowed => (1, DenyReason::PurposeNotAllowed),
            MatchOutcome::OutsideValidity => (2, DenyReason::PolicyExpired),
            _ => (0, DenyReason::NoMatchingPolicy),
        };
        if failed.0 > furthest.0 {
            furthest = failed;
        }
    }
    if matched.is_empty() {
        Err(furthest.1)
    } else {
        Ok((fields, matched))
    }
}

/// Whether any live, in-window policy of `class` covers `actor`.
fn reference_authorized(
    installed: &[PrivacyPolicy],
    actor: ActorId,
    class: &EventTypeId,
    actors: &ActorRegistry,
    now: Timestamp,
) -> bool {
    installed.iter().any(|p| {
        &p.event_type == class
            && !p.revoked
            && p.validity.contains(now)
            && actors.is_same_or_descendant(actor, p.actor)
    })
}

struct Universe {
    actors: ActorRegistry,
    /// Every actor × class × purpose × instant, instants outermost.
    cells: Vec<(DetailRequest, Timestamp)>,
}

fn universe() -> Universe {
    let (actors, requesters) = hierarchy();
    let mut cells = Vec::new();
    for now in INSTANTS.map(Timestamp) {
        for class in classes() {
            for &actor in &requesters {
                for purpose in purposes() {
                    let request = DetailRequest::new(
                        RequestId(1),
                        actor,
                        class.clone(),
                        GlobalEventId(1),
                        purpose,
                    );
                    cells.push((request, now));
                }
            }
        }
    }
    Universe { actors, cells }
}

/// Ask every cell, forward in time and then backward — the second pass
/// answered from the cache wherever an entry's stability interval
/// allows — and compare each answer with the reference.
fn check_all(pdp: &PolicyDecisionPoint, installed: &[PrivacyPolicy], u: &Universe, context: &str) {
    let position = |id: &PolicyId| installed.iter().position(|p| p.id == *id).unwrap();
    for (pass, (request, now)) in u.cells.iter().chain(u.cells.iter().rev()).enumerate() {
        let (actor, class, now) = (request.actor, &request.event_type, *now);
        let at = || format!("{context}: {actor} {class} {} at {now:?}", request.purpose);
        let want = reference(installed, request, &u.actors, now);
        let got = outcome(pdp.evaluate(request, &u.actors, now));
        assert_eq!(got, want, "{}", at());
        if pass < u.cells.len() {
            let cold = outcome(pdp.evaluate_uncached(request, &u.actors, now));
            assert_eq!(cold, want, "uncached, {}", at());
        }
        assert_eq!(
            pdp.is_authorized(actor, class, &u.actors, now),
            reference_authorized(installed, actor, class, &u.actors, now),
            "is_authorized, {}",
            at()
        );
        match got {
            Ok((fields, matched)) => {
                let union: BTreeSet<String> = matched
                    .iter()
                    .flat_map(|id| installed[position(id)].fields.iter().cloned())
                    .collect();
                assert_eq!(fields, union, "fields, {}", at());
                assert!(
                    matched
                        .windows(2)
                        .all(|w| position(&w[0]) < position(&w[1])),
                    "install order, {}",
                    at()
                );
            }
            Err(reason) if installed.is_empty() => {
                assert_eq!(reason, DenyReason::NoMatchingPolicy, "{}", at());
            }
            Err(_) => {}
        }
    }
}

/// Revoke `id` right after a request it permits was answered (and so
/// cached), then ask that request again at once: the revoked policy is
/// not among the matches of the very next answer.
fn revoke(
    pdp: &mut PolicyDecisionPoint,
    installed: &mut [PrivacyPolicy],
    id: PolicyId,
    u: &Universe,
) {
    let witness = u.cells.iter().find(|(request, now)| {
        reference(installed, request, &u.actors, *now).is_ok_and(|(_, m)| m.contains(&id))
    });
    if let Some((request, now)) = witness {
        assert!(pdp.evaluate(request, &u.actors, *now).is_permit());
    }
    assert!(pdp.revoke(id));
    installed
        .iter_mut()
        .filter(|p| p.id == id)
        .for_each(PrivacyPolicy::revoke);
    if let Some((request, now)) = witness {
        let next = outcome(pdp.evaluate(request, &u.actors, *now));
        assert!(
            next.as_ref().map_or(true, |(_, m)| !m.contains(&id)),
            "{id} still matches after its revocation"
        );
        assert_eq!(next, reference(installed, request, &u.actors, *now));
    }
}

#[test]
fn the_decision_point_answers_as_the_literal_walk_over_the_universe() {
    let u = universe();
    let mut sets = vec![vec![]];
    for a in 0..POOL {
        sets.push(vec![a]);
        sets.extend((a + 1..POOL).map(|b| vec![a, b]));
    }
    let mut hits = 0;
    for set in &sets {
        let mut installed: Vec<PrivacyPolicy> = set.iter().map(|&i| template(i)).collect();
        let mut pdp = PolicyDecisionPoint::new();
        for policy in &installed {
            pdp.install(policy.clone());
        }
        check_all(&pdp, &installed, &u, &format!("templates {set:?}"));
        while let Some(id) = installed.first().map(|p| p.id) {
            revoke(&mut pdp, &mut installed, id, &u);
            check_all(&pdp, &installed, &u, &format!("{set:?}, {id} revoked"));
            assert!(pdp.remove(id));
            installed.remove(0);
            check_all(&pdp, &installed, &u, &format!("{set:?}, {id} removed"));
        }
        assert!(pdp.is_empty());
        hits += pdp.cache_stats().hits;
    }
    assert_eq!(sets.len(), 1 + POOL + POOL * (POOL - 1) / 2);
    assert!(hits > 0, "the warm passes never reached the cache");
}
