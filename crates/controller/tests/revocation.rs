//! Revocation reaches the routing table: a consumer whose only policy
//! is revoked, or whose policy's validity window passes, receives no
//! notification published after that — not in the receipt, not on its
//! subscription, not in a Delivery record — and losing the
//! subscription is itself audited. What was queued for it before stays
//! deliverable; a re-grant needs a new subscribe.

use std::sync::Arc;

use css_audit::{AuditAction, AuditQuery};
use css_controller::{ControllerConfig, DataController, ParticipantRole};
use css_event::EventSchema;
use css_policy::{PrivacyPolicy, ValidityWindow};
use css_storage::MemBackend;
use css_types::{
    Actor, ActorId, Clock, Duration, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    PolicyId, Purpose, SimClock, SourceEventId, Timestamp,
};

const HOSPITAL: ActorId = ActorId(1);
const DOCTOR: ActorId = ActorId(2);
const WELFARE: ActorId = ActorId(3);

fn visit() -> EventTypeId {
    EventTypeId::v1("visit")
}

struct World {
    controller: DataController<MemBackend>,
    clock: SimClock,
    next_src: u64,
}

fn world(shards: usize) -> World {
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let backends = || (0..shards).map(|_| MemBackend::new()).collect();
    let controller = DataController::open(
        ControllerConfig::with_clock(Arc::new(clock.clone())),
        || Ok(MemBackend::new()),
        backends(),
        backends(),
        None,
    )
    .unwrap();
    for (id, name) in [
        (HOSPITAL, "Hospital"),
        (DOCTOR, "Doctor"),
        (WELFARE, "Welfare"),
    ] {
        controller
            .register_actor(Actor::organization(id, name))
            .unwrap();
    }
    controller
        .sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    for consumer in [DOCTOR, WELFARE] {
        controller
            .sign_contract(consumer, ParticipantRole::Consumer)
            .unwrap();
    }
    controller
        .declare_event_class(&EventSchema::new(visit(), "Visit", HOSPITAL), None)
        .unwrap();
    World {
        controller,
        clock,
        next_src: 1,
    }
}

/// Grant `consumer` the visit class, valid in `window`.
fn grant(w: &World, consumer: ActorId, window: ValidityWindow) -> PolicyId {
    let id = w.controller.next_policy_id();
    let policy = PrivacyPolicy::new(
        id,
        HOSPITAL,
        consumer,
        visit(),
        [Purpose::HealthcareTreatment],
        Vec::<String>::new(),
    )
    .valid(window);
    w.controller.define_policy(policy).unwrap();
    id
}

/// Publish one visit about person 7; the receipt's notified consumers
/// and the event id.
fn publish(w: &mut World) -> (Vec<ActorId>, GlobalEventId) {
    w.next_src += 1;
    let receipt = w
        .controller
        .publish(
            HOSPITAL,
            PersonIdentity {
                id: PersonId(7),
                fiscal_code: "FC7".into(),
                name: "Ada".into(),
                surname: "Rossi".into(),
            },
            "visit".into(),
            visit(),
            w.clock.now(),
            SourceEventId(w.next_src),
        )
        .unwrap();
    (receipt.notified, receipt.global_id)
}

/// Events a Delivery record says reached `consumer`.
fn delivered_to(w: &World, consumer: ActorId) -> Vec<GlobalEventId> {
    w.controller
        .audit_query(
            &AuditQuery::new()
                .action(AuditAction::Delivery)
                .actor(consumer),
        )
        .unwrap()
        .iter()
        .filter_map(|r| r.event)
        .collect()
}

/// The audited detachments of `consumer`.
fn detachments(w: &World, consumer: ActorId) -> usize {
    w.controller
        .audit_query(
            &AuditQuery::new()
                .action(AuditAction::Subscribe)
                .actor(consumer)
                .denied_only(),
        )
        .unwrap()
        .iter()
        .filter(|r| r.detail.starts_with("detached "))
        .count()
}

#[test]
fn a_revoked_consumer_is_detached_at_the_next_publish() {
    for shards in [1, 8] {
        let mut w = world(shards);
        let only = grant(&w, DOCTOR, ValidityWindow::ALWAYS);
        grant(&w, WELFARE, ValidityWindow::ALWAYS);
        let doctor = w.controller.subscribe(DOCTOR, &visit()).unwrap();
        let welfare = w.controller.subscribe(WELFARE, &visit()).unwrap();
        let (notified, before) = publish(&mut w);
        assert_eq!(notified, [DOCTOR, WELFARE]);

        w.controller.revoke_policy(HOSPITAL, only).unwrap();
        let (notified, after) = publish(&mut w);
        assert_eq!(notified, [WELFARE], "{shards} shards");
        assert_eq!(delivered_to(&w, DOCTOR), [before], "{shards} shards");
        assert_eq!(delivered_to(&w, WELFARE), [before, after]);
        assert_eq!(detachments(&w, DOCTOR), 1);
        assert_eq!(detachments(&w, WELFARE), 0);
        // Queued while authorised: still delivered. Nothing after.
        let queued: Vec<GlobalEventId> = doctor
            .drain()
            .unwrap()
            .iter()
            .map(|n| n.global_id)
            .collect();
        assert_eq!(queued, [before]);
        assert_eq!(welfare.drain().unwrap().len(), 2);

        // A re-grant does not re-attach the old subscription ...
        grant(&w, DOCTOR, ValidityWindow::ALWAYS);
        let (notified, _) = publish(&mut w);
        assert_eq!(notified, [WELFARE]);
        assert!(doctor.poll().unwrap().is_none());
        assert_eq!(detachments(&w, DOCTOR), 1, "detached once");
        // ... a new subscribe does.
        let again = w.controller.subscribe(DOCTOR, &visit()).unwrap();
        let (notified, latest) = publish(&mut w);
        assert_eq!(notified, [DOCTOR, WELFARE]);
        assert_eq!(again.poll().unwrap().unwrap().message.global_id, latest);
        assert!(doctor.poll().unwrap().is_none());
        w.controller.verify_audit().unwrap();
    }
}

#[test]
fn an_expired_consumer_is_detached_at_the_next_publish() {
    let mut w = world(2);
    let until = Timestamp(w.clock.now().as_millis() + 100);
    grant(&w, DOCTOR, ValidityWindow::until(until));
    grant(&w, WELFARE, ValidityWindow::ALWAYS);
    let doctor = w.controller.subscribe(DOCTOR, &visit()).unwrap();
    let _welfare = w.controller.subscribe(WELFARE, &visit()).unwrap();
    let (notified, inside) = publish(&mut w);
    assert_eq!(notified, [DOCTOR, WELFARE]);
    // Up to and including its last instant the window still holds.
    w.clock.advance(Duration::millis(100));
    let (notified, at_the_edge) = publish(&mut w);
    assert_eq!(notified, [DOCTOR, WELFARE]);
    assert_eq!(detachments(&w, DOCTOR), 0);

    w.clock.advance(Duration::millis(1));
    let (notified, _) = publish(&mut w);
    assert_eq!(notified, [WELFARE]);
    assert_eq!(delivered_to(&w, DOCTOR), [inside, at_the_edge]);
    assert_eq!(detachments(&w, DOCTOR), 1);
    let queued: Vec<GlobalEventId> = doctor
        .drain()
        .unwrap()
        .iter()
        .map(|n| n.global_id)
        .collect();
    assert_eq!(queued, [inside, at_the_edge]);
}

#[test]
fn a_regranted_worker_group_joins_a_fresh_group_that_publishes_reach() {
    let mut w = world(2);
    let only = grant(&w, DOCTOR, ValidityWindow::ALWAYS);
    let old = w
        .controller
        .subscribe_grouped(DOCTOR, &visit(), "workers")
        .unwrap();
    let (_, before) = publish(&mut w);
    w.controller.revoke_policy(HOSPITAL, only).unwrap();
    let (notified, _) = publish(&mut w);
    assert!(notified.is_empty());
    assert_eq!(detachments(&w, DOCTOR), 1);

    // The old member is still attached (subscriptions are durable),
    // yet the re-granted join is routed, not put in the closed group.
    grant(&w, DOCTOR, ValidityWindow::ALWAYS);
    let new = w
        .controller
        .subscribe_grouped(DOCTOR, &visit(), "workers")
        .unwrap();
    let (notified, latest) = publish(&mut w);
    assert_eq!(notified, [DOCTOR]);
    assert_eq!(delivered_to(&w, DOCTOR), [before, latest]);
    assert_eq!(new.poll().unwrap().unwrap().message.global_id, latest);
    assert!(new.poll().unwrap().is_none());
    let queued: Vec<GlobalEventId> = old.drain().unwrap().iter().map(|n| n.global_id).collect();
    assert_eq!(queued, [before]);
}

#[test]
fn a_handle_unsubscribed_on_its_own_is_detached_without_an_error() {
    let mut w = world(1);
    let only = grant(&w, DOCTOR, ValidityWindow::ALWAYS);
    grant(&w, WELFARE, ValidityWindow::ALWAYS);
    let doctor = w.controller.subscribe(DOCTOR, &visit()).unwrap();
    let _welfare = w.controller.subscribe(WELFARE, &visit()).unwrap();
    // Left the bus, not the controller: the route still lists it.
    doctor.unsubscribe().unwrap();
    w.controller.revoke_policy(HOSPITAL, only).unwrap();
    let (notified, _) = publish(&mut w);
    assert_eq!(notified, [WELFARE]);
    assert_eq!(detachments(&w, DOCTOR), 1);
    let (notified, _) = publish(&mut w);
    assert_eq!(notified, [WELFARE]);
    assert_eq!(detachments(&w, DOCTOR), 1);
}
