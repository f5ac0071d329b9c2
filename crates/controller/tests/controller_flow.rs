//! End-to-end tests of the Data Controller pipeline: onboarding,
//! declaration, policy definition, subscription gating, publishing,
//! routing, detail requests (Algorithm 1), consent, and audit.

use std::sync::Arc;

use css_audit::{AuditAction, AuditQuery};
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, DataController, ParticipantRole, SharedGateway,
};
use css_event::{DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_storage::MemBackend;
use css_types::{
    Actor, ActorId, Clock, CssError, DenyReason, EventTypeId, PersonId, PersonIdentity, Purpose,
    SimClock, SourceEventId, Timestamp,
};
use parking_lot::Mutex;

const HOSPITAL: ActorId = ActorId(1);
const LABORATORY: ActorId = ActorId(2);
const DOCTOR: ActorId = ActorId(3);
const WELFARE: ActorId = ActorId(4);
const GOVERNANCE: ActorId = ActorId(5);

struct World {
    controller: DataController<MemBackend>,
    gateway: SharedGateway<MemBackend>,
    clock: SimClock,
}

fn blood_test_schema() -> EventSchema {
    EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
        .field(FieldDef::optional("HivResult", FieldKind::Text).sensitive())
}

fn mario() -> PersonIdentity {
    PersonIdentity {
        id: PersonId(42),
        fiscal_code: "RSSMRA45C12L378Y".into(),
        name: "Mario".into(),
        surname: "Rossi".into(),
    }
}

fn setup() -> World {
    setup_on(1)
}

fn setup_on(shards: usize) -> World {
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let config = ControllerConfig::with_clock(Arc::new(clock.clone()));
    let backends = || (0..shards).map(|_| MemBackend::new()).collect();
    let c = DataController::open(config, backends(), backends()).unwrap();

    c.register_actor(Actor::organization(HOSPITAL, "Hospital S. Maria"))
        .unwrap();
    c.register_actor(Actor::unit(LABORATORY, "Laboratory", HOSPITAL))
        .unwrap();
    c.register_actor(Actor::organization(DOCTOR, "Family Doctor Bianchi"))
        .unwrap();
    c.register_actor(Actor::organization(WELFARE, "Social Welfare Dept"))
        .unwrap();
    c.register_actor(Actor::organization(GOVERNANCE, "Provincial Governance"))
        .unwrap();

    c.sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    c.sign_contract(DOCTOR, ParticipantRole::Consumer).unwrap();
    c.sign_contract(WELFARE, ParticipantRole::Consumer).unwrap();

    let mut gw = LocalCooperationGateway::open(HOSPITAL, MemBackend::new()).unwrap();
    gw.register_schema(blood_test_schema()).unwrap();
    let gateway: SharedGateway<MemBackend> = Arc::new(Mutex::new(gw));
    c.register_gateway(HOSPITAL, Box::new(gateway.clone()));

    c.declare_event_class(&blood_test_schema(), Some("health/laboratory"))
        .unwrap();

    World {
        controller: c,
        gateway,
        clock,
    }
}

fn doctor_policy(w: &World) -> PrivacyPolicy {
    PrivacyPolicy::new(
        w.controller.next_policy_id(),
        HOSPITAL,
        DOCTOR,
        EventTypeId::v1("blood-test"),
        [Purpose::HealthcareTreatment],
        ["PatientId".to_string(), "Result".to_string()],
    )
    .labeled("doctor-bt", "family doctor access to blood tests")
}

/// Persist a detail message at the gateway and publish its notification.
fn publish_event(w: &mut World, src: u64) -> css_types::GlobalEventId {
    publish_event_about(w, src, mario())
}

fn publish_event_about(
    w: &mut World,
    src: u64,
    person: PersonIdentity,
) -> css_types::GlobalEventId {
    let details = EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Result", FieldValue::Text("negative".into()))
        .with("HivResult", FieldValue::Text("negative".into()));
    w.gateway
        .lock()
        .persist(&DetailMessage {
            src_event_id: SourceEventId(src),
            producer: HOSPITAL,
            details,
        })
        .unwrap();
    let receipt = w
        .controller
        .publish(
            HOSPITAL,
            person,
            "blood test completed".into(),
            EventTypeId::v1("blood-test"),
            w.clock.now(),
            SourceEventId(src),
        )
        .unwrap();
    receipt.global_id
}

#[test]
fn subscription_denied_without_policy() {
    let w = setup();
    let err = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap_err();
    assert_eq!(err, CssError::AccessDenied(DenyReason::NoMatchingPolicy));
    // The denial is audited.
    let denied = w.controller.audit_query(
        &AuditQuery::new()
            .action(AuditAction::Subscribe)
            .denied_only(),
    );
    assert_eq!(denied.len(), 1);
}

#[test]
fn full_two_phase_flow() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();

    let eid = publish_event(&mut w, 1);

    // Phase 1: the doctor receives the notification (who/what/when/where).
    let notifications = sub.drain().unwrap();
    assert_eq!(notifications.len(), 1);
    let n = &notifications[0];
    assert_eq!(n.global_id, eid);
    assert_eq!(n.person.surname, "Rossi");

    // Phase 2: months later, the doctor requests the details.
    w.clock.advance(css_types::Duration::days(60));
    let response = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap();
    assert!(response.is_privacy_safe());
    assert_eq!(
        response.details.get("Result").unwrap(),
        &FieldValue::Text("negative".into())
    );
    // The sensitive HIV field was never in F → blanked.
    assert_eq!(
        response.details.get("HivResult").unwrap(),
        &FieldValue::Empty
    );
}

#[test]
fn detail_request_denied_for_wrong_purpose() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::StatisticalAnalysis,
        )
        .unwrap_err();
    assert_eq!(err, CssError::AccessDenied(DenyReason::PurposeNotAllowed));
}

#[test]
fn detail_request_denied_without_notification() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    // Doctor is authorized but never subscribed nor inquired: publishing
    // happens before any notification reaches them.
    let eid = publish_event(&mut w, 1);
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap_err();
    assert_eq!(err, CssError::AccessDenied(DenyReason::NotNotified));
}

#[test]
fn index_inquiry_counts_as_notification() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let eid = publish_event(&mut w, 1);
    // The doctor inquires the index instead of subscribing.
    let found = w
        .controller
        .inquire_by_person(DOCTOR, PersonId(42))
        .unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].global_id, eid);
    // Now the detail request is allowed.
    let response = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap();
    assert!(response.is_privacy_safe());
}

#[test]
fn inquiry_filters_unauthorized_consumers() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    publish_event(&mut w, 1);
    // Welfare has a contract but no policy for blood tests.
    let found = w
        .controller
        .inquire_by_person(WELFARE, PersonId(42))
        .unwrap();
    assert!(found.is_empty());
}

#[test]
fn expired_policy_blocks_new_requests() {
    let mut w = setup();
    let policy = doctor_policy(&w).valid(css_policy::ValidityWindow::until(
        w.clock.now().plus(css_types::Duration::days(30)),
    ));
    w.controller.define_policy(policy).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    // Within validity: permitted.
    assert!(w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .is_ok());
    // After expiry: denied.
    w.clock.advance(css_types::Duration::days(31));
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap_err();
    assert_eq!(err, CssError::AccessDenied(DenyReason::PolicyExpired));
}

#[test]
fn revoked_policy_blocks_requests() {
    let mut w = setup();
    let policy = doctor_policy(&w);
    let pid = policy.id;
    w.controller.define_policy(policy).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    w.controller.revoke_policy(HOSPITAL, pid).unwrap();
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap_err();
    assert!(matches!(err, CssError::AccessDenied(_)));
}

#[test]
fn opt_out_blocks_publication() {
    let w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    w.controller
        .record_consent(PersonId(42), ConsentScope::All, ConsentDecision::OptOut)
        .unwrap();
    let details = EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Result", FieldValue::Text("negative".into()));
    w.gateway
        .lock()
        .persist(&DetailMessage {
            src_event_id: SourceEventId(1),
            producer: HOSPITAL,
            details,
        })
        .unwrap();
    let err = w
        .controller
        .publish(
            HOSPITAL,
            mario(),
            "blood test".into(),
            EventTypeId::v1("blood-test"),
            w.clock.now(),
            SourceEventId(1),
        )
        .unwrap_err();
    assert!(matches!(err, CssError::ConsentWithheld(_)));
    assert_eq!(w.controller.index_len(), 0);
}

#[test]
fn opt_out_after_publication_blocks_details() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    w.controller
        .record_consent(
            PersonId(42),
            ConsentScope::Producer(HOSPITAL),
            ConsentDecision::OptOut,
        )
        .unwrap();
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap_err();
    assert_eq!(err, CssError::AccessDenied(DenyReason::ConsentWithheld));
}

#[test]
fn laboratory_covered_by_hospital_grant() {
    let mut w = setup();
    // Policy granted to the governance covering a consumer hierarchy:
    // here grant DOCTOR's events? Instead grant to HOSPITAL-side: use
    // WELFARE with a unit.
    let unit = ActorId(40);
    w.controller
        .register_actor(Actor::unit(unit, "Elderly Care Office", WELFARE))
        .unwrap();
    let policy = PrivacyPolicy::new(
        w.controller.next_policy_id(),
        HOSPITAL,
        WELFARE, // granted at the organization level
        EventTypeId::v1("blood-test"),
        [Purpose::SocialAssistance],
        ["PatientId".to_string()],
    );
    w.controller.define_policy(policy).unwrap();
    // The *unit* subscribes: covered by the organization grant.
    let sub = w
        .controller
        .subscribe(unit, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    assert_eq!(sub.drain().unwrap().len(), 1);
    let response = w
        .controller
        .request_details(
            unit,
            EventTypeId::v1("blood-test"),
            eid,
            Purpose::SocialAssistance,
        )
        .unwrap();
    assert_eq!(
        response.details.get("PatientId").unwrap(),
        &FieldValue::Integer(42)
    );
    // Result was not granted to welfare: blanked.
    assert_eq!(response.details.get("Result").unwrap(), &FieldValue::Empty);
}

#[test]
fn policy_validation_rejects_bad_definitions() {
    let w = setup();
    // Unknown field.
    let bad_field = PrivacyPolicy::new(
        w.controller.next_policy_id(),
        HOSPITAL,
        DOCTOR,
        EventTypeId::v1("blood-test"),
        [Purpose::HealthcareTreatment],
        ["Nonexistent".to_string()],
    );
    assert!(matches!(
        w.controller.define_policy(bad_field),
        Err(CssError::Invalid(_))
    ));
    // Foreign producer cannot protect the hospital's class.
    w.controller
        .sign_contract(WELFARE, ParticipantRole::Both)
        .unwrap();
    let foreign = PrivacyPolicy::new(
        w.controller.next_policy_id(),
        WELFARE,
        DOCTOR,
        EventTypeId::v1("blood-test"),
        [Purpose::HealthcareTreatment],
        ["PatientId".to_string()],
    );
    assert!(matches!(
        w.controller.define_policy(foreign),
        Err(CssError::Invalid(_))
    ));
    // Undeclared event class.
    let unknown_type = PrivacyPolicy::new(
        w.controller.next_policy_id(),
        HOSPITAL,
        DOCTOR,
        EventTypeId::v1("urine-test"),
        [Purpose::HealthcareTreatment],
        [],
    );
    assert!(matches!(
        w.controller.define_policy(unknown_type),
        Err(CssError::NotFound(_))
    ));
}

#[test]
fn contracts_gate_every_role() {
    let w = setup();
    // Governance never signed a contract.
    assert!(matches!(
        w.controller
            .subscribe(GOVERNANCE, &EventTypeId::v1("blood-test")),
        Err(CssError::NoContract(_))
    ));
    // Doctor (consumer) cannot declare event classes.
    let schema = EventSchema::new(EventTypeId::v1("visit"), "Visit", DOCTOR);
    assert!(matches!(
        w.controller.declare_event_class(&schema, None),
        Err(CssError::NoContract(_))
    ));
}

#[test]
fn audit_trail_is_complete_and_verifiable() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let eid = publish_event(&mut w, 1);
    let _ = w.controller.request_details(
        DOCTOR,
        EventTypeId::v1("blood-test"),
        eid,
        Purpose::HealthcareTreatment,
    );
    let _ = w.controller.request_details(
        DOCTOR,
        EventTypeId::v1("blood-test"),
        eid,
        Purpose::StatisticalAnalysis,
    );
    w.controller.verify_audit().unwrap();
    // Who accessed Mario's data and why?
    let about_mario = w
        .controller
        .audit_query(&AuditQuery::new().person(PersonId(42)));
    assert!(about_mario.len() >= 3); // publish, delivery, detail requests
    let report = w.controller.audit_report(&AuditQuery::new());
    assert_eq!(report.action_count(AuditAction::Publish), 1);
    assert_eq!(report.action_count(AuditAction::DetailRequest), 2);
    assert_eq!(report.denied, 1);
    // Chain head changes as records accrue.
    let head = w.controller.audit_head();
    w.controller
        .record_consent(PersonId(42), ConsentScope::All, ConsentDecision::OptIn)
        .unwrap();
    assert_ne!(w.controller.audit_head(), head);
}

#[test]
fn wrong_declared_type_rejected() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    // Declare a second class to use as the wrong type.
    let other = EventSchema::new(EventTypeId::v1("discharge"), "Discharge", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    w.controller.declare_event_class(&other, None).unwrap();
    let eid = publish_event(&mut w, 1);
    let err = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("discharge"),
            eid,
            Purpose::HealthcareTreatment,
        )
        .unwrap_err();
    assert!(matches!(err, CssError::Invalid(_)));
}

#[test]
fn multiple_subscribers_fan_out() {
    let mut w = setup();
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let welfare_policy = PrivacyPolicy::new(
        w.controller.next_policy_id(),
        HOSPITAL,
        WELFARE,
        EventTypeId::v1("blood-test"),
        [Purpose::SocialAssistance],
        ["PatientId".to_string()],
    );
    w.controller.define_policy(welfare_policy).unwrap();
    let doc_sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let welfare_sub = w
        .controller
        .subscribe(WELFARE, &EventTypeId::v1("blood-test"))
        .unwrap();
    let receipt_id = publish_event(&mut w, 1);
    assert_eq!(doc_sub.drain().unwrap().len(), 1);
    assert_eq!(welfare_sub.drain().unwrap().len(), 1);
    // Both orgs may now request details; each sees only their fields.
    let doc_resp = w
        .controller
        .request_details(
            DOCTOR,
            EventTypeId::v1("blood-test"),
            receipt_id,
            Purpose::HealthcareTreatment,
        )
        .unwrap();
    let welfare_resp = w
        .controller
        .request_details(
            WELFARE,
            EventTypeId::v1("blood-test"),
            receipt_id,
            Purpose::SocialAssistance,
        )
        .unwrap();
    assert!(doc_resp.allowed_fields.contains("Result"));
    assert!(!welfare_resp.allowed_fields.contains("Result"));
}

#[test]
fn publish_notifies_the_receivers_of_its_class_ascending_and_once() {
    let mut w = setup();
    let blood_test = EventTypeId::v1("blood-test");
    let discharge = EventTypeId::v1("discharge");
    w.controller
        .declare_event_class(
            &EventSchema::new(discharge.clone(), "Discharge", HOSPITAL)
                .field(FieldDef::required("PatientId", FieldKind::Integer)),
            None,
        )
        .unwrap();
    for (consumer, class) in [
        (DOCTOR, &blood_test),
        (WELFARE, &blood_test),
        (DOCTOR, &discharge),
    ] {
        let policy = PrivacyPolicy::new(
            w.controller.next_policy_id(),
            HOSPITAL,
            consumer,
            class.clone(),
            [Purpose::HealthcareTreatment],
            ["PatientId".to_string()],
        );
        w.controller.define_policy(policy).unwrap();
    }
    // Subscribed out of actor order, one consumer twice, and one
    // subscription to another class.
    let _welfare = w.controller.subscribe(WELFARE, &blood_test).unwrap();
    let doctor = w.controller.subscribe(DOCTOR, &blood_test).unwrap();
    let doctor_workers = w
        .controller
        .subscribe_grouped(DOCTOR, &blood_test, "workers")
        .unwrap();
    let _other_class = w.controller.subscribe(DOCTOR, &discharge).unwrap();

    let mut src = 0;
    let mut notified = |w: &mut World, class: &EventTypeId| {
        src += 1;
        w.controller
            .publish(
                HOSPITAL,
                mario(),
                "event".into(),
                class.clone(),
                w.clock.now(),
                SourceEventId(src),
            )
            .unwrap()
            .notified
    };
    assert_eq!(notified(&mut w, &blood_test), [DOCTOR, WELFARE]);
    assert_eq!(notified(&mut w, &discharge), [DOCTOR]);
    // One of a consumer's two subscriptions going away leaves it a
    // receiver; the last one going away removes it.
    w.controller.unsubscribe(doctor).unwrap();
    assert_eq!(notified(&mut w, &blood_test), [DOCTOR, WELFARE]);
    w.controller.unsubscribe(doctor_workers).unwrap();
    assert_eq!(notified(&mut w, &blood_test), [WELFARE]);
    // The Delivery records follow the receipts: 2 + 1 + 2 + 1.
    assert_eq!(
        w.controller
            .audit_query(&AuditQuery::new().action(AuditAction::Delivery))
            .len(),
        6
    );
}

/// Algorithm 1 asks the index once per request: one walk of the shards
/// up to the event's owner, whatever the outcome — and every outcome
/// still passes the stage boundaries it always passed and leaves the
/// audit record it always left.
#[test]
fn detail_request_visits_the_index_once_whatever_the_outcome() {
    const SHARDS: usize = 4;
    let mut w = setup_on(SHARDS);
    w.controller.define_policy(doctor_policy(&w)).unwrap();
    let _sub = w
        .controller
        .subscribe(DOCTOR, &EventTypeId::v1("blood-test"))
        .unwrap();
    let other = EventSchema::new(EventTypeId::v1("discharge"), "Discharge", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    w.controller.declare_event_class(&other, None).unwrap();
    // Citizens enough to land on more than one shard; the last opts out
    // after the event about them was published.
    let events: Vec<_> = (1..=8u64)
        .map(|i| {
            let person = PersonIdentity {
                id: PersonId(100 + i),
                ..mario()
            };
            publish_event_about(&mut w, i, person)
        })
        .collect();
    w.controller
        .record_consent(PersonId(108), ConsentScope::All, ConsentDecision::OptOut)
        .unwrap();
    w.clock.advance(css_types::Duration::millis(5));

    let stages = [
        "pip_resolve",
        "notified_check",
        "consent_check",
        "pdp_evaluate",
        "gateway_retrieve",
        "obligation_filter",
    ];
    let observe = |w: &World| {
        let snap = w.controller.telemetry().snapshot();
        let per_shard: Vec<u64> = (0..SHARDS)
            .map(|i| snap.counter(&format!("shard.{i}.ops")))
            .collect();
        let per_stage: Vec<u64> = stages
            .iter()
            .map(|stage| {
                snap.histogram(&format!("stage.{stage}"))
                    .map_or(0, |h| h.count)
            })
            .collect();
        (snap.counter("shard.ops"), per_shard, per_stage)
    };
    // (requester, declared class, event, purpose, stages passed, error)
    let missing = css_types::GlobalEventId(404);
    let cases: Vec<(
        ActorId,
        &str,
        css_types::GlobalEventId,
        Purpose,
        usize,
        &str,
    )> = vec![
        (
            DOCTOR,
            "blood-test",
            missing,
            Purpose::HealthcareTreatment,
            1,
            "not found: event evt-00000404 not in index",
        ),
        (
            DOCTOR,
            "discharge",
            events[0],
            Purpose::HealthcareTreatment,
            1,
            "invalid: request declares type discharge@v1 but event evt-00000001 is a blood-test@v1",
        ),
        (
            WELFARE,
            "blood-test",
            events[1],
            Purpose::SocialAssistance,
            2,
            "access denied: requester was not notified of the event",
        ),
        (
            DOCTOR,
            "blood-test",
            events[7],
            Purpose::HealthcareTreatment,
            3,
            "access denied: data subject withheld consent",
        ),
        (
            DOCTOR,
            "blood-test",
            events[2],
            Purpose::StatisticalAnalysis,
            4,
            "access denied: purpose not allowed",
        ),
        (
            DOCTOR,
            "blood-test",
            events[3],
            Purpose::HealthcareTreatment,
            6,
            "",
        ),
        (
            DOCTOR,
            "blood-test",
            events[4],
            Purpose::HealthcareTreatment,
            6,
            "",
        ),
        (
            DOCTOR,
            "blood-test",
            events[5],
            Purpose::HealthcareTreatment,
            6,
            "",
        ),
        (
            DOCTOR,
            "blood-test",
            events[6],
            Purpose::HealthcareTreatment,
            6,
            "",
        ),
    ];
    let mut owners = std::collections::BTreeSet::new();
    for (actor, ty, event, purpose, passed, error) in cases {
        let (ops, per_shard, per_stage) = observe(&w);
        let outcome = w
            .controller
            .request_details(actor, EventTypeId::v1(ty), event, purpose);
        let (ops_after, per_shard_after, per_stage_after) = observe(&w);
        assert_eq!(
            outcome.as_ref().map(|_| ()).map_err(ToString::to_string),
            if error.is_empty() {
                Ok(())
            } else {
                Err(error.to_string())
            },
            "{ty} {event}"
        );
        // Shards 0..=owner probed once each, none after it; an event
        // nobody indexed costs one probe of every shard.
        let visits: Vec<u64> = per_shard_after
            .iter()
            .zip(&per_shard)
            .map(|(after, before)| after - before)
            .collect();
        let walked = visits.iter().take_while(|&&v| v == 1).count();
        assert!(
            walked >= 1 && visits[walked..].iter().all(|&v| v == 0),
            "{visits:?}"
        );
        assert_eq!(ops_after - ops, walked as u64);
        if event == missing {
            assert_eq!(walked, SHARDS);
        } else {
            owners.insert(walked - 1);
        }
        // The stages up to the deciding one record their boundary.
        let reached: Vec<u64> = per_stage_after
            .iter()
            .zip(&per_stage)
            .map(|(after, before)| after - before)
            .collect();
        let expected: Vec<u64> = (0..stages.len()).map(|i| u64::from(i < passed)).collect();
        assert_eq!(reached, expected, "{ty} {event}");
    }
    assert!(owners.len() > 1, "events on one shard only: {owners:?}");

    // The four early denials, as the audit log holds them: the bytes
    // the three-lookup PEP wrote for the same requests.
    let denied: Vec<String> = w
        .controller
        .audit_query(&AuditQuery::new().action(AuditAction::DetailRequest))
        .iter()
        .take(4)
        .map(|r| css_xml::to_string(&r.to_xml()))
        .collect();
    assert_eq!(
        denied,
        [
            r#"<AuditRecord seq="22" at="1000005" actor="act-00000003" action="detail-request" event="evt-00000404" eventType="blood-test@v1" purpose="healthcare-treatment" request="req-00000001" outcome="denied" reason="event not found in index"/>"#,
            r#"<AuditRecord seq="23" at="1000005" actor="act-00000003" action="detail-request" event="evt-00000001" eventType="discharge@v1" purpose="healthcare-treatment" request="req-00000002" outcome="denied" reason="declared event type mismatch"/>"#,
            r#"<AuditRecord seq="24" at="1000005" actor="act-00000004" action="detail-request" event="evt-00000002" eventType="blood-test@v1" purpose="social-assistance" request="req-00000003" outcome="denied" reason="requester was not notified of the event"/>"#,
            r#"<AuditRecord seq="25" at="1000005" actor="act-00000003" action="detail-request" event="evt-00000008" eventType="blood-test@v1" person="per-00000108" purpose="healthcare-treatment" request="req-00000004" outcome="denied" reason="data subject withheld consent"/>"#,
        ]
    );
}
