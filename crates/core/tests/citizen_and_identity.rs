//! Tests for the Section 7 extensions: citizen-facing access (PHR view,
//! consent control, subject audit trail) and credential-based identity
//! management.

use std::sync::Arc;

use css_audit::AuditAction;
use css_core::prelude::*;
use css_core::{CssPlatform, MemoryProvider};
use css_types::Clock;

struct World {
    platform: CssPlatform<MemoryProvider>,
    clock: SimClock,
    hospital: ActorId,
    doctor: ActorId,
}

fn schema(hospital: ActorId) -> EventSchema {
    EventSchema::new(EventTypeId::v1("visit"), "Visit", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
}

fn anna() -> PersonIdentity {
    PersonIdentity {
        id: PersonId(9),
        fiscal_code: "NNA123".into(),
        name: "Anna".into(),
        surname: "Bianchi".into(),
    }
}

fn setup() -> World {
    let clock = SimClock::starting_at(Timestamp(10_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema(hospital), None).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("visit"))
        .unwrap()
        .select_all_fields()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-visits", "")
        .save()
        .unwrap();
    World {
        platform,
        clock,
        hospital,
        doctor,
    }
}

fn publish(w: &World, n: u64) {
    let producer = w.platform.producer(w.hospital).unwrap();
    for i in 0..n {
        producer
            .publish(
                anna(),
                format!("visit {i}"),
                EventDetails::new(EventTypeId::v1("visit"))
                    .with("PatientId", FieldValue::Integer(9))
                    .with("Notes", FieldValue::Text("checkup".into())),
                w.clock.now().plus(Duration::minutes(i)),
            )
            .unwrap();
    }
}

#[test]
fn citizen_sees_full_profile_regardless_of_policies() {
    let w = setup();
    publish(&w, 5);
    let citizen = w.platform.citizen(PersonId(9));
    let profile = citizen.my_profile().unwrap();
    assert_eq!(profile.len(), 5);
    // Timeline order.
    let times: Vec<_> = profile.iter().map(|n| n.occurred_at).collect();
    let mut sorted = times.clone();
    sorted.sort();
    assert_eq!(times, sorted);
    // Another citizen sees nothing of Anna's.
    assert!(w
        .platform
        .citizen(PersonId(777))
        .my_profile()
        .unwrap()
        .is_empty());
}

#[test]
fn citizen_audit_trail_lists_consumers_and_purposes() {
    let w = setup();
    publish(&w, 1);
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let seen = consumer.inquire_by_person(PersonId(9)).unwrap();
    consumer
        .request_details(&seen[0], Purpose::HealthcareTreatment)
        .unwrap();

    let citizen = w.platform.citizen(PersonId(9));
    let trail = citizen.who_accessed_my_data().unwrap();
    let detail_requests: Vec<_> = trail
        .iter()
        .filter(|r| r.action == AuditAction::DetailRequest)
        .collect();
    assert_eq!(detail_requests.len(), 1);
    assert_eq!(detail_requests[0].actor, w.doctor);
    assert_eq!(
        detail_requests[0].purpose,
        Some(Purpose::HealthcareTreatment)
    );
    // The subject-access lookups themselves are audited.
    let subject_views = w
        .platform
        .audit_query(&css_audit::AuditQuery::new().action(AuditAction::SubjectAccess))
        .unwrap();
    assert!(!subject_views.is_empty());
}

#[test]
fn citizen_opt_out_and_back_in() {
    let w = setup();
    let citizen = w.platform.citizen(PersonId(9));
    citizen.opt_out(ConsentScope::All).unwrap();
    let producer = w.platform.producer(w.hospital).unwrap();
    let publish_result = producer.publish(
        anna(),
        "visit",
        EventDetails::new(EventTypeId::v1("visit")).with("PatientId", FieldValue::Integer(9)),
        w.clock.now(),
    );
    assert!(matches!(publish_result, Err(CssError::ConsentWithheld(_))));
    // Opting back in restores the flow.
    w.clock.advance(Duration::minutes(1));
    citizen.opt_in(ConsentScope::All).unwrap();
    publish(&w, 1);
    assert_eq!(citizen.my_profile().unwrap().len(), 1);
}

#[test]
fn identity_enforcement_gates_handles() {
    let mut w = setup();
    let cred = w.platform.issue_credential(w.doctor).unwrap();
    let producer_cred = w.platform.issue_credential(w.hospital).unwrap();
    w.platform.enable_identity_enforcement();

    // Plain handles are refused.
    assert!(matches!(
        w.platform.consumer(w.doctor),
        Err(CssError::CredentialRequired(_))
    ));
    assert!(matches!(
        w.platform.producer(w.hospital),
        Err(CssError::CredentialRequired(_))
    ));

    // Credentialed handles work.
    let consumer = w.platform.consumer_with_credential(&cred).unwrap();
    assert_eq!(consumer.actor(), w.doctor);
    let producer = w.platform.producer_with_credential(&producer_cred).unwrap();
    assert_eq!(producer.actor(), w.hospital);

    // Forged credentials fail.
    let mut forged = cred.clone();
    forged.tag[5] ^= 0x10;
    assert!(w.platform.consumer_with_credential(&forged).is_err());

    // Revocation takes effect at handle acquisition.
    w.platform.revoke_credential(cred.serial);
    assert!(w.platform.consumer_with_credential(&cred).is_err());
}

#[test]
fn credential_requires_membership() {
    let mut w = setup();
    let ghost = w.platform.register_organization("Ghost").unwrap();
    assert!(matches!(
        w.platform.issue_credential(ghost),
        Err(CssError::NoContract(_))
    ));
}

#[test]
fn credential_rotation_supersedes_old() {
    let mut w = setup();
    let old = w.platform.issue_credential(w.doctor).unwrap();
    let new = w.platform.issue_credential(w.doctor).unwrap();
    w.platform.enable_identity_enforcement();
    assert!(w.platform.consumer_with_credential(&old).is_err());
    assert!(w.platform.consumer_with_credential(&new).is_ok());
}

#[test]
fn time_window_inquiry() {
    let w = setup();
    publish(&w, 10); // events at now + 0..9 minutes
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let start = w.clock.now();
    let window = consumer
        .inquire_between(
            start.plus(Duration::minutes(2)),
            start.plus(Duration::minutes(5)),
        )
        .unwrap();
    assert_eq!(window.len(), 4); // minutes 2,3,4,5
    let all = consumer
        .inquire_between(Timestamp::EPOCH, start.plus(Duration::days(1)))
        .unwrap();
    assert_eq!(all.len(), 10);
}
