//! Tests of the facade: onboarding, wizard-driven elicitation, the
//! pending-access-request flow, and handle ergonomics.

use std::sync::Arc;

use css_core::prelude::*;
use css_core::{AccessRequestStatus, CssPlatform, MemoryProvider};
use css_types::{Clock, PolicyId, SourceEventId};

struct World {
    platform: CssPlatform<MemoryProvider>,
    clock: SimClock,
    hospital: ActorId,
    doctor: ActorId,
    welfare: ActorId,
}

fn blood_test(hospital: ActorId) -> EventSchema {
    EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
}

fn mario() -> PersonIdentity {
    PersonIdentity {
        id: PersonId(42),
        fiscal_code: "RSSMRA45C12L378Y".into(),
        name: "Mario".into(),
        surname: "Rossi".into(),
    }
}

fn details() -> EventDetails {
    EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Result", FieldValue::Text("negative".into()))
        .with("Notes", FieldValue::Text("fasting".into()))
}

fn setup() -> World {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("Hospital S. Maria").unwrap();
    let doctor = platform.register_organization("Family Doctor").unwrap();
    let welfare = platform.register_organization("Social Welfare").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    platform.join(welfare, Role::Consumer).unwrap();
    platform
        .producer(hospital)
        .unwrap()
        .declare(&blood_test(hospital), Some("health/laboratory"))
        .unwrap();
    World {
        platform,
        clock,
        hospital,
        doctor,
        welfare,
    }
}

/// The doctor may see `PatientId` of blood tests for treatment.
fn grant_doctor(w: &World) -> PolicyId {
    w.platform
        .producer(w.hospital)
        .unwrap()
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "")
        .save()
        .unwrap()[0]
}

#[test]
fn wizard_end_to_end() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    let wizard = producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap();
    assert_eq!(
        wizard.available_fields(),
        vec!["PatientId", "Result", "Notes"]
    );
    let ids = wizard
        .select_fields(["PatientId", "Result"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "treatment access")
        .save()
        .unwrap();
    assert_eq!(ids.len(), 1);

    // Full two-phase flow through the handles.
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    producer
        .publish(mario(), "blood test done", details(), w.clock.now())
        .unwrap();
    let n = sub.next().unwrap().unwrap().message;
    assert_eq!(n.person.name, "Mario");
    assert!(sub.next().unwrap().is_none());
    let response = consumer
        .request_details(&n, Purpose::HealthcareTreatment)
        .unwrap();
    assert!(response.is_privacy_safe());
    assert_eq!(
        response.details.get("Result").unwrap(),
        &FieldValue::Text("negative".into())
    );
    assert_eq!(response.details.get("Notes").unwrap(), &FieldValue::Empty);
}

#[test]
fn wizard_validation_errors() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    let ty = EventTypeId::v1("blood-test");

    // Unknown field.
    assert!(producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["Bogus"])
        .is_err());
    // Unknown consumer.
    assert!(producer
        .policy_wizard(&ty)
        .unwrap()
        .grant_to([ActorId(999)])
        .is_err());
    // Missing consumers.
    let err = producer
        .policy_wizard(&ty)
        .unwrap()
        .for_purposes([Purpose::Audit])
        .labeled("x", "")
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("consumer"));
    // Missing purposes.
    let err = producer
        .policy_wizard(&ty)
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .labeled("x", "")
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("purpose"));
    // Missing label.
    let err = producer
        .policy_wizard(&ty)
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::Audit])
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("label"));
    // Inverted validity.
    let err = producer
        .policy_wizard(&ty)
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::Audit])
        .labeled("x", "")
        .valid_from(Timestamp(100))
        .valid_until(Timestamp(50))
        .save()
        .unwrap_err();
    assert!(err.to_string().contains("validity"));
}

#[test]
fn wizard_multi_consumer_creates_one_policy_each() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    let ids = producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([w.doctor, w.welfare])
        .unwrap()
        .for_purposes([Purpose::Administration])
        .labeled("shared", "")
        .save()
        .unwrap();
    assert_eq!(ids.len(), 2);
    // Both consumers can now subscribe.
    assert!(w
        .platform
        .consumer(w.doctor)
        .unwrap()
        .subscribe(&EventTypeId::v1("blood-test"))
        .is_ok());
    assert!(w
        .platform
        .consumer(w.welfare)
        .unwrap()
        .subscribe(&EventTypeId::v1("blood-test"))
        .is_ok());
}

#[test]
fn pending_access_request_flow() {
    let w = setup();
    let consumer = w.platform.consumer(w.welfare).unwrap();
    let ty = EventTypeId::v1("blood-test");

    // Welfare discovers the class in the catalog but cannot subscribe.
    assert!(consumer.browse_catalog().contains(&ty));
    assert!(matches!(
        consumer.subscribe(&ty),
        Err(CssError::AccessDenied(_))
    ));

    // So it files an access request.
    let req_id = consumer
        .request_access(
            ty.clone(),
            vec![Purpose::SocialAssistance],
            "needed for elderly care coordination",
            w.clock.now(),
        )
        .unwrap();
    assert_eq!(
        consumer.access_request_status(req_id),
        Some(AccessRequestStatus::Pending)
    );

    // The hospital sees it and grants via the prefilled wizard.
    let producer = w.platform.producer(w.hospital).unwrap();
    let pending = producer.pending_requests();
    assert_eq!(pending.len(), 1);
    assert_eq!(pending[0].consumer, w.welfare);
    producer
        .grant_request(req_id)
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .labeled("welfare-grant", "per request")
        .save()
        .unwrap();

    assert_eq!(
        consumer.access_request_status(req_id),
        Some(AccessRequestStatus::Granted)
    );
    // And now subscription works.
    assert!(consumer.subscribe(&ty).is_ok());
    // The queue no longer lists it as pending.
    assert!(producer.pending_requests().is_empty());
}

#[test]
fn deny_access_request() {
    let w = setup();
    let consumer = w.platform.consumer(w.welfare).unwrap();
    let req_id = consumer
        .request_access(
            EventTypeId::v1("blood-test"),
            vec![Purpose::StatisticalAnalysis],
            "",
            w.clock.now(),
        )
        .unwrap();
    let producer = w.platform.producer(w.hospital).unwrap();
    producer.deny_request(req_id).unwrap();
    assert_eq!(
        consumer.access_request_status(req_id),
        Some(AccessRequestStatus::Denied)
    );
    // Cannot grant/deny twice.
    assert!(producer.deny_request(req_id).is_err());
    assert!(producer.grant_request(req_id).is_err());
}

#[test]
fn producer_handle_requires_joining() {
    let mut w = setup();
    let ghost = w.platform.register_organization("Ghost Org").unwrap();
    assert!(matches!(
        w.platform.producer(ghost),
        Err(CssError::NoContract(_))
    ));
    assert!(matches!(
        w.platform.consumer(ghost),
        Err(CssError::NoContract(_))
    ));
}

#[test]
fn unit_consumer_handle_inherits_org_contract() {
    let mut w = setup();
    let office = w
        .platform
        .register_unit(w.welfare, "Elderly Office")
        .unwrap();
    // The unit can get a consumer handle because its organization signed.
    assert!(w.platform.consumer(office).is_ok());
}

#[test]
fn revoke_policy_via_handle() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    let ids = producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("temp", "")
        .save()
        .unwrap();
    let consumer = w.platform.consumer(w.doctor).unwrap();
    assert!(consumer.subscribe(&EventTypeId::v1("blood-test")).is_ok());
    producer.revoke_policy(ids[0]).unwrap();
    assert!(consumer.subscribe(&EventTypeId::v1("blood-test")).is_err());
}

/// A define that reuses an installed policy's id is refused, unaudited:
/// another producer cannot replace the hospital's grant with its own.
#[test]
fn a_define_reusing_another_producers_policy_id_is_refused() {
    let mut w = setup();
    let granted = grant_doctor(&w);
    let clinic = w.platform.register_organization("Clinic").unwrap();
    w.platform.join(clinic, Role::Producer).unwrap();
    let urine = EventTypeId::v1("urine-test");
    let schema = EventSchema::new(urine.clone(), "Urine Test", clinic)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    w.platform
        .producer(clinic)
        .unwrap()
        .declare(&schema, None)
        .unwrap();
    let controller = w.platform.controller();
    let audited = controller.audit_len();
    let reused = PrivacyPolicy::new(
        granted,
        clinic,
        w.welfare,
        urine,
        [Purpose::Administration],
        ["PatientId".to_string()],
    );
    let refused = controller.define_policy(reused);
    assert!(
        matches!(refused, Err(CssError::AlreadyExists(_))),
        "{refused:?}"
    );
    assert_eq!(controller.audit_len(), audited);

    // The hospital's grant stands: its consumer subscribes and reads.
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    w.platform
        .producer(w.hospital)
        .unwrap()
        .publish(mario(), "bt", details(), w.clock.now())
        .unwrap();
    let n = sub.next().unwrap().unwrap().message;
    let response = consumer
        .request_details(&n, Purpose::HealthcareTreatment)
        .unwrap();
    assert_eq!(
        response.details.get("PatientId").unwrap(),
        &FieldValue::Integer(42)
    );
}

/// A define that reuses a revoked policy's id does not bring it back.
#[test]
fn a_define_reusing_a_revoked_policy_id_leaves_it_revoked() {
    let w = setup();
    let revoked = grant_doctor(&w);
    w.platform
        .producer(w.hospital)
        .unwrap()
        .revoke_policy(revoked)
        .unwrap();
    let controller = w.platform.controller();
    let audited = controller.audit_len();
    let blood = EventTypeId::v1("blood-test");
    let reused = PrivacyPolicy::new(
        revoked,
        w.hospital,
        w.doctor,
        blood.clone(),
        [Purpose::HealthcareTreatment],
        ["PatientId".to_string()],
    );
    let refused = controller.define_policy(reused);
    assert!(
        matches!(refused, Err(CssError::AlreadyExists(_))),
        "{refused:?}"
    );
    assert_eq!(controller.audit_len(), audited);
    assert!(!controller.is_authorized_consumer(w.doctor, &blood));
    assert!(w
        .platform
        .consumer(w.doctor)
        .unwrap()
        .subscribe(&blood)
        .is_err());
}

#[test]
fn consent_through_platform() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_all_fields()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("all", "")
        .save()
        .unwrap();
    w.platform
        .record_consent(PersonId(42), ConsentScope::All, ConsentDecision::OptOut)
        .unwrap();
    let err = producer
        .publish(mario(), "blood test", details(), w.clock.now())
        .unwrap_err();
    assert!(matches!(err, CssError::ConsentWithheld(_)));
    // The gateway persisted the details (source-local), but nothing was
    // published platform-wide.
    assert_eq!(producer.gateway_stored_count(), 1);
}

#[test]
fn audit_accessible_through_platform() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_all_fields()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("all", "")
        .save()
        .unwrap();
    producer
        .publish(mario(), "blood test", details(), w.clock.now())
        .unwrap();
    w.platform.verify_audit().unwrap();
    let report = w
        .platform
        .audit_report(&css_audit::AuditQuery::new())
        .unwrap();
    assert!(report.total >= 3); // contracts, policy change, publish
}

#[test]
fn on_disk_platform_restarts_with_policies() {
    let dir = std::env::temp_dir().join(format!("css-platform-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = SimClock::starting_at(Timestamp(5_000));
    let (hospital, doctor, policy_id);
    {
        let mut platform = CssPlatform::on_disk(&dir, Arc::new(clock.clone())).unwrap();
        hospital = platform.register_organization("Hospital").unwrap();
        doctor = platform.register_organization("Doctor").unwrap();
        platform.join(hospital, Role::Producer).unwrap();
        platform.join(doctor, Role::Consumer).unwrap();
        let producer = platform.producer(hospital).unwrap();
        producer.declare(&blood_test(hospital), None).unwrap();
        policy_id = producer
            .policy_wizard(&EventTypeId::v1("blood-test"))
            .unwrap()
            .select_fields(["PatientId"])
            .unwrap()
            .grant_to([doctor])
            .unwrap()
            .for_purposes([Purpose::HealthcareTreatment])
            .labeled("durable", "")
            .save()
            .unwrap()[0];
        producer
            .publish(mario(), "event", details(), clock.now())
            .unwrap();
        platform.verify_audit().unwrap();
    }
    // A fresh platform over the same directory holds the policy at
    // open, beside a verifiable audit log...
    let platform = CssPlatform::on_disk(&dir, Arc::new(clock)).unwrap();
    assert_eq!(platform.controller().policy_count(), 1);
    // ...whose define record carries it in XACML form.
    let defines = platform
        .controller()
        .audit_query(&css_audit::AuditQuery::new().action(css_audit::AuditAction::PolicyChange))
        .unwrap();
    assert_eq!(defines.len(), 1);
    let stored = css_policy::xacml::from_xacml_text(&defines[0].detail).unwrap();
    assert_eq!(stored.id, policy_id);
    assert_eq!(stored.label, "durable");
    assert!(stored.fields.contains("PatientId"));
    platform.verify_audit().unwrap();
    assert!(
        platform
            .audit_report(&css_audit::AuditQuery::new())
            .unwrap()
            .total
            >= 3
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscription_next_wait_wakes_on_publish() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_all_fields()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("wait", "")
        .save()
        .unwrap();
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    // Empty queue: times out quickly.
    assert!(sub
        .next_wait(std::time::Duration::from_millis(20))
        .unwrap()
        .is_none());
    // Publish from another thread wakes the waiter.
    let clock = w.clock.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        producer
            .publish(mario(), "late event", details(), clock.now())
            .unwrap();
    });
    let got = sub
        .next_wait(std::time::Duration::from_secs(5))
        .unwrap()
        .expect("woken by publish");
    assert_eq!(got.message.person.id, PersonId(42));
    handle.join().unwrap();
}

#[test]
fn catalog_browsing_by_domain_and_schema_visibility() {
    let w = setup();
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let health = consumer.browse_by_domain("health");
    assert_eq!(health, vec![EventTypeId::v1("blood-test")]);
    assert!(consumer.browse_by_domain("social").is_empty());
    // The structure of a class is visible even without any policy —
    // only the data is protected, not the catalog (§5).
    let schema = consumer
        .class_schema(&EventTypeId::v1("blood-test"))
        .unwrap();
    assert!(schema.field_def("Result").is_some());
    assert!(consumer.class_schema(&EventTypeId::v1("nope")).is_err());
}

#[test]
fn schema_evolution_to_v2_keeps_both_versions_usable() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    // Policy for v1.
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("v1", "")
        .save()
        .unwrap();
    // Declare v2 with an extra field; the catalog deprecates v1 but
    // keeps it resolvable.
    let v2 = EventSchema::new(
        EventTypeId::new("blood-test", 2),
        "Blood Test v2",
        w.hospital,
    )
    .field(FieldDef::required("PatientId", FieldKind::Integer))
    .field(FieldDef::required("Result", FieldKind::Text).sensitive())
    .field(FieldDef::optional("LabCode", FieldKind::Text));
    producer.declare(&v2, Some("health/laboratory")).unwrap();

    let consumer = w.platform.consumer(w.doctor).unwrap();
    // v1 subscription still works (old policy), v2 needs its own policy.
    assert!(consumer.subscribe(&EventTypeId::v1("blood-test")).is_ok());
    assert!(consumer
        .subscribe(&EventTypeId::new("blood-test", 2))
        .is_err());
    producer
        .policy_wizard(&EventTypeId::new("blood-test", 2))
        .unwrap()
        .select_fields(["PatientId", "LabCode"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("v2", "")
        .save()
        .unwrap();
    let sub_v2 = consumer
        .subscribe(&EventTypeId::new("blood-test", 2))
        .unwrap();

    // Publish a v2 event and chase its details: versioned policies apply.
    producer
        .publish(
            mario(),
            "v2 blood test",
            EventDetails::new(EventTypeId::new("blood-test", 2))
                .with("PatientId", FieldValue::Integer(42))
                .with("Result", FieldValue::Text("negative".into()))
                .with("LabCode", FieldValue::Text("LAB-7".into())),
            w.clock.now(),
        )
        .unwrap();
    let n = sub_v2.next().unwrap().unwrap().message;
    let resp = consumer
        .request_details(&n, Purpose::HealthcareTreatment)
        .unwrap();
    assert_eq!(
        resp.details.get("LabCode").unwrap(),
        &FieldValue::Text("LAB-7".into())
    );
    // Result is sensitive and not in the v2 grant.
    assert!(resp.details.get("Result").unwrap().is_empty());
}

#[test]
fn builder_configures_clock_identity_and_shared_telemetry() {
    let clock = SimClock::starting_at(Timestamp(9_000));
    let mut platform = CssPlatformBuilder::new()
        .clock(Arc::new(clock.clone()))
        .build()
        .unwrap();
    // A harness shares the platform's own registry.
    let registry = platform.metrics().clone();
    platform.enable_identity_enforcement();
    assert_eq!(platform.clock().now(), Timestamp(9_000));

    let hospital = platform.register_organization("Hospital").unwrap();
    platform.join(hospital, Role::Producer).unwrap();

    // Identity enforcement is on before anyone joins: plain handles refuse.
    assert!(matches!(
        platform.producer(hospital),
        Err(CssError::CredentialRequired(_))
    ));
    let cred = platform.issue_credential(hospital).unwrap();
    assert!(platform.producer_with_credential(&cred).is_ok());

    // The shared registry is the one the platform records into
    // (joining as producer instruments a gateway backend).
    assert!(registry
        .snapshot()
        .histograms
        .contains_key("storage.append"));
}

#[test]
fn join_both_widens() {
    let mut w = setup();
    let clinic = w.platform.register_organization("Clinic").unwrap();
    w.platform.join(clinic, Role::Both).unwrap();
    // Producer side: gateway stood up; consumer side: contract signed.
    assert!(w.platform.producer(clinic).is_ok());
    assert!(w.platform.consumer(clinic).is_ok());

    // Consumer-only joins never create a gateway.
    assert!(w.platform.producer(w.doctor).is_err());
}

#[test]
fn telemetry_gauges_report_platform_state() {
    let w = setup();
    let producer = w.platform.producer(w.hospital).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([w.doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("t", "")
        .save()
        .unwrap();
    producer
        .publish(mario(), "bt", details(), w.clock.now())
        .unwrap();

    let controller = w.platform.controller();
    let telemetry = w.platform.telemetry();
    assert_eq!(telemetry.gauge("platform.indexed_events"), 1);
    assert_eq!(
        telemetry.gauge("platform.indexed_events") as usize,
        controller.index_len()
    );
    assert_eq!(
        telemetry.gauge("platform.audit_records") as usize,
        controller.audit_len()
    );
    assert_eq!(telemetry.gauge("platform.policies"), 1);
    assert_eq!(
        telemetry.gauge("platform.actors") as usize,
        controller.actors().len()
    );
    assert_eq!(
        telemetry.gauge("platform.pending_requests") as usize,
        w.platform.pending_requests().len()
    );
    assert_eq!(
        telemetry.counter("bus.published"),
        controller.bus_stats().published
    );
    assert_eq!(telemetry.counter("controller.published"), 1);
    assert!(telemetry.histogram("publish.total").is_some());
}

/// A consumer's worker fleet on `subscribe_grouped` splits the stream
/// (each notification to exactly one worker), while a solo subscriber
/// still sees everything — and the workers can nack a notification to
/// hand it to a peer.
#[test]
fn grouped_subscription_splits_the_stream() {
    let w = setup();
    grant_doctor(&w);
    let producer = w.platform.producer(w.hospital).unwrap();

    let consumer = w.platform.consumer(w.doctor).unwrap();
    let solo = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    let worker_a = consumer
        .subscribe_grouped(&EventTypeId::v1("blood-test"), "triage")
        .unwrap();
    let worker_b = consumer
        .subscribe_grouped(&EventTypeId::v1("blood-test"), "triage")
        .unwrap();

    for _ in 0..10 {
        producer
            .publish(mario(), "bt", details(), w.clock.now())
            .unwrap();
    }

    // The group partitions the 10 notifications across its members...
    let mut group_total = 0;
    loop {
        let mut progressed = false;
        for worker in [&worker_a, &worker_b] {
            if let Some(d) = worker.next().unwrap() {
                group_total += 1;
                let _ = d;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    assert_eq!(group_total, 10);
    // ...while the solo subscription received every one of them.
    assert_eq!(solo.drain().unwrap().len(), 10);
}

/// A worker that cannot process a notification nacks it; a peer in the
/// same group picks it up on the next attempt.
#[test]
fn grouped_subscription_redelivers_nacked_work_to_a_peer() {
    let w = setup();
    grant_doctor(&w);
    let producer = w.platform.producer(w.hospital).unwrap();

    let consumer = w.platform.consumer(w.doctor).unwrap();
    let worker_a = consumer
        .subscribe_grouped(&EventTypeId::v1("blood-test"), "triage")
        .unwrap();
    let worker_b = consumer
        .subscribe_grouped(&EventTypeId::v1("blood-test"), "triage")
        .unwrap();
    producer
        .publish(mario(), "bt", details(), w.clock.now())
        .unwrap();

    let first = worker_a.next_unacked().unwrap().expect("delivered");
    assert_eq!(first.attempt, 1);
    worker_a.nack(first.delivery_id).unwrap();

    let second = worker_b
        .next_unacked()
        .unwrap()
        .expect("redelivered to peer");
    assert_eq!(second.attempt, 2);
    assert_eq!(second.message.person.id, PersonId(42));
    worker_b.ack(second.delivery_id).unwrap();
    assert_eq!(worker_a.in_flight().unwrap(), 0);
}

/// The queue bound users meet: a subscription holds 1 024 undelivered
/// notifications; the publish that finds it full fails whole — nothing
/// indexed, nothing audited, its idempotency key not spent.
#[test]
fn a_full_subscription_rejects_the_publish_whole() {
    let w = setup();
    grant_doctor(&w);
    let producer = w.platform.producer(w.hospital).unwrap();
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    for _ in 0..1024 {
        producer
            .publish(mario(), "bt", details(), w.clock.now())
            .unwrap();
    }
    let controller = w.platform.controller();
    let (indexed, audited) = (controller.index_len(), controller.audit_len());
    let rejected = producer.publish(mario(), "bt", details(), w.clock.now());
    assert!(matches!(rejected, Err(CssError::Bus(_))), "{rejected:?}");
    assert_eq!(controller.index_len(), indexed);
    assert_eq!(controller.audit_len(), audited);
    assert_eq!(sub.backlog().unwrap(), 1024);

    // Drained, the source event the bus turned away (the handle's
    // 1 025th) publishes: the rejection did not record it as seen.
    assert_eq!(sub.drain().unwrap().len(), 1024);
    let receipt = controller
        .publish(
            w.hospital,
            mario(),
            "bt".into(),
            EventTypeId::v1("blood-test"),
            w.clock.now(),
            SourceEventId(1025),
        )
        .unwrap();
    assert_eq!(receipt.notified, vec![w.doctor]);
    assert_eq!(sub.backlog().unwrap(), 1);
}

/// The attempt budget users meet: the third nack dead-letters the
/// notification instead of queueing it a fourth time.
#[test]
fn three_nacks_dead_letter_the_notification() {
    let w = setup();
    grant_doctor(&w);
    let consumer = w.platform.consumer(w.doctor).unwrap();
    let worker = consumer
        .subscribe_grouped(&EventTypeId::v1("blood-test"), "triage")
        .unwrap();
    let receipt = w
        .platform
        .producer(w.hospital)
        .unwrap()
        .publish(mario(), "bt", details(), w.clock.now())
        .unwrap();
    for attempt in 1..=3 {
        let d = worker.next_unacked().unwrap().expect("delivered");
        assert_eq!(d.attempt, attempt);
        worker.nack(d.delivery_id).unwrap();
    }
    assert!(worker.next_unacked().unwrap().is_none());
    assert_eq!(worker.backlog().unwrap(), 0);
    assert_eq!(worker.in_flight().unwrap(), 0);

    let dead = w.platform.controller().bus_dead_letters();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].attempts, 3);
    assert_eq!(dead[0].group, Some(format!("{}:triage", w.doctor)));
    assert_eq!(dead[0].message.global_id, receipt.global_id);
}

/// A declare refused for its care domain keeps nothing: a retry with a
/// valid domain declares the class, and it can be subscribed to and
/// published on.
#[test]
fn a_declare_refused_for_its_domain_can_be_retried() {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    let producer = platform.producer(hospital).unwrap();
    let refused = producer.declare(&blood_test(hospital), Some("health/surgery"));
    assert!(matches!(refused, Err(CssError::NotFound(_))));
    producer
        .declare(&blood_test(hospital), Some("health/laboratory"))
        .unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))
        .unwrap()
        .select_fields(["PatientId"])
        .unwrap()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "")
        .save()
        .unwrap();
    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("blood-test")).unwrap();
    producer
        .publish(mario(), "bt", details(), clock.now())
        .unwrap();
    let delivered = sub.next().unwrap().expect("routed to the subscriber");
    assert_eq!(delivered.message.person.id, PersonId(42));
    assert_eq!(
        consumer.browse_by_domain("health"),
        vec![EventTypeId::v1("blood-test")]
    );
}
