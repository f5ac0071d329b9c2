//! Quickstart: one producer, one consumer, the two-phase protocol.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The flow mirrors the paper's running example: a hospital publishes a
//! blood-test event; the family doctor receives the *notification*
//! (who/what/when/where, nothing sensitive), then explicitly requests
//! the *details* for a stated purpose, and receives only the fields the
//! hospital's privacy policy allows.

use css::prelude::*;

fn main() -> CssResult<()> {
    // 1. Assemble a platform (in-memory, system clock).
    let mut platform = CssPlatform::in_memory();
    let hospital = platform.register_organization("Hospital S. Maria")?;
    let doctor = platform.register_organization("Family Doctor Bianchi")?;
    platform.join(hospital, Role::Producer)?;
    platform.join(doctor, Role::Consumer)?;

    // 2. The hospital declares a class of events (its "XSD" in the
    //    catalog).
    let schema = EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
        .field(FieldDef::optional("HivResult", FieldKind::Text).sensitive());
    let producer = platform.producer(hospital)?;
    producer.declare(&schema, Some("health/laboratory"))?;

    // 3. The hospital authors a privacy policy through the elicitation
    //    wizard: the doctor may see PatientId and Result — but never the
    //    HIV field — for healthcare treatment.
    producer
        .policy_wizard(&EventTypeId::v1("blood-test"))?
        .select_fields(["PatientId", "Result"])?
        .grant_to([doctor])?
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-blood-tests", "treatment access, HIV obfuscated")
        .save()?;

    // 4. The doctor subscribes (allowed only because the policy exists).
    let consumer = platform.consumer(doctor)?;
    let subscription = consumer.subscribe(&EventTypeId::v1("blood-test"))?;

    // 5. The hospital publishes an event. Details are persisted at its
    //    local gateway; only the notification travels.
    let mario = PersonIdentity {
        id: PersonId(42),
        fiscal_code: "RSSMRA45C12L378Y".into(),
        name: "Mario".into(),
        surname: "Rossi".into(),
    };
    let details = EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Result", FieldValue::Text("negative".into()))
        .with("HivResult", FieldValue::Text("negative".into()));
    let now = platform.clock().now();
    producer.publish(mario, "blood test completed", details, now)?;

    // 6. Phase 1 — the doctor receives the notification.
    let notification = subscription.next()?.expect("notification routed").message;
    println!(
        "notification: {}",
        css_xml::to_string_pretty(&notification.to_xml())
    );

    // 7. Phase 2 — the doctor requests the details, stating the purpose.
    let response = consumer.request_details(&notification, Purpose::HealthcareTreatment)?;
    println!("allowed fields: {:?}", response.allowed_fields);
    println!(
        "Result = {:?}, HivResult = {:?} (blanked by policy)",
        response.details.get("Result").unwrap().render(),
        response.details.get("HivResult").unwrap().render(),
    );
    assert!(response.is_privacy_safe());

    // A request for a non-authorized purpose is denied.
    let denied = consumer.request_details(&notification, Purpose::StatisticalAnalysis);
    println!("statistics request -> {denied:?}");
    assert!(denied.is_err());

    // 8. Everything is on the tamper-evident audit log.
    platform.verify_audit()?;
    let report = platform.audit_report(&css::audit::AuditQuery::new())?;
    println!(
        "audit: {} records, {} denied, head intact",
        report.total, report.denied
    );

    // 9. The platform timed every hot-path stage along the way.
    let telemetry = platform.telemetry();
    assert!(telemetry.counter("controller.published") >= 1);
    assert!(telemetry.counter("bus.published") >= 1);
    assert!(telemetry.histogram("stage.pdp_evaluate").is_some());
    println!(
        "\ntelemetry (the GET /metrics body):\n{}",
        css::health::render_prometheus(&telemetry)
    );
    Ok(())
}
