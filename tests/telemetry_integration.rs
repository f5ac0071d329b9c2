//! Telemetry agrees with the audit log: after an end-to-end flow the
//! `telemetry()` snapshot's stage counts match what `audit_query`
//! returns record-by-record, and every hot path left latency samples.

use std::sync::Arc;

use css::audit::{AuditAction, AuditQuery};
use css::prelude::*;

const PUBLISHES: u64 = 5;
const PERMITS: u64 = 3;
const DENIES: u64 = 2;

fn person(i: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(i),
        fiscal_code: format!("FC{i:014}"),
        name: "P".into(),
        surname: format!("S{i}"),
    }
}

#[test]
fn telemetry_matches_audit_after_end_to_end_flow() {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();

    let ty = EventTypeId::v1("blood-test");
    let schema = EventSchema::new(ty.clone(), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive());
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema, None).unwrap();
    producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["PatientId", "Result"])
        .unwrap()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("doctor-bt", "")
        .save()
        .unwrap();

    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&ty).unwrap();

    let mut notifications = Vec::new();
    for i in 0..PUBLISHES {
        let details = EventDetails::new(ty.clone())
            .with("PatientId", FieldValue::Integer(i as i64))
            .with("Result", FieldValue::Text("negative".into()));
        producer
            .publish(person(i), "bt", details, clock.now())
            .unwrap();
        notifications.push(sub.next().unwrap().expect("notification delivered").message);
    }

    for n in notifications.iter().take(PERMITS as usize) {
        consumer
            .request_details(n, Purpose::HealthcareTreatment)
            .unwrap();
    }
    for n in notifications.iter().take(DENIES as usize) {
        // Purpose outside the policy: denied at the PDP.
        consumer
            .request_details(n, Purpose::StatisticalAnalysis)
            .unwrap_err();
    }

    let telemetry = platform.telemetry();

    // Publish pipeline vs audit Publish records.
    let published = platform
        .audit_query(&AuditQuery::new().action(AuditAction::Publish))
        .unwrap();
    assert_eq!(published.len() as u64, PUBLISHES);
    assert_eq!(telemetry.counter("controller.published"), PUBLISHES);
    for stage in ["consent_gate", "route", "index", "audit", "total"] {
        let h = telemetry
            .histogram(&format!("publish.{stage}"))
            .unwrap_or_else(|| panic!("publish.{stage} missing"));
        assert_eq!(h.count, PUBLISHES, "publish.{stage} count");
    }

    // Detail requests vs audit DetailRequest records, permit/deny split.
    let detail = platform
        .audit_query(&AuditQuery::new().action(AuditAction::DetailRequest))
        .unwrap();
    assert_eq!(detail.len() as u64, PERMITS + DENIES);
    let audited_permits = detail.iter().filter(|r| r.outcome.is_permitted()).count() as u64;
    assert_eq!(audited_permits, PERMITS);
    assert_eq!(
        telemetry.counter("controller.detail_requests"),
        PERMITS + DENIES
    );
    assert_eq!(telemetry.counter("controller.detail_permits"), PERMITS);
    assert_eq!(telemetry.counter("controller.detail_denies"), DENIES);

    // Every request reached the PDP (the denies are purpose denials);
    // only permits went on through retrieval and filtering.
    for stage in [
        "pip_resolve",
        "notified_check",
        "consent_check",
        "pdp_evaluate",
    ] {
        let h = telemetry.histogram(&format!("stage.{stage}")).unwrap();
        assert_eq!(h.count, PERMITS + DENIES, "stage.{stage} count");
    }
    for stage in ["gateway_retrieve", "obligation_filter"] {
        let h = telemetry.histogram(&format!("stage.{stage}")).unwrap();
        assert_eq!(h.count, PERMITS, "stage.{stage} count");
    }
    // Denied requests abandon the stage timer mid-flight; its drop
    // guard still records the elapsed total (plus a `partial` sample
    // for the stage in progress), so `stage.total` covers every
    // request, permitted or not.
    assert_eq!(
        telemetry.histogram("stage.total").unwrap().count,
        PERMITS + DENIES,
        "stage.total count"
    );
    assert_eq!(
        telemetry.histogram("stage.partial").unwrap().count,
        DENIES,
        "stage.partial count"
    );

    // Bus lifecycle: one fanout per publish, all delivered and acked.
    assert_eq!(telemetry.counter("bus.published"), PUBLISHES);
    assert_eq!(telemetry.counter("bus.fanned_out"), PUBLISHES);
    assert_eq!(telemetry.histogram("bus.deliver").unwrap().count, PUBLISHES);
    assert_eq!(telemetry.histogram("bus.ack").unwrap().count, PUBLISHES);
    assert_eq!(telemetry.gauge("bus.queue_depth"), 0);

    // Gateway (Algorithm 2): every publish persisted, every permit
    // produced a filtered response.
    assert_eq!(telemetry.counter("gateway.persisted"), PUBLISHES);
    assert_eq!(telemetry.counter("gateway.responses"), PERMITS);

    // Storage backends saw traffic, and the state gauges agree with
    // the audit log itself.
    assert!(telemetry.counter("storage.appended_bytes") > 0);
    let all = platform.audit_query(&AuditQuery::new()).unwrap();
    assert_eq!(
        telemetry.gauge("platform.audit_records") as usize,
        all.len()
    );
    assert_eq!(telemetry.gauge("platform.indexed_events") as u64, PUBLISHES);

    // The Prometheus exposition renders every metric family.
    let text = css::health::render_prometheus(&telemetry);
    for needle in [
        "css_controller_published_total",
        "css_platform_audit_records",
        "css_stage_pdp_evaluate_ns_bucket",
    ] {
        assert!(text.contains(needle), "exposition missing {needle}");
    }

    // The stage handles are held, not looked up: that registers no
    // histogram a pass did not record into, and loses none.
    let names = |prefix: &str| -> Vec<&str> {
        telemetry
            .histograms
            .keys()
            .filter(|name| name.starts_with(prefix))
            .map(String::as_str)
            .collect()
    };
    assert_eq!(
        names("publish."),
        [
            "publish.audit",
            "publish.consent_gate",
            "publish.index",
            "publish.route",
            "publish.total"
        ]
    );
    assert_eq!(
        names("stage."),
        [
            "stage.audit",
            "stage.consent_check",
            "stage.gateway_retrieve",
            "stage.notified_check",
            "stage.obligation_filter",
            "stage.partial",
            "stage.pdp_evaluate",
            "stage.pip_resolve",
            "stage.total"
        ]
    );

    // Each early exit records the stages it reached, one
    // `stage.partial` and one `stage.total`.
    let clinic = platform.register_organization("Clinic").unwrap();
    platform.join(clinic, Role::Consumer).unwrap();
    let stages = || -> Vec<(String, u64)> {
        let telemetry = platform.telemetry();
        let stage = telemetry.histograms.iter();
        stage
            .filter(|(name, _)| name.starts_with("stage."))
            .map(|(name, h)| (name["stage.".len()..].to_string(), h.count))
            .collect()
    };
    let reached = |deny: &dyn Fn() -> CssError| -> (CssError, Vec<String>) {
        let before = stages();
        let err = deny();
        let after = stages();
        assert_eq!(after.len(), before.len(), "no stage registered anew");
        let grew = before
            .iter()
            .zip(&after)
            .filter_map(|((name, was), (_, is))| {
                assert!(is - was <= 1, "{name}: {was} -> {is}");
                (is > was).then(|| name.clone())
            });
        (err, grew.collect())
    };
    let (err, grew) = reached(&|| {
        consumer
            .request_details_by_id(
                ty.clone(),
                GlobalEventId(9_999),
                Purpose::HealthcareTreatment,
            )
            .unwrap_err()
    });
    assert!(matches!(err, CssError::NotFound(_)), "{err}");
    assert_eq!(grew, ["partial", "pip_resolve", "total"]);
    let (err, grew) = reached(&|| {
        let clinic = platform.consumer(clinic).unwrap();
        clinic
            .request_details(&notifications[0], Purpose::HealthcareTreatment)
            .unwrap_err()
    });
    assert!(matches!(
        err,
        CssError::AccessDenied(DenyReason::NotNotified)
    ));
    assert_eq!(grew, ["notified_check", "partial", "pip_resolve", "total"]);
    platform
        .citizen(PersonId(0))
        .opt_out(ConsentScope::All)
        .unwrap();
    let (err, grew) = reached(&|| {
        consumer
            .request_details(&notifications[0], Purpose::HealthcareTreatment)
            .unwrap_err()
    });
    assert!(matches!(
        err,
        CssError::AccessDenied(DenyReason::ConsentWithheld)
    ));
    assert_eq!(
        grew,
        [
            "consent_check",
            "notified_check",
            "partial",
            "pip_resolve",
            "total"
        ]
    );
    let (err, grew) = reached(&|| {
        consumer
            .request_details(&notifications[1], Purpose::StatisticalAnalysis)
            .unwrap_err()
    });
    assert!(matches!(
        err,
        CssError::AccessDenied(DenyReason::PurposeNotAllowed)
    ));
    assert_eq!(
        grew,
        [
            "consent_check",
            "notified_check",
            "partial",
            "pdp_evaluate",
            "pip_resolve",
            "total"
        ]
    );
}
