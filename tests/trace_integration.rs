//! End-to-end causal tracing: one publish, one subscription poll, one
//! index inquiry and one authorized detail request, all under an
//! enabled tracer — then the span trees, the trace ids stamped into
//! the audit log, and the Chrome exporter are checked against each other.

use std::sync::Arc;

use css::audit::{AuditAction, AuditQuery};
use css::prelude::*;
use css::trace::{render_chrome_trace, Span, SpanId, TraceId};

fn person(i: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(i),
        fiscal_code: format!("FC{i:014}"),
        name: "P".into(),
        surname: format!("S{i}"),
    }
}

/// Build a traced platform, run the full flow once, and return
/// (finished spans, audit records, notification count).
fn traced_flow(capacity: usize) -> (css::core::CssPlatform, Vec<Span>) {
    let clock = SimClock::starting_at(Timestamp(7_000));
    let mut platform = CssPlatform::builder()
        .clock(Arc::new(clock.clone()))
        .tracing(capacity)
        .build()
        .unwrap();
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

    let details = EventDetails::new(ty.clone())
        .with("PatientId", FieldValue::Integer(7))
        .with("Result", FieldValue::Text("negative".into()));
    producer
        .publish(person(1), "bt", details, clock.now())
        .unwrap();

    // The deliver span stays open until the subscriber polls.
    let delivered = sub.next().unwrap().expect("delivered");
    assert!(delivered.trace.is_some(), "delivery carries the trace id");
    let notification = delivered.message;

    let inquired = consumer.inquire_by_person(PersonId(1)).unwrap();
    assert_eq!(inquired.len(), 1);

    consumer
        .request_details(&notification, Purpose::HealthcareTreatment)
        .unwrap();

    let spans = platform.tracer().finished_spans();
    (platform, spans)
}

fn by_name<'a>(spans: &'a [Span], name: &str) -> &'a Span {
    let mut hits = spans.iter().filter(|s| s.name == name);
    let first = hits.next().unwrap_or_else(|| panic!("span {name} missing"));
    assert!(hits.next().is_none(), "span {name} not unique");
    first
}

fn children(spans: &[Span], parent: SpanId) -> Vec<&Span> {
    spans.iter().filter(|s| s.parent == Some(parent)).collect()
}

#[test]
fn one_flow_yields_three_causal_trees_and_stamped_audit_records() {
    let (platform, spans) = traced_flow(256);

    // ---- publish tree: publish → {bus.route → bus.deliver, index.insert}
    let publish = by_name(&spans, "publish");
    assert!(publish.parent.is_none(), "publish is a root");
    let route = by_name(&spans, "bus.route");
    let deliver = by_name(&spans, "bus.deliver");
    let insert = by_name(&spans, "index.insert");
    assert_eq!(route.parent, Some(publish.id));
    assert_eq!(deliver.parent, Some(route.id));
    assert_eq!(insert.parent, Some(publish.id));
    for s in [route, deliver, insert] {
        assert_eq!(
            s.trace, publish.trace,
            "{} shares the publish trace",
            s.name
        );
    }

    // ---- inquiry tree: inquiry → index.filter
    let inquiry = by_name(&spans, "inquiry");
    assert!(inquiry.parent.is_none());
    let filter = by_name(&spans, "index.filter");
    assert_eq!(filter.parent, Some(inquiry.id));
    assert_eq!(filter.trace, inquiry.trace);
    assert_ne!(inquiry.trace, publish.trace);

    // ---- detail tree: every Algorithm 1 stage and every Algorithm 2
    // stage hangs off the detail_request root, in one trace.
    let detail = by_name(&spans, "detail_request");
    assert!(detail.parent.is_none());
    let stage_names: Vec<&str> = children(&spans, detail.id).iter().map(|s| s.name).collect();
    for stage in [
        "pep.pip_resolve",
        "pep.notified_check",
        "pep.consent_check",
        "pep.pdp_evaluate",
        "gateway.retrieve",
        "gateway.parse",
        "gateway.filter",
        "pep.obligation_filter",
    ] {
        assert!(
            stage_names.contains(&stage),
            "{stage} missing: {stage_names:?}"
        );
        assert_eq!(by_name(&spans, stage).trace, detail.trace);
    }
    let pdp = by_name(&spans, "pep.pdp_evaluate");
    let attrs: Vec<String> = pdp.attrs.iter().map(|a| a.to_string()).collect();
    assert!(attrs.contains(&"cache_hit=false".to_string()), "{attrs:?}");
    assert!(attrs.contains(&"decision=permit".to_string()), "{attrs:?}");

    // Within a trace, children nest inside the root's time window.
    for s in &spans {
        if s.parent.is_some() {
            let root = spans
                .iter()
                .find(|r| r.trace == s.trace && r.parent.is_none())
                .expect("root in buffer");
            assert!(s.start_ns >= root.start_ns, "{} starts inside root", s.name);
        }
    }

    // ---- audit records carry the trace ids of their operations.
    let published = platform
        .audit_query(&AuditQuery::new().action(AuditAction::Publish))
        .unwrap();
    assert_eq!(published.len(), 1);
    assert_eq!(published[0].trace, Some(publish.trace));
    let delivered = platform
        .audit_query(&AuditQuery::new().action(AuditAction::Delivery))
        .unwrap();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].trace, Some(publish.trace));
    let inquiries = platform
        .audit_query(&AuditQuery::new().action(AuditAction::IndexInquiry))
        .unwrap();
    assert_eq!(inquiries.len(), 1);
    assert_eq!(inquiries[0].trace, Some(inquiry.trace));
    let detail_recs = platform
        .audit_query(&AuditQuery::new().action(AuditAction::DetailRequest))
        .unwrap();
    assert_eq!(detail_recs.len(), 1);
    assert_eq!(detail_recs[0].trace, Some(detail.trace));

    // The trace dimension is queryable: joining by the publish trace id
    // returns exactly the records of that causal tree.
    let joined = platform
        .audit_query(&AuditQuery::new().trace(publish.trace))
        .unwrap();
    assert_eq!(joined.len(), 2, "Publish + Delivery: {joined:#?}");

    // The trace id is seeded from the platform clock (7_000 ms).
    assert_eq!(publish.trace.value() >> 32, 7_000);
}

#[test]
fn chrome_export_is_valid_json_with_monotonic_ts_and_matched_pairs() {
    let (_platform, spans) = traced_flow(256);
    let json = render_chrome_trace(&spans);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));

    // Structurally valid JSON: braces/brackets balance outside strings.
    let (mut depth, mut in_str, mut escape) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            match (escape, c) {
                (true, _) => escape = false,
                (false, '\\') => escape = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close");
    }
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(!in_str, "unterminated string");

    // Every span contributes exactly one B and one E, and the global
    // event sequence is sorted by ts.
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, spans.len());
    assert_eq!(ends, spans.len());
    let mut last_ts = -1.0f64;
    for part in json.split("\"ts\":").skip(1) {
        let num: String = part
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let ts: f64 = num.parse().expect("numeric ts");
        assert!(ts >= last_ts, "ts went backwards: {ts} after {last_ts}");
        last_ts = ts;
    }
    // Per-name pairing: each operation opens as often as it closes.
    for span in &spans {
        let b = format!("\"name\":\"{}\",\"cat\":\"css\",\"ph\":\"B\"", span.name);
        let e = format!("\"name\":\"{}\",\"cat\":\"css\",\"ph\":\"E\"", span.name);
        assert_eq!(
            json.matches(&b).count(),
            json.matches(&e).count(),
            "{}",
            span.name
        );
    }
}

#[test]
fn tiny_ring_drops_oldest_spans_but_keeps_the_newest() {
    // Capacity 4 cannot hold the ~16 spans of a full flow: the ring
    // must overwrite the oldest (the publish tree) and keep the tail
    // of the detail request, with the loss accounted for.
    let (platform, spans) = traced_flow(4);
    assert_eq!(spans.len(), 4, "ring retains exactly its capacity");
    let tracer = platform.tracer();
    assert!(tracer.dropped() > 0, "overflow must be counted");
    assert_eq!(tracer.recorded(), tracer.dropped() + spans.len() as u64);
    assert!(
        spans.iter().all(|s| s.name != "publish"),
        "oldest span evicted first: {spans:#?}"
    );
    // The newest span of the flow survives.
    assert!(spans.iter().any(|s| s.name == "detail_request"));
    // The drop counter is also exported as telemetry.
    let snapshot = platform.telemetry();
    assert_eq!(snapshot.counter("trace.spans_dropped"), tracer.dropped());
    assert_eq!(snapshot.counter("trace.spans_recorded"), tracer.recorded());
}

#[test]
fn untraced_platform_records_nothing_and_omits_trace_dimensions() {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("H").unwrap();
    let doctor = platform.register_organization("D").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    let ty = EventTypeId::v1("x");
    let schema =
        EventSchema::new(ty.clone(), "X", hospital).field(FieldDef::required("A", FieldKind::Text));
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema, None).unwrap();
    producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["A"])
        .unwrap()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("p", "")
        .save()
        .unwrap();
    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&ty).unwrap();
    let details = EventDetails::new(ty.clone()).with("A", FieldValue::Text("v".into()));
    producer
        .publish(person(1), "x", details, clock.now())
        .unwrap();
    let delivered = sub.next().unwrap().expect("delivered");
    assert_eq!(
        delivered.trace, None,
        "disabled tracer puts no id on deliveries"
    );
    assert!(!platform.tracer().is_enabled());
    assert!(platform.tracer().finished_spans().is_empty());
    for record in platform.audit_query(&AuditQuery::new()).unwrap() {
        assert_eq!(record.trace, None, "no trace dimension when disabled");
    }
    // Round-trip sanity for the id type used in the audit dimension.
    let id: TraceId = "00000000000003e9".parse().unwrap();
    assert_eq!(id.to_string(), "00000000000003e9");
}
