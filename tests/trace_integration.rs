//! End-to-end causal tracing: one publish, one subscription poll, one
//! index inquiry and one authorized detail request, all under an
//! enabled tracer — then the span trees, the trace ids stamped into
//! the audit log, and the Chrome exporter are checked against each other.

use std::sync::Arc;

use css::audit::{AuditAction, AuditQuery};
use css::controller::PublishReceipt;
use css::core::MemoryProvider;
use css::prelude::*;
use css::trace::{render_chrome_trace, Span, SpanId, SpanStatus, TraceId};

fn person(i: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(i),
        fiscal_code: format!("FC{i:014}"),
        name: "P".into(),
        surname: format!("S{i}"),
    }
}

/// A traced platform with a hospital publishing blood tests to a doctor
/// granted every field for treatment.
struct Traced {
    platform: css::core::CssPlatform,
    clock: SimClock,
    producer: ProducerHandle<MemoryProvider>,
    consumer: ConsumerHandle<MemoryProvider>,
    ty: EventTypeId,
}

fn traced_world(capacity: usize) -> Traced {
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
    Traced {
        platform,
        clock,
        producer,
        consumer,
        ty,
    }
}

impl Traced {
    /// Publish a blood test about citizen 1.
    fn publish(&self) -> CssResult<PublishReceipt> {
        let details = EventDetails::new(self.ty.clone())
            .with("PatientId", FieldValue::Integer(7))
            .with("Result", FieldValue::Text("negative".into()));
        self.producer
            .publish(person(1), "bt", details, self.clock.now())
    }
}

/// Build a traced platform, run the full flow once, and return
/// (finished spans, audit records, notification count).
fn traced_flow(capacity: usize) -> (css::core::CssPlatform, Vec<Span>) {
    let w = traced_world(capacity);
    let sub = w.consumer.subscribe(&w.ty).unwrap();
    w.publish().unwrap();

    // The deliver span stays open until the subscriber polls.
    let delivered = sub.next().unwrap().expect("delivered");
    assert!(delivered.trace.is_some(), "delivery carries the trace id");
    let notification = delivered.message;

    let inquired = w.consumer.inquire_by_person(PersonId(1)).unwrap();
    assert_eq!(inquired.len(), 1);

    w.consumer
        .request_details(&notification, Purpose::HealthcareTreatment)
        .unwrap();

    let spans = w.platform.tracer().finished_spans();
    (w.platform, spans)
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

    // ---- publish tree: publish → {bus.route → bus.deliver, index}
    let publish = by_name(&spans, "publish");
    assert!(publish.parent.is_none(), "publish is a root");
    let route = by_name(&spans, "bus.route");
    let deliver = by_name(&spans, "bus.deliver");
    let insert = by_name(&spans, "index");
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
        "pip_resolve",
        "notified_check",
        "consent_check",
        "pdp_evaluate",
        "gateway.retrieve",
        "gateway.parse",
        "gateway.filter",
        "obligation_filter",
    ] {
        assert!(
            stage_names.contains(&stage),
            "{stage} missing: {stage_names:?}"
        );
        assert_eq!(by_name(&spans, stage).trace, detail.trace);
    }
    let pdp = by_name(&spans, "pdp_evaluate");
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
    // Capacity 4 cannot hold the 20 spans of a full flow: the ring
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

/// Check the one pass rooted at the span named `root`: its stage spans
/// (every child but the `bus.` and `gateway.` spans inside a stage) are
/// `stages`, in order, and tile the root — each starts where the one
/// before ended, their durations sum to the root's — and the root lasts
/// exactly the pass's one `total` observation.
fn assert_stages_tile(w: &Traced, root: &str, total: &str, stages: &[&str]) {
    let spans = w.platform.tracer().finished_spans();
    let root = by_name(&spans, root);
    let staged: Vec<&Span> = children(&spans, root.id)
        .into_iter()
        .filter(|s| !s.name.starts_with("bus.") && !s.name.starts_with("gateway."))
        .collect();
    let names: Vec<&str> = staged.iter().map(|s| s.name).collect();
    assert_eq!(names, stages, "stages of {}", root.name);
    let mut at = root.start_ns;
    for stage in &staged {
        assert_eq!(
            stage.start_ns, at,
            "{} starts where its stage before ended",
            stage.name
        );
        at = stage.end_ns;
    }
    assert_eq!(
        at, root.end_ns,
        "the last stage ends the {} root",
        root.name
    );
    let summed: u64 = staged.iter().map(|s| s.duration_ns()).sum();
    assert_eq!(summed, root.duration_ns(), "stages of {}", root.name);
    let telemetry = w.platform.telemetry();
    let total = telemetry.histogram(total).unwrap();
    assert_eq!(total.count, 1, "{total:?}");
    assert_eq!(
        total.sum_ns,
        root.duration_ns(),
        "{} root against its total",
        root.name
    );
}

#[test]
fn stage_spans_tile_their_root_and_the_root_is_the_total() {
    // A publish: four stages.
    let w = traced_world(256);
    let sub = w.consumer.subscribe(&w.ty).unwrap();
    w.publish().unwrap();
    let notification = sub.next().unwrap().expect("delivered").message;
    assert_stages_tile(
        &w,
        "publish",
        "publish.total",
        &["consent_gate", "audit", "index", "route"],
    );

    // A permitted detail request: Algorithm 1's six stages and the
    // audit append.
    w.consumer
        .request_details(&notification, Purpose::HealthcareTreatment)
        .unwrap();
    assert_stages_tile(
        &w,
        "detail_request",
        "stage.total",
        &[
            "pip_resolve",
            "notified_check",
            "consent_check",
            "pdp_evaluate",
            "gateway_retrieve",
            "obligation_filter",
            "audit",
        ],
    );
    let spans = w.platform.tracer().finished_spans();
    assert_eq!(by_name(&spans, "detail_request").status, SpanStatus::Ok);

    // A denied one, on a registry of its own: the stages it reached,
    // then the remainder (the refusal's audit append) as `partial`.
    let w = traced_world(256);
    let sub = w.consumer.subscribe(&w.ty).unwrap();
    w.publish().unwrap();
    let notification = sub.next().unwrap().expect("delivered").message;
    let refused = w
        .consumer
        .request_details(&notification, Purpose::StatisticalAnalysis);
    assert!(
        matches!(refused, Err(CssError::AccessDenied(_))),
        "{refused:?}"
    );
    assert_stages_tile(
        &w,
        "detail_request",
        "stage.total",
        &[
            "pip_resolve",
            "notified_check",
            "consent_check",
            "pdp_evaluate",
            "partial",
        ],
    );
    let spans = w.platform.tracer().finished_spans();
    assert_eq!(by_name(&spans, "detail_request").status, SpanStatus::Denied);
    let pdp = by_name(&spans, "pdp_evaluate");
    let attrs: Vec<String> = pdp.attrs.iter().map(|a| a.to_string()).collect();
    assert!(attrs.contains(&"decision=deny".to_string()), "{attrs:?}");
}

/// A publish that fails after its pass began closes its root `Error`:
/// here the one subscription already holds 1 024 undelivered
/// notifications, so the bus turns the publish away.
#[test]
fn a_failed_publish_closes_its_root_as_an_error() {
    let w = traced_world(64);
    let sub = w.consumer.subscribe(&w.ty).unwrap();
    for _ in 0..1024 {
        w.publish().unwrap();
    }
    let rejected = w.publish();
    assert!(matches!(rejected, Err(CssError::Bus(_))), "{rejected:?}");
    assert_eq!(sub.backlog().unwrap(), 1024);
    let spans = w.platform.tracer().finished_spans();
    let mut roots = spans.iter().rev().filter(|s| s.name == "publish");
    let (failed, published) = (roots.next().unwrap(), roots.next().unwrap());
    assert_eq!(failed.status, SpanStatus::Error, "{failed:?}");
    assert_eq!(published.status, SpanStatus::Ok, "{published:?}");
    let stages: Vec<&str> = children(&spans, failed.id).iter().map(|s| s.name).collect();
    assert_eq!(stages, ["consent_gate", "partial"]);
}
