//! E4 — Fig. 4 (§5.2): latency breakdown of Algorithm 1 — PIP id
//! mapping, PDP match+evaluate, gateway retrieval + obligation filter,
//! and the full PEP path including audit.

use std::collections::{BTreeSet, HashSet};

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{blood_test_details, micro_world, person, print_header, HOSPITAL};
use css_controller::{EventsIndex, GatewayClient};
use css_event::NotificationMessage;
use css_policy::{DetailRequest, PolicyDecisionPoint};
use css_trace::Tracer;
use css_types::{
    Actor, ActorId, ActorRegistry, EventTypeId, GlobalEventId, Purpose, RequestId, SourceEventId,
    Timestamp,
};

fn bench(c: &mut Criterion) {
    print_header("E4", "Algorithm 1 stage latencies (Fig. 4)");
    let mut group = c.benchmark_group("e4_detail_request");

    // --- stage: PIP (events index resolve) ---------------------------
    let mut index = EventsIndex::open(b"bench-key", css_storage::MemBackend::new()).unwrap();
    for i in 1..=10_000u64 {
        let n = NotificationMessage {
            global_id: GlobalEventId(i),
            event_type: EventTypeId::v1("blood-test"),
            person: person(i % 100),
            description: "e".into(),
            occurred_at: Timestamp(i),
            producer: HOSPITAL,
        };
        index.insert(&n, SourceEventId(i), HashSet::new()).unwrap();
    }
    group.bench_function("stage1_pip_resolve", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i % 10_000 + 1;
            index.resolve_source(GlobalEventId(i)).unwrap()
        })
    });

    // --- stage: PDP match + evaluate -----------------------------------
    let mut actors = ActorRegistry::new();
    actors
        .register(Actor::organization(ActorId(1), "C"))
        .unwrap();
    let mut pdp = PolicyDecisionPoint::new();
    pdp.install(css_bench::doctor_policy(1, ActorId(1)));
    let request = DetailRequest::new(
        RequestId(1),
        ActorId(1),
        EventTypeId::v1("blood-test"),
        GlobalEventId(1),
        Purpose::HealthcareTreatment,
    );
    group.bench_function("stage2_3_pdp_evaluate", |b| {
        b.iter(|| pdp.evaluate(&request, &actors, Timestamp(0)))
    });

    // --- stage: gateway getResponse (Algorithm 2) -----------------------
    let mut world = micro_world(1, 1, Tracer::disabled());
    for src in 1..=1_000u64 {
        world
            .gateway
            .lock()
            .persist(&css_event::DetailMessage {
                src_event_id: SourceEventId(src),
                producer: HOSPITAL,
                details: blood_test_details(src),
            })
            .unwrap();
    }
    let allowed: BTreeSet<String> = ["PatientId", "CollectedAt", "Result"]
        .map(String::from)
        .into();
    group.bench_function("stage4_gateway_get_response", |b| {
        let mut src = 0u64;
        b.iter(|| {
            src = src % 1_000 + 1;
            world
                .gateway
                .get_response(SourceEventId(src), &allowed, None)
                .unwrap()
        })
    });

    // --- full Algorithm 1 through the controller (incl. audit) ---------
    let consumer = world.consumers[0];
    let sub = world
        .controller
        .subscribe(consumer, &EventTypeId::v1("blood-test"))
        .unwrap();
    let mut event_ids = Vec::new();
    for src in 1_001..=2_000u64 {
        event_ids.push(world.publish_one(src));
    }
    while let Some(d) = sub.poll().unwrap() {
        sub.ack(d.delivery_id).unwrap();
    }
    group.bench_function("full_algorithm1_permit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let id = event_ids[i % event_ids.len()];
            i += 1;
            world
                .controller
                .request_details(
                    consumer,
                    EventTypeId::v1("blood-test"),
                    id,
                    Purpose::HealthcareTreatment,
                    None,
                )
                .unwrap()
        })
    });
    group.bench_function("full_algorithm1_deny", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let id = event_ids[i % event_ids.len()];
            i += 1;
            world
                .controller
                .request_details(
                    consumer,
                    EventTypeId::v1("blood-test"),
                    id,
                    Purpose::StatisticalAnalysis,
                    None,
                )
                .unwrap_err()
        })
    });
    group.finish();

    // The controller's own registry timed every Algorithm-1 stage of
    // the full-path runs above; report that breakdown alongside the
    // per-stage micro-benchmarks.
    let snapshot = world.controller.telemetry().snapshot();
    println!("\nAlgorithm 1 stage breakdown (controller telemetry):");
    for (name, h) in &snapshot.histograms {
        if name.starts_with("stage.") {
            println!(
                "  {name:<24} count={:<8} p50={}ns p99={}ns max={}ns",
                h.count, h.p50_ns, h.p99_ns, h.max_ns
            );
        }
    }
    println!(
        "  permits={} denies={} of {} requests",
        snapshot.counter("controller.detail_permits"),
        snapshot.counter("controller.detail_denies"),
        snapshot.counter("controller.detail_requests"),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
