//! E22 — metrics-chronicle overhead on the E15 mixed workload.
//!
//! The css-chronicle store (DESIGN.md §16) rides the ops sampler: on
//! every tick it diffs the telemetry snapshot into per-tick points,
//! folds them into the minute/hour rings, and feeds the anomaly
//! detector one value. Like the recorder (E21), the only cost the
//! *workload* can feel is lock contention on the registry plus the
//! chronicle's own store mutex — the fold runs on the sampler thread.
//! This bench drives the E16/E15 mix (70% detail requests, 20%
//! inquiries, 10% publishes) against two identical worlds — both
//! sampled every `SAMPLE_MS`, one bare and one with a chronicle fed by
//! the sampler's observer hook — using the same paired
//! alternating-batch timing as E16/E17/E21.
//! Target: < 2% per-op delta at this stress cadence.
//! Both series are printed in the harness result format so
//! `scripts/bench.sh` folds them into `BENCH_e22_chronicle_overhead.json`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{blood_test_details, micro_world, person, print_header, MicroWorld, HOSPITAL};
use css_chronicle::{AnomalyConfig, AnomalyDetector, Chronicle, Retention};
use css_controller::{DataController, SharedGateway};
use css_health::{Sampler, Slo, SloEngine};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{Clock, EventTypeId, GlobalEventId, PersonId, Purpose, SourceEventId, Timestamp};

const EVENTS: u64 = 200;
/// Sampling period for both lanes: 50× the production default, so the
/// chronicle's per-tick fold lands dozens of times in a smoke window.
const SAMPLE_MS: u64 = 5;
/// Ops per alternating batch (see E16: pairing cancels machine noise).
const BATCH: u64 = 100;

/// One step of the E15 mix, identical across both lanes.
fn mixed_op(
    controller: &mut DataController<MemBackend>,
    gateway: &SharedGateway<MemBackend>,
    consumer: css_types::ActorId,
    event_ids: &[GlobalEventId],
    i: u64,
    publish_src: &mut u64,
) {
    let ty = EventTypeId::v1("blood-test");
    match i % 10 {
        0..=6 => {
            let id = event_ids[(i % event_ids.len() as u64) as usize];
            controller
                .request_details(consumer, ty, id, Purpose::HealthcareTreatment, None)
                .unwrap();
        }
        7 | 8 => {
            controller
                .inquire_by_person(consumer, PersonId(i % EVENTS + 1), None)
                .unwrap();
        }
        _ => {
            *publish_src += 1;
            let src = *publish_src;
            gateway
                .lock()
                .persist(&css_event::DetailMessage {
                    src_event_id: SourceEventId(src),
                    producer: HOSPITAL,
                    details: blood_test_details(src),
                })
                .unwrap();
            controller
                .publish(
                    HOSPITAL,
                    person(EVENTS + 1 + src % 10_000),
                    "blood test completed".into(),
                    ty,
                    Timestamp(1_000_000),
                    SourceEventId(src),
                    None,
                )
                .unwrap();
        }
    }
}

/// Corpus published, consumers drained, live queues dropped.
fn prepared_world() -> (MicroWorld, Vec<GlobalEventId>) {
    let mut world = micro_world(2, 1, Tracer::disabled());
    let ty = EventTypeId::v1("blood-test");
    let subs: Vec<_> = world
        .consumers
        .iter()
        .map(|c| world.controller.subscribe(*c, &ty).unwrap())
        .collect();
    let mut event_ids = Vec::new();
    for src in 1..=EVENTS {
        event_ids.push(world.publish_one(src));
    }
    for sub in subs {
        while let Some(d) = sub.poll().unwrap() {
            sub.ack(d.delivery_id).unwrap();
        }
        world.controller.unsubscribe(sub).unwrap();
    }
    (world, event_ids)
}

/// The production SLO shape (lenient, as in E21: this bench measures
/// steady-state append overhead, not the trigger path).
fn slo_engine() -> SloEngine {
    let mut engine = SloEngine::new();
    engine.register(Slo::latency_p99(
        "detail_request_p99",
        "stage.total",
        10_000_000,
    ));
    engine.register(Slo::error_ratio(
        "publish_errors",
        "controller.publish_denied",
        &["controller.published", "controller.publish_denied"],
        0.001,
    ));
    engine
}

struct Lane {
    world: MicroWorld,
    event_ids: Vec<GlobalEventId>,
    /// Keeps the lane's background thread alive for the whole run.
    sampler: Option<(Sampler, Option<Arc<Chronicle>>)>,
    i: u64,
    src: u64,
    total_ns: u128,
    ops: u64,
}

impl Lane {
    fn new(chronicled: bool) -> Lane {
        let (world, event_ids) = prepared_world();
        let registry = world.controller.telemetry().clone();
        let engine = Arc::new(Mutex::new(slo_engine()));
        let clock: Arc<dyn Clock> = Arc::new(world.clock.clone());
        let interval = Duration::from_millis(SAMPLE_MS);
        let sampler = if chronicled {
            let chronicle = Arc::new(Chronicle::new(Retention::default(), &registry));
            let detector = Arc::new(AnomalyDetector::new(AnomalyConfig::new("stage.total")));
            let observed = chronicle.clone();
            let snapshot_registry = registry.clone();
            let sampler = Sampler::spawn_observed(
                move || snapshot_registry.snapshot(),
                clock,
                engine,
                interval,
                move |snapshot, now, _table| {
                    // The same per-tick feed css-core wires up: append
                    // the snapshot, then judge the fresh point.
                    observed.append(snapshot, now);
                    if let Some(point) = observed.latest(detector.metric()) {
                        if point.to_ms == now.0 {
                            detector.observe(point.last);
                        }
                    }
                },
            );
            (sampler, Some(chronicle))
        } else {
            (Sampler::spawn(registry, clock, engine, interval), None)
        };
        Lane {
            world,
            event_ids,
            sampler: Some(sampler),
            i: 0,
            src: 10_000_000,
            total_ns: 0,
            ops: 0,
        }
    }

    fn run_batch(&mut self, timed: bool) {
        let consumers = self.world.consumers.clone();
        let gateway = self.world.gateway.clone();
        let started = Instant::now();
        for _ in 0..BATCH {
            self.i += 1;
            mixed_op(
                &mut self.world.controller,
                &gateway,
                consumers[(self.i % 2) as usize],
                &self.event_ids,
                self.i,
                &mut self.src,
            );
        }
        if timed {
            self.total_ns += started.elapsed().as_nanos();
            self.ops += BATCH;
        }
    }
}

fn bench(_c: &mut Criterion) {
    print_header("E22", "metrics-chronicle overhead (chronicle off vs on)");

    let mut lanes = [
        ("chronicle_off", Lane::new(false)),
        ("chronicle_on", Lane::new(true)),
    ];

    let budget_ms: u64 = std::env::var("CSS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    for (_, lane) in lanes.iter_mut() {
        for _ in 0..3 {
            lane.run_batch(false);
        }
    }
    let started = Instant::now();
    while started.elapsed().as_millis() < 2 * budget_ms as u128 {
        for (_, lane) in lanes.iter_mut() {
            lane.run_batch(true);
        }
    }
    for (label, lane) in &lanes {
        let ns_per_op = lane.total_ns as f64 / lane.ops as f64;
        let id = format!("e22_chronicle_overhead/{label}");
        eprintln!("{id:<45} time: {ns_per_op:>10.3} ns/iter (n={})", lane.ops);
    }
    let off = lanes[0].1.total_ns as f64 / lanes[0].1.ops as f64;
    let on = lanes[1].1.total_ns as f64 / lanes[1].1.ops as f64;
    let pct = 100.0 * (on - off) / off;
    let stress = 250 / SAMPLE_MS;
    eprintln!(
        "paired batches: chronicling every {SAMPLE_MS}ms costs {:+.0} ns/op ({pct:+.1}%); \
         at the 250ms production default that is ~{:+.2}% (target < 2%)",
        on - off,
        pct / stress as f64
    );

    // ---- the chronicle actually watched the run: points retained,
    // every tick appended, and a monotonic clock refused nothing.
    let (sampler, chronicle) = lanes[1].1.sampler.take().expect("on-lane sampler");
    let ticks = sampler.ticks();
    drop(sampler);
    let chronicle = chronicle.expect("on-lane chronicle");
    assert!(ticks >= 2, "sampler must tick during the run (got {ticks})");
    assert!(
        chronicle.latest("stage.total").is_some(),
        "chronicle retained no stage.total history in {ticks} ticks"
    );
    let snapshot = lanes[1].1.world.controller.telemetry().snapshot();
    assert!(
        snapshot.counter("chronicle.appends") >= ticks,
        "appends lag the sampler: {} < {ticks}",
        snapshot.counter("chronicle.appends")
    );
    assert_eq!(
        snapshot.counter("chronicle.appends_skipped"),
        0,
        "a monotonic clock must never skip an append"
    );
    eprintln!(
        "chronicle: {ticks} snapshots, {} points retained, 0 skipped",
        snapshot.gauge("chronicle.points")
    );

    // Telemetry-format line for scripts/bench.sh → BENCH JSON.
    for (name, h) in &snapshot.histograms {
        if name == "stage.total" {
            eprintln!(
                "stage.total: count={} p50={}ns p99={}ns",
                h.count, h.p50_ns, h.p99_ns
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
