//! E16 — causal-tracing overhead and ring-buffer behavior.
//!
//! The same 70/20/10 detail-request/inquiry/publish mix as E15, driven
//! against two identical worlds: one with the tracer disabled (every
//! span a no-op) and one with an enabled tracer whose ring holds only
//! `CAPACITY` spans, so a measured run is guaranteed to lap it many
//! times over. Timing is *paired*: batches alternate off/on so machine
//! noise and any residual state drift hit both configurations equally
//! — two back-to-back single-config runs were observed to disagree by
//! more than the ~µs delta being measured. The per-op delta is the
//! cost of tracing the full enforcement path (~10 spans per permitted
//! detail request); the drop counters prove the ring sheds the oldest
//! spans instead of blocking or growing. Both series are printed in
//! the harness result format so `scripts/bench.sh` folds them (and the
//! trace.* counters) into `BENCH_e16_trace_overhead.json`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{blood_test_details, micro_world, person, print_header, MicroWorld, HOSPITAL};
use css_controller::{DataController, SharedGateway};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{EventTypeId, GlobalEventId, PersonId, Purpose, SourceEventId, Timestamp};

const EVENTS: u64 = 200;
/// Deliberately small: a smoke run records thousands of spans, so the
/// ring must overwrite and account for the overflow.
const CAPACITY: usize = 1_024;
/// Ops per alternating batch; small enough that dozens of off/on
/// pairs fit even in a smoke run.
const BATCH: u64 = 100;

/// One step of the E15 mix (70% detail requests, 20% inquiries, 10%
/// publishes), kept identical across the traced and untraced worlds.
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
            // Publish to persons *outside* the inquiry range so the
            // measured inquiries stay fixed-cost: otherwise every
            // publish grows a queried person's event list and the
            // drift swamps the ~µs tracing delta being measured.
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

/// A world with the corpus published, consumers notified, and the live
/// queues dropped so measured publishes never back up.
fn prepared_world(tracer: Tracer) -> (MicroWorld, Vec<GlobalEventId>) {
    let mut world = micro_world(2, 1, tracer);
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

struct Lane {
    world: MicroWorld,
    event_ids: Vec<GlobalEventId>,
    i: u64,
    src: u64,
    total_ns: u128,
    ops: u64,
}

impl Lane {
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
    print_header("E16", "causal-tracing overhead (collector off vs on)");

    let tracer = Tracer::new(CAPACITY);
    let mut lanes = [
        ("collector_off", {
            let (world, event_ids) = prepared_world(Tracer::disabled());
            Lane {
                world,
                event_ids,
                i: 0,
                src: 10_000_000,
                total_ns: 0,
                ops: 0,
            }
        }),
        ("collector_on", {
            let (world, event_ids) = prepared_world(tracer.clone());
            Lane {
                world,
                event_ids,
                i: 0,
                src: 10_000_000,
                total_ns: 0,
                ops: 0,
            }
        }),
    ];

    // Warm both lanes, then alternate timed batches until the budget
    // (per lane) is spent — the same CSS_BENCH_MS knob the criterion
    // shim honors.
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
        let id = format!("e16_trace_overhead/{label}");
        eprintln!("{id:<45} time: {ns_per_op:>10.3} ns/iter (n={})", lane.ops);
    }
    let off = lanes[0].1.total_ns as f64 / lanes[0].1.ops as f64;
    let on = lanes[1].1.total_ns as f64 / lanes[1].1.ops as f64;
    eprintln!(
        "paired batches: tracing costs {:+.0} ns/op ({:+.1}%)",
        on - off,
        100.0 * (on - off) / off
    );

    // ---- ring accounting: the enabled lane overflowed CAPACITY.
    let retained = tracer.finished_spans();
    let recorded = tracer.recorded();
    let dropped = tracer.dropped();
    assert_eq!(retained.len(), CAPACITY.min(recorded as usize));
    assert_eq!(recorded, dropped + retained.len() as u64);
    // Drop-oldest proof: the ring holds the last CAPACITY spans
    // *finished*. Ids are minted in start order and a root finishes
    // after its children, so the minimum retained id trails
    // `dropped + 1` by at most one op tree (~12 spans in flight); the
    // newest id is always retained.
    let min_id = retained.iter().map(|s| s.id.value()).min().unwrap();
    let max_id = retained.iter().map(|s| s.id.value()).max().unwrap();
    assert!(
        min_id <= dropped + 1 && min_id + 32 > dropped,
        "oldest spans evicted first (min retained id {min_id}, {dropped} dropped)"
    );
    assert_eq!(max_id, recorded, "newest span retained");
    // Telemetry-format lines for scripts/bench.sh → BENCH JSON.
    eprintln!("trace.spans_recorded: count={recorded} p50=0ns p99=0ns");
    eprintln!("trace.spans_dropped: count={dropped} p50=0ns p99=0ns");
    eprintln!(
        "ring capacity {CAPACITY}: retained span ids {min_id}..={max_id} \
         ({dropped} oldest evicted, drop-oldest verified)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
