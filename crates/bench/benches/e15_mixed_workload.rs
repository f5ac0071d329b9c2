//! E15 — multi-threaded mixed workload against one controller.
//!
//! Several consumer threads interleave the three hot operations of the
//! integration platform — detail requests (Algorithm 1), person
//! inquiries over the encrypted index, and publishes — against a single
//! shared `DataController`. The controller is internally synchronized
//! (sharded index, segmented decision cache, read-write registries), so
//! the threads drive a plain `Arc<DataController>` with no outer lock:
//! what is measured is the platform's real concurrency, not a
//! test-harness mutex. The single-threaded mix is registered as a
//! Criterion timing; the threaded runs are timed manually (the harness
//! is single-threaded) and printed in the same machine-readable format,
//! plus aggregate ops/s and the PDP cache hit rate at the end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{blood_test_details, micro_world, print_header, HOSPITAL};
use css_controller::{DataController, SharedGateway};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{EventTypeId, GlobalEventId, PersonId, Purpose, SourceEventId, Timestamp};

const EVENTS: u64 = 500;
const OPS_PER_THREAD: u64 = 2_000;
/// Shards for the threaded runs: matches the widest thread count.
const SHARDS: usize = 8;

/// One step of the 70/20/10 request/inquiry/publish mix.
fn mixed_op(
    controller: &DataController<MemBackend>,
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
                    css_bench::person(src % EVENTS + 1),
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

fn bench(c: &mut Criterion) {
    print_header("E15", "multi-threaded mixed workload (1 controller)");

    // World: four consumer organizations, each subscribed and granted a
    // policy; a corpus of published events to request against; the data
    // plane split into SHARDS citizen-hashed shards.
    let mut world = micro_world(4, SHARDS, Tracer::disabled());
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
        // Drop the live queues: nothing drains during the measured run,
        // and a full queue would reject the workload's publishes. The
        // notified-set of the corpus is already recorded.
        world.controller.unsubscribe(sub).unwrap();
    }

    // Single-threaded mix, registered with the harness.
    let consumers = world.consumers.clone();
    let gateway = world.gateway.clone();
    let mut group = c.benchmark_group("e15_mixed_workload");
    {
        let controller = &world.controller;
        let mut i = 0u64;
        let mut src = 10_000_000u64;
        group.bench_function("mixed_op_single_thread", |b| {
            b.iter(|| {
                i += 1;
                mixed_op(
                    controller,
                    &gateway,
                    consumers[(i % 4) as usize],
                    &event_ids,
                    i,
                    &mut src,
                );
            })
        });
    }
    group.finish();

    // Threaded runs: N threads drive the shared controller directly —
    // shard contention (not a global lock) is what is measured.
    let controller = Arc::new(world.controller);
    let event_ids = Arc::new(event_ids);
    for threads in [1usize, 2, 4, 8] {
        let started = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let controller = Arc::clone(&controller);
                let gateway = gateway.clone();
                let event_ids = Arc::clone(&event_ids);
                let consumer = consumers[t % consumers.len()];
                // Disjoint src blocks so publishes never collide at the
                // gateway, across threads and across rounds.
                static NEXT_BLOCK: AtomicU64 = AtomicU64::new(20_000_000);
                let base = NEXT_BLOCK.fetch_add(1_000_000, Ordering::Relaxed);
                std::thread::spawn(move || {
                    let mut src = base;
                    for i in 0..OPS_PER_THREAD {
                        mixed_op(&controller, &gateway, consumer, &event_ids, i, &mut src);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = started.elapsed();
        let total_ops = OPS_PER_THREAD * threads as u64;
        let ns_per_op = elapsed.as_nanos() as f64 / total_ops as f64;
        let ops_per_s = total_ops as f64 / elapsed.as_secs_f64();
        let id = format!("threads_{threads}");
        eprintln!("e15_mixed_workload/{id:<40} time: {ns_per_op:>10.3} ns/iter (n={total_ops})");
        eprintln!("  {total_ops} ops across {threads} thread(s): {ops_per_s:.0} ops/s");
    }

    let snapshot = controller.telemetry().snapshot();
    let hits = snapshot.counter("pdp.cache_hit");
    let misses = snapshot.counter("pdp.cache_miss");
    eprintln!(
        "PDP cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    eprintln!(
        "shard balance (index events per shard): {:?}",
        controller.index_shard_lens()
    );
    for (name, h) in &snapshot.histograms {
        if name == "stage.pdp_evaluate" {
            eprintln!(
                "stage.pdp_evaluate: count={} p50={}ns p99={}ns",
                h.count, h.p50_ns, h.p99_ns
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
