//! E19 — shard scaling of the controller data plane.
//!
//! Two measurements:
//!
//! 1. **Threads × shards grid.** For every (shards, threads) pair the
//!    same person-inquiry workload runs against a freshly populated
//!    controller, and the cell's ns/op and aggregate ops/s are printed
//!    in the harness's machine-readable format. On a multicore host the
//!    8-shard column should scale near-linearly where the 1-shard
//!    column flattens; on a single core the grid measures the sharding
//!    layer's overhead instead (scatter-gather + per-shard locking, no
//!    parallelism to win back).
//!
//! 2. **Large-world inquiry tail.** A regional-scale world built via
//!    `crates/sim` (default 1,000,000 events over 10,000 citizens;
//!    override with `CSS_E19_EVENTS` / `CSS_E19_PERSONS`) is inquired
//!    at, and the per-inquiry latency distribution (p50/p99) is
//!    reported — the "does scatter-gather hold up at paper scale"
//!    number.
//!
//! Criterion is initialized only to keep the harness shape of the other
//! experiments; both measurements are manually timed (the harness is
//! single-threaded and the grid needs its own worlds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{micro_world, print_header};
use css_sim::{synth_details, Scenario, ScenarioConfig};
use css_trace::Tracer;
use css_types::{PersonId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Events published into each grid world.
const GRID_EVENTS: u64 = 2_000;
/// Total inquiries per grid cell (split across the cell's threads).
const GRID_OPS: u64 = 4_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Percentile over a sorted ns sample.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The threads × shards grid over the person-inquiry hot path.
fn grid(consumer_slots: usize) {
    for shards in [1usize, 2, 4, 8] {
        let mut world = micro_world(consumer_slots, shards, Tracer::disabled());
        for src in 1..=GRID_EVENTS {
            world.publish_one(src);
        }
        let consumers = world.consumers.clone();
        let controller = Arc::new(world.controller);
        for threads in [1usize, 2, 4, 8] {
            let ops_per_thread = GRID_OPS / threads as u64;
            let started = Instant::now();
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let controller = Arc::clone(&controller);
                    let consumer = consumers[t % consumers.len()];
                    static SALT: AtomicU64 = AtomicU64::new(0);
                    let salt = SALT.fetch_add(7_919, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        for i in 0..ops_per_thread {
                            let person = PersonId((salt + i) % GRID_EVENTS + 1);
                            controller
                                .inquire_by_person(consumer, person, None)
                                .unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let elapsed = started.elapsed();
            let total_ops = ops_per_thread * threads as u64;
            let ns_per_op = elapsed.as_nanos() as f64 / total_ops as f64;
            let ops_per_s = total_ops as f64 / elapsed.as_secs_f64();
            let id = format!("shards_{shards}_threads_{threads}");
            eprintln!("e19_shard_scaling/{id:<40} time: {ns_per_op:>10.3} ns/iter (n={total_ops})");
            eprintln!("    [grid] shards={shards} threads={threads} {ops_per_s:.0} inquiries/s");
        }
        eprintln!(
            "    [grid] shards={shards} index balance: {:?}",
            controller.index_shard_lens()
        );
    }
}

/// The large sim-built world and its inquiry latency tail.
fn large_world() {
    let events = env_u64("CSS_E19_EVENTS", 1_000_000);
    let persons = env_u64("CSS_E19_PERSONS", 10_000).max(1);
    let shards = env_u64("CSS_E19_SHARDS", 8).max(1) as usize;
    let scenario = Scenario::build_sharded(
        ScenarioConfig {
            persons: persons as usize,
            family_doctors: 2,
            seed: 7,
        },
        Some(shards),
    )
    .unwrap();
    let ty = css_sim::scenario::types::blood_test();
    let producer = scenario.platform.producer(scenario.orgs.hospital).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let build_started = Instant::now();
    for i in 0..events {
        let person = &scenario.persons[(i % persons) as usize];
        producer
            .publish(
                person.clone(),
                "blood test completed",
                synth_details(&ty, person.id, &mut rng),
                Timestamp(1_262_304_000_000 + i),
            )
            .unwrap();
    }
    let build_s = build_started.elapsed().as_secs_f64();
    eprintln!(
        "1M-world build: {events} events / {persons} persons / {shards} shards in {build_s:.1}s \
         ({:.0} publishes/s)",
        events as f64 / build_s.max(1e-9)
    );

    // Inquire as a family doctor; each person carries events/persons
    // notifications, and every inquiry scatter-gathers all shards.
    let doctor = scenario
        .platform
        .consumer(scenario.orgs.family_doctors[0])
        .unwrap();
    let samples = 2_000.min(events.max(1));
    let mut lat_ns: Vec<u64> = Vec::with_capacity(samples as usize);
    let mut returned = 0usize;
    for i in 0..samples {
        let person = PersonId(i % persons + 1);
        let t = Instant::now();
        let hits = doctor.inquire_by_person(person).unwrap();
        lat_ns.push(t.elapsed().as_nanos() as u64);
        returned += hits.len();
    }
    lat_ns.sort_unstable();
    let p50 = pct(&lat_ns, 0.50);
    let p99 = pct(&lat_ns, 0.99);
    // `1M-world:` is the marker scripts/bench.sh turns into the JSON
    // `world` object — keep the key=value shape if editing.
    eprintln!(
        "1M-world: events={events} persons={persons} shards={shards} \
         inquiries={samples} notifications={returned} p50={p50}ns p99={p99}ns"
    );
}

fn bench(_c: &mut Criterion) {
    print_header(
        "E19",
        "shard scaling (threads x shards grid + sim world tail)",
    );
    grid(4);
    large_world();
}

criterion_group!(benches, bench);
criterion_main!(benches);
