//! E18 — competing-consumer throughput vs delivery-group size.
//!
//! One topic, one delivery group, N worker threads splitting the stream
//! (the pluggable broker's consumer groups). Each delivery carries a
//! fixed simulated processing cost, so adding members to the group
//! should raise aggregate throughput until polling contention on the
//! broker lock catches up. The solo roundtrip is registered as a
//! Criterion timing; the pool runs are timed manually (the harness is
//! single-threaded) and printed in the same machine-readable format.
//! The run ends with a poison-message demonstration: a message every
//! member rejects dead-letters within the bounded attempt budget with
//! the original publish trace id intact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::print_header;
use css_bus::{Bus, PublishOptions, SubscriptionConfig};
use css_trace::Tracer;
use css_types::Timestamp;

const MESSAGES: u64 = 1_000;

/// Fixed per-message handling cost: the downstream EHR / case-file API
/// call a real worker *waits on* per notification. It is a wait, not a
/// spin, because that is what delivery groups parallelize — N workers
/// overlap N in-flight downstream calls even on a single core. Without
/// it every group size would bottleneck on the broker lock and the
/// scaling the experiment measures would be invisible.
fn simulated_downstream_call() {
    std::thread::sleep(Duration::from_micros(200));
}

/// Run `workers` threads competing over the group "workers" on "jobs"
/// while `drive` runs on this thread: each worker polls, acks a delivery
/// `handle` accepts and nacks one it rejects (so the redelivery /
/// dead-letter machinery applies). Returns the deliveries handled.
fn work_group(
    bus: &Bus<u64>,
    cfg: SubscriptionConfig,
    workers: usize,
    handle: impl Fn(u64) -> bool + Sync,
    drive: impl FnOnce(),
) -> u64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                let sub = bus.subscribe_group("jobs", "workers", cfg).expect("join");
                let (stop, handle) = (&stop, &handle);
                scope.spawn(move || {
                    let mut handled = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let wait = Duration::from_millis(20);
                        let Some(d) = sub.poll_for(wait).expect("subscribed") else {
                            continue;
                        };
                        let settled = if handle(d.message) {
                            sub.ack(d.delivery_id)
                        } else {
                            sub.nack(d.delivery_id)
                        };
                        settled.expect("held by this worker");
                        handled += 1;
                    }
                    handled
                })
            })
            .collect();
        drive();
        stop.store(true, Ordering::SeqCst);
        pool.into_iter()
            .map(|t| t.join().expect("worker panicked"))
            .sum()
    })
}

/// Publish `MESSAGES` jobs into a fresh group of `workers` members and
/// time wall-clock to full drain; returns ns/message.
fn drain_with_pool(workers: usize) -> f64 {
    let bus: Bus<u64> = Bus::in_memory();
    bus.create_topic("jobs");
    let processed = AtomicU64::new(0);
    // The whole stream is published up-front, so the queue must hold it
    // (the default 1024-cap Reject policy would bounce the publisher).
    let cfg = SubscriptionConfig {
        capacity: MESSAGES as usize,
        ..Default::default()
    };
    let mut elapsed = Duration::ZERO;
    let total = work_group(
        &bus,
        cfg,
        workers,
        |_m| {
            simulated_downstream_call();
            processed.fetch_add(1, Ordering::SeqCst);
            true
        },
        || {
            let started = Instant::now();
            for i in 0..MESSAGES {
                bus.publish("jobs", i, None).expect("publish");
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while processed.load(Ordering::SeqCst) < MESSAGES && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            elapsed = started.elapsed();
        },
    );
    assert_eq!(total, MESSAGES, "pool must drain the stream exactly once");
    assert!(bus.dead_letters().is_empty());
    elapsed.as_nanos() as f64 / MESSAGES as f64
}

fn bench(c: &mut Criterion) {
    print_header(
        "E18",
        "competing-consumer groups (throughput vs group size)",
    );

    // Solo publish → poll → ack roundtrip, registered with the harness:
    // the per-message floor all group sizes share.
    let bus: Bus<u64> = Bus::in_memory();
    bus.create_topic("jobs");
    let solo = bus
        .subscribe_group("jobs", "solo", SubscriptionConfig::default())
        .expect("subscribe");
    let mut group = c.benchmark_group("e18_consumer_groups");
    let mut i = 0u64;
    group.bench_function("publish_ack_roundtrip", |b| {
        b.iter(|| {
            i += 1;
            bus.publish("jobs", i, None).expect("publish");
            let d = solo.poll().expect("poll").expect("delivered");
            simulated_downstream_call();
            solo.ack(criterion::black_box(d).delivery_id).expect("ack");
        })
    });
    group.finish();

    // Pool runs: same stream, growing group. ops/s should rise with the
    // member count and size 1 must not regress against the roundtrip.
    let mut baseline_ops = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let ns_per_msg = drain_with_pool(workers);
        let ops_per_s = 1e9 / ns_per_msg;
        if workers == 1 {
            baseline_ops = ops_per_s;
        }
        let id = format!("group_size_{workers}");
        eprintln!("e18_consumer_groups/{id:<40} time: {ns_per_msg:>10.3} ns/iter (n={MESSAGES})");
        eprintln!(
            "  {MESSAGES} messages across {workers} worker(s): {ops_per_s:.0} ops/s \
             ({:.2}x of group_size_1)",
            ops_per_s / baseline_ops.max(1.0)
        );
    }

    // Poison message: every member rejects it; it must dead-letter after
    // exactly max_attempts tries with the publish trace id preserved.
    let bus: Bus<u64> = Bus::in_memory();
    bus.create_topic("jobs");
    let cfg = SubscriptionConfig {
        max_attempts: 3,
        ..Default::default()
    };
    const POISON: u64 = u64::MAX;
    let tracer = Tracer::new(64);
    let root = tracer.root("publish", Timestamp(1));
    let ctx = root.context();
    work_group(
        &bus,
        cfg,
        2,
        |m| m != POISON,
        || {
            bus.publish_opts("jobs", POISON, PublishOptions::new().traced(&ctx))
                .expect("publish poison");
            root.finish();
            for m in 0..50u64 {
                bus.publish("jobs", m, None).expect("publish");
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while bus.dead_letters().is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    );
    let dlq = bus.dead_letters();
    assert_eq!(dlq.len(), 1, "poison message must dead-letter");
    assert_eq!(dlq[0].attempts, 3);
    assert_eq!(dlq[0].trace, ctx.trace_id());
    eprintln!(
        "poison dead-lettered: attempts={} group={:?} trace_preserved={}",
        dlq[0].attempts,
        dlq[0].group.as_deref().unwrap_or("-"),
        dlq[0].trace == ctx.trace_id()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
