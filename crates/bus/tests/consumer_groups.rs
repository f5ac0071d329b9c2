//! Integration tests of the pluggable-broker surface: competing
//! consumers, dead-lettering with trace continuity and publish dedup —
//! exercised through the public `Bus` facade the platform itself uses,
//! plus a toy driver compiled against the trait.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use css_bus::{Broker, Bus, BusDriver, PublishOptions, RecordingDriver, SubscriptionConfig};
use css_trace::Tracer;
use css_types::Timestamp;

// ---- competing-consumer fairness ------------------------------------------

/// N threaded workers sharing one group split the stream: every message
/// is processed exactly once and no worker starves.
#[test]
fn worker_pool_is_load_balanced_and_exactly_once() {
    const WORKERS: usize = 4;
    const MESSAGES: u64 = 400;

    let bus: Bus<u64> = Bus::in_memory();
    bus.create_topic("jobs");
    let per_worker: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let handled = || {
        per_worker
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum::<u64>()
    };
    let stop = AtomicBool::new(false);

    let processed: u64 = std::thread::scope(|scope| {
        let pool: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let sub = bus
                    .subscribe_group("jobs", "shift", SubscriptionConfig::default())
                    .unwrap();
                let (stop, count) = (&stop, &per_worker[worker]);
                scope.spawn(move || {
                    let mut acked = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let Some(d) = sub.poll_for(Duration::from_millis(20)).unwrap() else {
                            continue;
                        };
                        count.fetch_add(1, Ordering::SeqCst);
                        // A tiny stall so the pull-based balancing has
                        // something to balance (otherwise one fast
                        // worker can drain everything).
                        std::thread::sleep(Duration::from_micros(200));
                        sub.ack(d.delivery_id).unwrap();
                        acked += 1;
                    }
                    acked
                })
            })
            .collect();
        for i in 0..MESSAGES {
            bus.publish("jobs", i, None).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handled() < MESSAGES && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        pool.into_iter().map(|t| t.join().unwrap()).sum()
    });

    // Exactly-once: the group fanned out one copy per message, and the
    // pool collectively processed each copy once.
    assert_eq!(processed, MESSAGES);
    assert_eq!(bus.stats().fanned_out, MESSAGES);
    assert!(bus.dead_letters().is_empty());

    // Fairness: pull-based balancing won't be perfectly even, but no
    // worker may starve while the others split the whole stream.
    let shares: Vec<u64> = per_worker
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .collect();
    let floor = MESSAGES / (WORKERS as u64 * 10);
    for (worker, share) in shares.iter().enumerate() {
        assert!(
            *share >= floor,
            "worker {worker} starved: {share} < {floor} of {shares:?}"
        );
    }
}

// ---- poison messages -------------------------------------------------------

/// A message every member rejects dead-letters after exactly
/// `max_attempts` tries, keeping the original publish trace and the
/// group name so the failure can be joined back to its causal record.
#[test]
fn poison_message_dead_letters_with_original_trace() {
    let broker: Bus<&'static str> = Bus::in_memory();
    broker.create_topic("t");
    let cfg = SubscriptionConfig {
        max_attempts: 3,
        ..Default::default()
    };
    let a = broker.subscribe_group("t", "workers", cfg).unwrap();
    let b = broker.subscribe_group("t", "workers", cfg).unwrap();

    let tracer = Tracer::new(64);
    let root = tracer.root("publish", Timestamp(1));
    let ctx = root.context();
    broker
        .publish_opts("t", "poison", PublishOptions::new().traced(&ctx))
        .unwrap();
    root.finish();

    // Alternate pollers; every delivery is rejected.
    let mut attempts_seen = Vec::new();
    for member in [&a, &b, &a] {
        let d = member.poll().unwrap().expect("redelivered to the group");
        attempts_seen.push(d.attempt);
        member.nack(d.delivery_id).unwrap();
    }
    assert_eq!(attempts_seen, vec![1, 2, 3]);
    assert!(a.poll().unwrap().is_none(), "no fourth attempt");

    let dlq = broker.dead_letters();
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq[0].attempts, 3);
    assert_eq!(dlq[0].group.as_deref(), Some("workers"));
    assert_eq!(
        dlq[0].trace,
        ctx.trace_id(),
        "publish trace survives to the DLQ"
    );
    assert_eq!(a.stats().unwrap().dead_lettered, 1);
}

// ---- dedup ----------------------------------------------------------------

/// The same dedup key delivers once, whichever driver carries it.
#[test]
fn dedup_key_drops_duplicates_across_drivers() {
    let drivers: Vec<Arc<dyn BusDriver<u32>>> = vec![
        Arc::new(Broker::new()),
        Arc::new(RecordingDriver::in_memory()),
    ];
    for driver in drivers {
        let bus = Bus::from_driver(driver);
        bus.create_topic("t");
        let sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        let first = bus
            .publish_opts("t", 1, PublishOptions::new().dedup_key("retry-1"))
            .unwrap();
        let second = bus
            .publish_opts("t", 1, PublishOptions::new().dedup_key("retry-1"))
            .unwrap();
        assert!(!first.is_duplicate());
        assert!(second.is_duplicate());
        assert_eq!(sub.drain().unwrap(), vec![1]);
        assert_eq!(bus.stats().dedup_dropped, 1);
    }
}

// ---- partition ------------------------------------------------------------

proptest! {
    /// Group delivery is a partition: with random worker/message counts,
    /// every message lands with exactly one member.
    #[test]
    fn group_delivery_partitions_the_stream(
        members in 1usize..6,
        messages in 1u64..80,
    ) {
        let broker: Bus<u64> = Bus::in_memory();
        broker.create_topic("t");
        let subs: Vec<_> = (0..members)
            .map(|_| broker.subscribe_group("t", "g", SubscriptionConfig {
                capacity: 1 << 10,
                ..Default::default()
            }).unwrap())
            .collect();
        for i in 0..messages {
            broker.publish("t", i, None).unwrap();
        }
        let mut seen: HashMap<u64, usize> = HashMap::new();
        loop {
            let mut progressed = false;
            for s in &subs {
                if let Some(d) = s.poll().unwrap() {
                    *seen.entry(d.message).or_insert(0) += 1;
                    s.ack(d.delivery_id).unwrap();
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(seen.len() as u64, messages);
        prop_assert!(seen.values().all(|&n| n == 1));
    }
}
