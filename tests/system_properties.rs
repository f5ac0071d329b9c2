//! Property-based tests of subsystem invariants beyond the privacy core:
//! bus delivery semantics, the consent lattice, storage round-trips, and
//! monitor bookkeeping.

use proptest::prelude::*;

use css::bus::{Bus, SubscriptionConfig};
use css::controller::{ConsentDecision, ConsentRegistry, ConsentScope};
use css::monitor::{ProcessDefinition, ProcessMonitor, Step};
use css::storage::{KvStore, MemBackend};
use css::types::{ActorId, EventTypeId, PersonId, Timestamp};

proptest! {
    /// FIFO per subscription: any publish sequence is drained in order.
    #[test]
    fn bus_preserves_publish_order(messages in proptest::collection::vec(any::<u32>(), 0..100)) {
        let broker: Bus<u32> = Bus::in_memory();
        broker.create_topic("t");
        let sub = broker.subscribe("t", SubscriptionConfig {
            capacity: 1 << 10,
            ..Default::default()
        }).unwrap();
        for m in &messages {
            broker.publish("t", *m, None).unwrap();
        }
        prop_assert_eq!(sub.drain().unwrap(), messages);
    }

    /// Publish/deliver/ack accounting always balances.
    #[test]
    fn bus_stats_balance(
        publishes in 0usize..60,
        subscribers in 1usize..5,
    ) {
        let broker: Bus<usize> = Bus::in_memory();
        broker.create_topic("t");
        let subs: Vec<_> = (0..subscribers)
            .map(|_| broker.subscribe("t", SubscriptionConfig {
                capacity: 1 << 12,
                ..Default::default()
            }).unwrap())
            .collect();
        for i in 0..publishes {
            broker.publish("t", i, None).unwrap();
        }
        let mut acked = 0u64;
        for s in &subs {
            acked += s.drain().unwrap().len() as u64;
        }
        let stats = broker.stats();
        prop_assert_eq!(stats.published, publishes as u64);
        prop_assert_eq!(stats.fanned_out, (publishes * subscribers) as u64);
        prop_assert_eq!(acked, stats.fanned_out);
    }

    /// Consent resolution is deterministic and most-specific-wins: a
    /// (producer, event-type)-scoped directive always beats any global
    /// directive, regardless of recording order or timestamps.
    #[test]
    fn consent_specificity_dominates(
        global_decision in any::<bool>(),
        specific_decision in any::<bool>(),
        global_time in 0u64..1_000,
        specific_time in 0u64..1_000,
    ) {
        let to_decision = |b: bool| if b { ConsentDecision::OptIn } else { ConsentDecision::OptOut };
        let mut reg = ConsentRegistry::new();
        let person = PersonId(1);
        let producer = ActorId(2);
        let ty = EventTypeId::v1("e");
        reg.record(person, ConsentScope::All, to_decision(global_decision), Timestamp(global_time));
        reg.record(
            person,
            ConsentScope::ProducerEventType(producer, ty.clone()),
            to_decision(specific_decision),
            Timestamp(specific_time),
        );
        prop_assert_eq!(reg.allows(person, producer, &ty), specific_decision);
        // An unrelated producer only sees the global directive.
        prop_assert_eq!(
            reg.allows(person, ActorId(99), &ty),
            global_decision
        );
    }

    /// KvStore equals a HashMap under any operation sequence, including
    /// after a replay from the log.
    #[test]
    fn kv_store_matches_model(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..8, any::<u16>()), 0..100),
    ) {
        let (mut kv, _) = KvStore::open(MemBackend::new()).unwrap();
        let mut model = std::collections::HashMap::new();
        for (op, key, value) in ops {
            let k = vec![key];
            match op {
                0 | 1 => {
                    kv.put(&k, &value.to_le_bytes()).unwrap();
                    model.insert(k, value.to_le_bytes().to_vec());
                }
                _ => {
                    let was = kv.delete(&k).unwrap();
                    prop_assert_eq!(was, model.remove(&k).is_some());
                }
            }
        }
        prop_assert_eq!(kv.len(), model.len());
        for (k, v) in &model {
            let stored = kv.get(k).unwrap();
            prop_assert_eq!(stored.as_deref(), Some(v.as_slice()));
        }
    }

    /// A monitor instance never reports Completed unless every required
    /// step is in its history, for any feeding order of step events.
    #[test]
    fn monitor_completion_requires_all_required_steps(
        // Random subsequence of the 3-step process, possibly shuffled.
        order in proptest::sample::subsequence(vec![0usize, 1, 2], 0..=3).prop_shuffle(),
    ) {
        let def = ProcessDefinition::new("p", "P")
            .step(Step::required("a", EventTypeId::v1("step-a")))
            .step(Step::required("b", EventTypeId::v1("step-b")))
            .step(Step::required("c", EventTypeId::v1("step-c")));
        let mut monitor = ProcessMonitor::new();
        monitor.register(def);
        let codes = ["step-a", "step-b", "step-c"];
        for (i, step) in order.iter().enumerate() {
            monitor.feed(&css::event::NotificationMessage {
                global_id: css::types::GlobalEventId(i as u64 + 1),
                event_type: EventTypeId::v1(codes[*step]),
                person: css::types::PersonIdentity {
                    id: PersonId(1),
                    fiscal_code: "x".into(),
                    name: "n".into(),
                    surname: "s".into(),
                },
                description: String::new(),
                occurred_at: Timestamp(i as u64),
                producer: ActorId(1),
            });
        }
        if let Some(inst) = monitor.instance("p", PersonId(1)) {
            let completed = inst.status == css::monitor::InstanceStatus::Completed;
            let has_all = (0..3).all(|s| inst.history.iter().any(|r| r.step == s));
            prop_assert!(!completed || has_all, "completed without all steps: {inst:?}");
        }
    }
}
