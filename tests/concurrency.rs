//! Concurrency tests: the platform under multi-threaded producers and
//! consumers, and the bus under threaded poll / ack workers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use css::bus::{Bus, PublishOptions, SubscriptionConfig};
use css::prelude::*;

fn build_platform() -> (Arc<CssPlatform>, ActorId, ActorId, SimClock) {
    build_platform_on(None)
}

/// The platform of these tests, at `shards` index and audit shards
/// (`None`: the host's default).
fn build_platform_on(shards: Option<usize>) -> (Arc<CssPlatform>, ActorId, ActorId, SimClock) {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let builder = CssPlatform::builder().clock(Arc::new(clock.clone()));
    let mut platform = match shards {
        Some(n) => builder.shards(n),
        None => builder,
    }
    .build()
    .unwrap();
    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    let schema = EventSchema::new(EventTypeId::v1("obs"), "Observation", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Value", FieldKind::Integer).sensitive());
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema, None).unwrap();
    producer
        .policy_wizard(&EventTypeId::v1("obs"))
        .unwrap()
        .select_all_fields()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("p", "")
        .save()
        .unwrap();
    (Arc::new(platform), hospital, doctor, clock)
}

fn person(i: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(i),
        fiscal_code: format!("FC{i}"),
        name: "P".into(),
        surname: format!("S{i}"),
    }
}

#[test]
fn concurrent_producers_and_detail_requests() {
    let (platform, hospital, doctor, clock) = build_platform();
    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&EventTypeId::v1("obs")).unwrap();

    // 4 producer threads, 50 events each.
    let mut publishers = Vec::new();
    for t in 0..4u64 {
        let platform = platform.clone();
        let clock = clock.clone();
        publishers.push(std::thread::spawn(move || {
            let producer = platform.producer(hospital).unwrap();
            for i in 0..50u64 {
                producer
                    .publish(
                        person(t * 1_000 + i),
                        "obs",
                        EventDetails::new(EventTypeId::v1("obs"))
                            .with("PatientId", FieldValue::Integer((t * 1_000 + i) as i64))
                            .with("Value", FieldValue::Integer(i as i64)),
                        clock.now(),
                    )
                    .unwrap();
            }
        }));
    }
    for p in publishers {
        p.join().unwrap();
    }

    // A consumer thread chases details for everything it was notified of.
    let notifications = sub.drain().unwrap();
    assert_eq!(notifications.len(), 200);
    let permits = Arc::new(AtomicUsize::new(0));
    let mut consumers = Vec::new();
    for chunk in notifications.chunks(50) {
        let chunk: Vec<Arc<NotificationMessage>> = chunk.to_vec();
        let platform = platform.clone();
        let permits = permits.clone();
        consumers.push(std::thread::spawn(move || {
            let handle = platform.consumer(doctor).unwrap();
            for n in &chunk {
                let response = handle
                    .request_details(n, Purpose::HealthcareTreatment)
                    .unwrap();
                assert!(response.is_privacy_safe());
                permits.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for c in consumers {
        c.join().unwrap();
    }
    assert_eq!(permits.load(Ordering::SeqCst), 200);
    platform.verify_audit().unwrap();
    // Audit saw every publish and every detail request.
    let report = platform
        .audit_report(&css::audit::AuditQuery::new())
        .unwrap();
    assert_eq!(report.action_count(css::audit::AuditAction::Publish), 200);
    assert_eq!(
        report.action_count(css::audit::AuditAction::DetailRequest),
        200
    );
}

/// At 8 shards, two publishers race two requesters: each requester
/// asks for the details of events whose publish has returned, while
/// the publishers keep indexing. Every request resolves — none reads
/// `NotFound` — and the lock shim (debug builds) panics on no thread.
#[test]
fn detail_requests_racing_publishes_resolve_every_returned_event() {
    let (platform, hospital, doctor, clock) = build_platform_on(Some(8));
    let _sub = platform
        .consumer(doctor)
        .unwrap()
        .subscribe(&EventTypeId::v1("obs"))
        .unwrap();
    let returned = std::sync::Mutex::new(std::collections::VecDeque::new());
    let publishing = AtomicUsize::new(2);
    let permits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (platform, clock, returned, publishing) =
                (&platform, &clock, &returned, &publishing);
            scope.spawn(move || {
                let producer = platform.producer(hospital).unwrap();
                for i in 0..150u64 {
                    let patient = t * 1_000 + i;
                    let receipt = producer
                        .publish(
                            person(patient),
                            "obs",
                            EventDetails::new(EventTypeId::v1("obs"))
                                .with("PatientId", FieldValue::Integer(patient as i64)),
                            clock.now(),
                        )
                        .unwrap();
                    returned.lock().unwrap().push_back(receipt.global_id);
                }
                publishing.fetch_sub(1, Ordering::SeqCst);
            });
        }
        for _ in 0..2 {
            let (platform, returned, publishing, permits) =
                (&platform, &returned, &publishing, &permits);
            scope.spawn(move || {
                let consumer = platform.consumer(doctor).unwrap();
                loop {
                    let done = publishing.load(Ordering::SeqCst) == 0;
                    let Some(id) = returned.lock().unwrap().pop_front() else {
                        if done {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    consumer
                        .request_details_by_id(
                            EventTypeId::v1("obs"),
                            id,
                            Purpose::HealthcareTreatment,
                        )
                        .unwrap_or_else(|err| panic!("{id}: {err}"));
                    permits.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(permits.load(Ordering::SeqCst), 300);
    assert_eq!(platform.controller().index_shard_lens().len(), 8);
}

#[test]
fn dispatcher_fleet_processes_fanout() {
    let broker: Bus<u64> = Bus::in_memory();
    broker.create_topic("events");
    let total = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let processed: u64 = std::thread::scope(|scope| {
        // One worker thread per private subscription: poll, count, ack.
        let dispatchers: Vec<_> = (0..3)
            .map(|_| {
                let sub = broker
                    .subscribe("events", SubscriptionConfig::default())
                    .unwrap();
                let (total, stop) = (&total, &stop);
                scope.spawn(move || {
                    let mut acked = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let wait = std::time::Duration::from_millis(20);
                        if let Some(d) = sub.poll_for(wait).unwrap() {
                            total.fetch_add(1, Ordering::SeqCst);
                            sub.ack(d.delivery_id).unwrap();
                            acked += 1;
                        }
                    }
                    acked
                })
            })
            .collect();
        let publishers: Vec<_> = (0..4u64)
            .map(|t| {
                let broker = broker.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        let message = t * 100 + i;
                        broker
                            .publish_opts("events", message, PublishOptions::new())
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while total.load(Ordering::SeqCst) < 1_200 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        dispatchers.into_iter().map(|d| d.join().unwrap()).sum()
    });
    assert_eq!(processed, 1_200); // 400 events × 3 subscriptions
    assert_eq!(broker.stats().fanned_out, 1_200);
}
