//! Concurrency tests: the platform under multi-threaded producers and
//! consumers, and the bus under threaded poll / ack workers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use css::bus::{Bus, PublishOptions, SubscriptionConfig};
use css::prelude::*;

fn build_platform() -> (Arc<CssPlatform>, ActorId, ActorId, SimClock) {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
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
