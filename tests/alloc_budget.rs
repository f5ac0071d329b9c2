//! Allocation budgets of the four citizen-visible operations on a warm
//! in-memory platform, counted by a `#[global_allocator]` that forwards
//! to `System`.
//!
//! A budget is the count measured when it was last set plus ten per
//! cent (EXPERIMENTS.md E23 has both sides of each change that set
//! one). Counts repeat exactly from run to run — nothing here depends
//! on time or on a hash seed — so a budget that fails names a change
//! that made the operation allocate more: either take the allocation
//! back or raise the budget in the same change and say why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use css::core::MemoryProvider;
use css::prelude::*;

thread_local! {
    /// Heap blocks this thread has asked for. Per thread, so tests
    /// running beside this one do not count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`
// and returns what `System` returns, so `GlobalAlloc`'s contract is
// `System`'s. The counter is a `Cell<u64>` thread-local with a `const`
// initialiser and no destructor: touching it neither allocates nor
// re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Operations timed per budget, after as many to warm up: buffers at
/// their working size, maps past their early doublings. What growth is
/// left (a doubling every few hundred inserts) is part of the mean.
const OPS: u64 = 200;

/// Consumers subscribed to the one class: the fan-out of a publish.
const FANOUT: usize = 3;

/// Heap blocks `op` asks for on this thread, per call, over `OPS`
/// calls after `OPS` warm-up calls, in hundredths. `input` builds what
/// a call consumes outside the counted window: the budget is the
/// platform's, not the caller's.
fn allocations_per_op<I>(input: impl Fn(u64) -> I, mut op: impl FnMut(I)) -> u64 {
    let mut counted = 0;
    for i in 0..2 * OPS {
        let input = input(i);
        let before = ALLOCATIONS.with(Cell::get);
        op(input);
        if i >= OPS {
            counted += ALLOCATIONS.with(Cell::get) - before;
        }
    }
    counted * 100 / OPS
}

#[track_caller]
fn assert_within(what: &str, measured: u64, budget: u64) {
    eprintln!(
        "alloc_budget: {what}: {}.{:02} allocations per operation (budget {}.{:02})",
        measured / 100,
        measured % 100,
        budget / 100,
        budget % 100
    );
    assert!(
        measured <= budget,
        "{what}: {measured} hundredths of an allocation per operation, budget {budget}"
    );
}

struct World {
    platform: CssPlatform<MemoryProvider>,
    clock: SimClock,
    hospital: ActorId,
    consumers: Vec<ActorId>,
    ty: EventTypeId,
}

fn world() -> World {
    world_traced(None)
}

/// The world of [`world`], with a tracer keeping `spans` finished spans
/// when given one.
fn world_traced(spans: Option<usize>) -> World {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let builder = CssPlatform::builder().clock(Arc::new(clock.clone()));
    let builder = match spans {
        Some(capacity) => builder.tracing(capacity),
        None => builder,
    };
    let mut platform = builder.build().unwrap();
    let hospital = platform.register_organization("Hospital").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    let ty = EventTypeId::v1("blood-test");
    let schema = EventSchema::new(ty.clone(), "Blood Test", hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("CollectedAt", FieldKind::DateTime))
        .field(
            FieldDef::required(
                "Result",
                FieldKind::Code(vec!["negative".into(), "positive".into()]),
            )
            .sensitive(),
        )
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive());
    let producer = platform.producer(hospital).unwrap();
    producer
        .declare(&schema, Some("health/laboratory"))
        .unwrap();
    let consumers: Vec<ActorId> = (0..FANOUT)
        .map(|i| {
            let org = platform
                .register_organization(&format!("Consumer {i}"))
                .unwrap();
            platform.join(org, Role::Consumer).unwrap();
            org
        })
        .collect();
    producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["PatientId", "CollectedAt", "Result"])
        .unwrap()
        .grant_to(consumers.iter().copied())
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("treatment", "")
        .save()
        .unwrap();
    World {
        platform,
        clock,
        hospital,
        consumers,
        ty,
    }
}

fn person(id: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(id),
        fiscal_code: format!("RSSMRA45C12L{id:04}"),
        name: "Maria".into(),
        surname: "Rossi".into(),
    }
}

fn details(ty: &EventTypeId, patient: u64) -> EventDetails {
    EventDetails::new(ty.clone())
        .with("PatientId", FieldValue::Integer(patient as i64))
        .with(
            "CollectedAt",
            FieldValue::DateTime(Timestamp(951_782_400_000)),
        )
        .with("Result", FieldValue::Code("negative".into()))
        .with("Notes", FieldValue::Text("fasting sample".into()))
}

/// What one publish takes, built ahead of it.
type Event = (PersonIdentity, String, EventDetails);

fn event(ty: &EventTypeId, patient: u64) -> Event {
    (
        person(patient),
        "blood test done".to_string(),
        details(ty, patient),
    )
}

/// Publish `event` and take the notification off every subscription;
/// the last consumer's delivery.
fn publish_and_deliver(
    w: &World,
    producer: &ProducerHandle<MemoryProvider>,
    subs: &[Subscription],
    (person, description, details): Event,
) -> Delivered {
    let receipt = producer
        .publish(person, description, details, w.clock.now())
        .unwrap();
    assert_eq!(receipt.notified.len(), FANOUT);
    let mut last = None;
    for s in subs {
        let d = s.next().unwrap().expect("routed to every subscriber");
        assert_eq!(d.message.global_id, receipt.global_id);
        last = Some(d);
    }
    last.expect("FANOUT > 0")
}

fn subscriptions(w: &World) -> Vec<Subscription> {
    w.consumers
        .iter()
        .map(|c| w.platform.consumer(*c).unwrap().subscribe(&w.ty).unwrap())
        .collect()
}

#[test]
fn publish_and_deliver_at_fanout_three() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let measured = allocations_per_op(
        |i| event(&w.ty, i % 16 + 1),
        |event| drop(publish_and_deliver(&w, &producer, &subs, event)),
    );
    assert_within("publish + deliver, fan-out 3", measured, PUBLISH_DELIVER);
}

#[test]
fn detail_requests_permitted_and_denied() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let events: Vec<Delivered> = (1..=16)
        .map(|patient| publish_and_deliver(&w, &producer, &subs, event(&w.ty, patient)))
        .collect();
    let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
    let notification = |i: u64| &events[i as usize % events.len()].message;
    let permitted = allocations_per_op(notification, |n| {
        let response = consumer
            .request_details(n, Purpose::HealthcareTreatment)
            .unwrap();
        assert!(response.is_privacy_safe());
    });
    assert_within("permitted detail request", permitted, DETAIL_PERMIT);
    let denied = allocations_per_op(notification, |n| {
        let refused = consumer.request_details(n, Purpose::StatisticalAnalysis);
        assert!(matches!(refused, Err(CssError::AccessDenied(_))));
    });
    assert_within("denied detail request", denied, DETAIL_DENY);
}

/// Heap blocks of a permitted detail request for an event of a class of
/// `fields` text fields, every one filled at publish, under a policy
/// releasing the first two.
fn permit_of_a_class_of(fields: usize) -> u64 {
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
    let hospital = platform.register_organization("Hospital").unwrap();
    let doctor = platform.register_organization("Doctor").unwrap();
    platform.join(hospital, Role::Producer).unwrap();
    platform.join(doctor, Role::Consumer).unwrap();
    let ty = EventTypeId::v1("care-record");
    let names: Vec<String> = (0..fields).map(|i| format!("Field{i}")).collect();
    let schema = names.iter().fold(
        EventSchema::new(ty.clone(), "Care Record", hospital),
        |schema, name| schema.field(FieldDef::required(name, FieldKind::Text)),
    );
    let producer = platform.producer(hospital).unwrap();
    producer.declare(&schema, None).unwrap();
    producer
        .policy_wizard(&ty)
        .unwrap()
        .select_fields(["Field0", "Field1"])
        .unwrap()
        .grant_to([doctor])
        .unwrap()
        .for_purposes([Purpose::HealthcareTreatment])
        .labeled("care", "")
        .save()
        .unwrap();
    let consumer = platform.consumer(doctor).unwrap();
    let sub = consumer.subscribe(&ty).unwrap();
    let events: Vec<Delivered> = (1..=16)
        .map(|patient| {
            let details = names.iter().fold(EventDetails::new(ty.clone()), |d, name| {
                d.with(
                    name,
                    FieldValue::Text(format!("{name} of patient {patient}")),
                )
            });
            producer
                .publish(person(patient), "care recorded", details, clock.now())
                .unwrap();
            sub.next().unwrap().expect("routed to the doctor")
        })
        .collect();
    allocations_per_op(
        |i| &events[i as usize % events.len()].message,
        |n| {
            let response = consumer
                .request_details(n, Purpose::HealthcareTreatment)
                .unwrap();
            assert_eq!(response.details.non_empty_fields().count(), 2);
        },
    )
}

#[test]
fn permitted_detail_allocations_do_not_grow_with_unreleased_fields() {
    let four = permit_of_a_class_of(4);
    let twelve = permit_of_a_class_of(12);
    assert_eq!(
        four, twelve,
        "a permit allocates per field it does not release"
    );
    assert_within(
        "permitted detail request, 12 fields, 2 released",
        twelve,
        DETAIL_PERMIT_TWELVE_FIELDS,
    );
}

/// Heap blocks of a detail request denied on its purpose to a role in
/// an organisation → unit → role hierarchy, asked right after an
/// unrelated policy install has emptied the decision cache, with
/// `foreign` of the class's policies granted to other roles. Both
/// settings register the same actors and define the same number of
/// policies; only the class of the `128 - foreign` fillers differs.
fn cold_denied_request_by_a_role(foreign: usize) -> u64 {
    let mut w = world();
    let org = w
        .platform
        .register_organization("Care Cooperative")
        .unwrap();
    w.platform.join(org, Role::Consumer).unwrap();
    let ward = w.platform.register_unit(org, "Ward").unwrap();
    let nurse = w.platform.register_role(ward, "Nurse").unwrap();
    let others: Vec<ActorId> = (0..128)
        .map(|i| {
            w.platform
                .register_role(ward, &format!("Role {i}"))
                .unwrap()
        })
        .collect();
    let producer = w.platform.producer(w.hospital).unwrap();
    let filler = EventTypeId::v1("urine-test");
    let schema = EventSchema::new(filler.clone(), "Urine Test", w.hospital)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    producer.declare(&schema, None).unwrap();
    let grant = |ty: &EventTypeId, to: &[ActorId]| {
        if to.is_empty() {
            return;
        }
        producer
            .policy_wizard(ty)
            .unwrap()
            .select_fields(["PatientId"])
            .unwrap()
            .grant_to(to.iter().copied())
            .unwrap()
            .for_purposes([Purpose::HealthcareTreatment])
            .labeled("grant", "")
            .save()
            .unwrap();
    };
    // The nurse is covered through its organisation, two links up.
    grant(&w.ty, &[org]);
    grant(&w.ty, &others[..foreign]);
    grant(&filler, &others[foreign..]);

    let sub = w
        .platform
        .consumer(nurse)
        .unwrap()
        .subscribe(&w.ty)
        .unwrap();
    producer
        .publish(
            person(1),
            "blood test done",
            details(&w.ty, 1),
            w.clock.now(),
        )
        .unwrap();
    let notification = sub.next().unwrap().expect("routed to the nurse").message;
    let nurse = w.platform.consumer(nurse).unwrap();
    let controller = w.platform.controller();
    allocations_per_op(
        |_| {
            let unrelated = PrivacyPolicy::new(
                controller.next_policy_id(),
                w.hospital,
                org,
                filler.clone(),
                [Purpose::Administration],
                ["PatientId".to_string()],
            );
            controller.define_policy(unrelated).unwrap();
        },
        |()| {
            let refused = nurse.request_details(&notification, Purpose::StatisticalAnalysis);
            assert!(matches!(
                refused,
                Err(CssError::AccessDenied(DenyReason::PurposeNotAllowed))
            ));
        },
    )
}

#[test]
fn cold_denied_request_ignores_grants_to_other_roles() {
    let few = cold_denied_request_by_a_role(8);
    let many = cold_denied_request_by_a_role(128);
    assert_eq!(
        few, many,
        "a cold decision allocates per policy granted outside the requester's lineage"
    );
    assert_within(
        "cold denied detail request by a role, 128 foreign grants",
        many,
        DETAIL_DENY_COLD,
    );
}

/// Heap blocks an inquiry by person asks for, per call, over a citizen
/// with `events` events, every one of them returned; and one of them.
fn inquiry_returning(events: usize) -> (u64, NotificationMessage) {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    for _ in 0..events {
        publish_and_deliver(&w, &producer, &subs, event(&w.ty, 7));
    }
    let consumer = w.platform.consumer(w.consumers[0]).unwrap();
    let measured = allocations_per_op(
        |_| PersonId(7),
        |person| assert_eq!(consumer.inquire_by_person(person).unwrap().len(), events),
    );
    let returned = consumer.inquire_by_person(PersonId(7)).unwrap();
    (measured, returned[0].clone())
}

#[test]
fn inquiry_over_ten_events() {
    let (measured, _) = inquiry_returning(10);
    assert_within("inquiry returning 10 events", measured, INQUIRY_TEN);
}

/// Ten more events returned cost ten more notifications and no more:
/// nothing per event is looked up, cloned or listed beside what the
/// caller receives, bar the result vector's doublings.
#[test]
fn inquiry_allocations_grow_only_by_what_it_returns() {
    let (ten, notification) = inquiry_returning(10);
    let (twenty, _) = inquiry_returning(20);
    let per_notification = allocations_per_op(
        |_| (),
        |()| drop(std::hint::black_box(notification.clone())),
    );
    assert_within(
        "ten more events returned",
        twenty - ten,
        10 * per_notification + 2 * 100,
    );
}

/// A world holding ten events about citizen 7.
fn ten_events_about_seven() -> World {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    for _ in 0..10 {
        publish_and_deliver(&w, &producer, &subs, event(&w.ty, 7));
    }
    w
}

#[test]
fn citizen_profile_over_ten_events() {
    let w = ten_events_about_seven();
    let citizen = w.platform.citizen(PersonId(7));
    let measured = allocations_per_op(
        |_| (),
        |()| assert_eq!(citizen.my_profile().unwrap().len(), 10),
    );
    assert_within("citizen profile of 10 events", measured, PROFILE_TEN);
}

/// Every view of a trail is audited on it, so each call asks for the
/// trail of a citizen of its own, built outside the counted window: two
/// events published to three consumers (a publish record and three
/// notification records each), and one consumer asking twice for
/// their details.
#[test]
fn citizen_audit_trail_over_ten_records() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
    let measured = allocations_per_op(
        |i| {
            for _ in 0..2 {
                let event = event(&w.ty, 100 + i);
                let delivered = publish_and_deliver(&w, &producer, &subs, event);
                consumer
                    .request_details(&delivered.message, Purpose::HealthcareTreatment)
                    .unwrap();
            }
            w.platform.citizen(PersonId(100 + i))
        },
        |citizen| assert_eq!(citizen.who_accessed_my_data().unwrap().len(), 10),
    );
    assert_within(
        "citizen audit trail of 10 records",
        measured,
        AUDIT_TRAIL_TEN,
    );
}

#[test]
fn inquiry_between_returning_ten() {
    let w = ten_events_about_seven();
    let consumer = w.platform.consumer(w.consumers[0]).unwrap();
    let measured = allocations_per_op(
        |_| (),
        |()| {
            let found = consumer.inquire_between(Timestamp(0), Timestamp(u64::MAX));
            assert_eq!(found.unwrap().len(), 10);
        },
    );
    assert_within(
        "inquiry between returning 10",
        measured,
        INQUIRY_BETWEEN_TEN,
    );
}

/// An event class id is named by every audit record, index entry and
/// notification of its class: a copy of one is a reference-count bump.
#[test]
fn event_type_clone_allocates_nothing() {
    let ty = EventTypeId::v1("blood-test");
    let measured = allocations_per_op(|_| (), |()| drop(std::hint::black_box(ty.clone())));
    assert_eq!(measured, 0, "cloning an event class id allocates");
}

/// A class id read back from storage (every decoded audit record and
/// index entry naming one) is its shared code and nothing more.
#[test]
fn event_type_from_canonical_allocates_its_code_alone() {
    let measured = allocations_per_op(
        |_| (),
        |()| {
            drop(std::hint::black_box(
                EventTypeId::from_canonical("blood-test@v1").unwrap(),
            ))
        },
    );
    assert_within("EventTypeId::from_canonical", measured, FROM_CANONICAL);
}

/// Histogram observations `op` adds to `registry` per call, over `OPS`
/// calls after `OPS` warm-up calls. Exact: every call of one operation
/// records the same observations.
fn observations_per_op<I>(
    registry: &css::telemetry::MetricsRegistry,
    input: impl Fn(u64) -> I,
    mut op: impl FnMut(I),
) -> u64 {
    let observed = || -> u64 {
        registry
            .snapshot()
            .histograms
            .values()
            .map(|h| h.count)
            .sum()
    };
    for i in 0..OPS {
        op(input(i));
    }
    let before = observed();
    for i in OPS..2 * OPS {
        op(input(i));
    }
    let total = observed() - before;
    assert_eq!(total % OPS, 0, "{total} observations over {OPS} calls");
    total / OPS
}

/// Each timed stage records once: a layer that times itself inside a
/// stage its caller already times adds observations here. One thread,
/// so no shard lock is ever contended.
#[test]
fn histogram_observations_per_operation() {
    let w = world();
    let registry = w.platform.metrics();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let publish = observations_per_op(
        registry,
        |i| event(&w.ty, i % 16 + 1),
        |event| drop(publish_and_deliver(&w, &producer, &subs, event)),
    );
    let events: Vec<Delivered> = (1..=16)
        .map(|patient| publish_and_deliver(&w, &producer, &subs, event(&w.ty, patient)))
        .collect();
    let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
    let notification = |i: u64| &events[i as usize % events.len()].message;
    let permitted = observations_per_op(registry, notification, |n| {
        consumer
            .request_details(n, Purpose::HealthcareTreatment)
            .unwrap();
    });
    let denied = observations_per_op(registry, notification, |n| {
        let refused = consumer.request_details(n, Purpose::StatisticalAnalysis);
        assert!(matches!(refused, Err(CssError::AccessDenied(_))));
    });
    eprintln!("alloc_budget: histogram observations: publish + deliver {publish}, permitted {permitted}, denied {denied}");
    assert_eq!(
        (publish, permitted, denied),
        OBSERVATIONS,
        "histogram observations per publish + deliver (fan-out 3), permitted and denied detail request"
    );
}

/// Ciphertexts `op` seals and opens on this thread per call, over
/// `OPS` calls after `OPS` warm-up calls: `(seals, opens)`, in
/// hundredths. The ledger exists in debug builds only.
#[cfg(debug_assertions)]
fn ciphertexts_per_op<I>(input: impl Fn(u64) -> I, mut op: impl FnMut(I)) -> (u64, u64) {
    use css::crypto::sealed::ledger;
    for i in 0..OPS {
        op(input(i));
    }
    let (seals, opens) = ledger::counts();
    for i in OPS..2 * OPS {
        op(input(i));
    }
    let (sealed, opened) = ledger::counts();
    ((sealed - seals) * 100 / OPS, (opened - opens) * 100 / OPS)
}

/// A publish seals its identity once and opens nothing; a detail
/// request, permitted or denied, opens nothing once its citizen's
/// subject is known; an inquiry opens each citizen's one shared
/// ciphertext once.
#[cfg(debug_assertions)]
#[test]
fn ciphertexts_per_operation() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let publish = ciphertexts_per_op(
        |i| event(&w.ty, i % 16 + 1),
        |event| drop(publish_and_deliver(&w, &producer, &subs, event)),
    );
    let events: Vec<Delivered> = (1..=16)
        .map(|patient| publish_and_deliver(&w, &producer, &subs, event(&w.ty, patient)))
        .collect();
    let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
    let notification = |i: u64| &events[i as usize % events.len()].message;
    let permitted = ciphertexts_per_op(notification, |n| {
        consumer
            .request_details(n, Purpose::HealthcareTreatment)
            .unwrap();
    });
    let denied = ciphertexts_per_op(notification, |n| {
        let refused = consumer.request_details(n, Purpose::StatisticalAnalysis);
        assert!(matches!(refused, Err(CssError::AccessDenied(_))));
    });
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    for _ in 0..10 {
        publish_and_deliver(&w, &producer, &subs, event(&w.ty, 7));
    }
    let consumer = w.platform.consumer(w.consumers[0]).unwrap();
    let inquiry = ciphertexts_per_op(
        |_| PersonId(7),
        |person| assert_eq!(consumer.inquire_by_person(person).unwrap().len(), 10),
    );
    let measured = [publish, permitted, denied, inquiry];
    eprintln!("alloc_budget: ciphertexts (seals, opens) in hundredths: publish + deliver {publish:?}, permitted {permitted:?}, denied {denied:?}, inquiry of ten {inquiry:?}");
    assert_eq!(
        measured, CIPHERTEXTS,
        "(seals, opens) per publish + deliver (fan-out 3), permitted and denied detail request, inquiry returning 10"
    );
}

/// Monotonic clock reads `op` makes on this thread per call, through
/// the one clock the stage timers and the tracer share, over `OPS`
/// calls after `OPS` warm-up calls. The count exists in debug builds
/// only.
#[cfg(debug_assertions)]
fn clock_reads_per_op<I>(input: impl Fn(u64) -> I, mut op: impl FnMut(I)) -> u64 {
    use css::telemetry::clock;
    for i in 0..OPS {
        op(input(i));
    }
    let before = clock::reads().unwrap();
    for i in OPS..2 * OPS {
        op(input(i));
    }
    let total = clock::reads().unwrap() - before;
    assert_eq!(total % OPS, 0, "{total} clock reads over {OPS} calls");
    total / OPS
}

/// An N-stage pass reads the clock N + 1 times, traced or not: its
/// stage spans and its root are closed by the readings of its stage
/// boundaries. What a traced operation reads beyond that is the spans
/// that are not its stages: `bus.route`, a `bus.deliver` per consumer
/// and the gateway's three Algorithm 2 spans, two reads each.
#[cfg(debug_assertions)]
#[test]
fn clock_reads_per_operation() {
    let measure = |spans: Option<usize>| -> (u64, u64, u64) {
        let w = world_traced(spans);
        let producer = w.platform.producer(w.hospital).unwrap();
        let subs = subscriptions(&w);
        let publish = clock_reads_per_op(
            |i| event(&w.ty, i % 16 + 1),
            |event| drop(publish_and_deliver(&w, &producer, &subs, event)),
        );
        let events: Vec<Delivered> = (1..=16)
            .map(|patient| publish_and_deliver(&w, &producer, &subs, event(&w.ty, patient)))
            .collect();
        let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
        let notification = |i: u64| &events[i as usize % events.len()].message;
        let permitted = clock_reads_per_op(notification, |n| {
            consumer
                .request_details(n, Purpose::HealthcareTreatment)
                .unwrap();
        });
        let denied = clock_reads_per_op(notification, |n| {
            let refused = consumer.request_details(n, Purpose::StatisticalAnalysis);
            assert!(matches!(refused, Err(CssError::AccessDenied(_))));
        });
        (publish, permitted, denied)
    };
    let (untraced, traced) = (measure(None), measure(Some(64)));
    eprintln!("alloc_budget: clock reads: untraced {untraced:?}, traced {traced:?}");
    assert_eq!(
        [untraced, traced],
        CLOCK_READS,
        "clock reads per publish + deliver (fan-out 3), permitted and denied detail request, untraced then traced"
    );
}

/// Locks `op` acquires on this thread per call, per lock class, over
/// `OPS` calls after `OPS` warm-up calls: the classes it acquires at
/// all, in name order. The count exists in debug builds only.
#[cfg(debug_assertions)]
fn acquisitions_per_op<I>(
    input: impl Fn(u64) -> I,
    mut op: impl FnMut(I),
) -> Vec<(&'static str, u64)> {
    for i in 0..OPS {
        op(input(i));
    }
    let before = parking_lot::acquisitions().unwrap();
    for i in OPS..2 * OPS {
        op(input(i));
    }
    let after = parking_lot::acquisitions().unwrap();
    after
        .into_iter()
        .filter_map(|(class, total)| {
            let earlier = before
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(0, |(_, n)| *n);
            let taken = total - earlier;
            assert_eq!(
                taken % OPS,
                0,
                "{class}: {taken} acquisitions over {OPS} calls"
            );
            (taken > 0).then_some((class, taken / OPS))
        })
        .collect()
}

/// A publish takes the routing table once, across its audit, index and
/// send; the bus state once to admit, once to send, and once per
/// delivery taken. What else each operation locks is pinned beside it.
#[cfg(debug_assertions)]
#[test]
fn lock_acquisitions_per_operation() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    let publish = acquisitions_per_op(
        |i| event(&w.ty, i % 16 + 1),
        |event| drop(publish_and_deliver(&w, &producer, &subs, event)),
    );
    let events: Vec<Delivered> = (1..=16)
        .map(|patient| publish_and_deliver(&w, &producer, &subs, event(&w.ty, patient)))
        .collect();
    let consumer = w.platform.consumer(*w.consumers.last().unwrap()).unwrap();
    let notification = |i: u64| &events[i as usize % events.len()].message;
    let permitted = acquisitions_per_op(notification, |n| {
        consumer
            .request_details(n, Purpose::HealthcareTreatment)
            .unwrap();
    });
    let denied = acquisitions_per_op(notification, |n| {
        let refused = consumer.request_details(n, Purpose::StatisticalAnalysis);
        assert!(matches!(refused, Err(CssError::AccessDenied(_))));
    });
    eprintln!("alloc_budget: lock acquisitions: publish + deliver {publish:?}, permitted {permitted:?}, denied {denied:?}");
    assert_eq!(
        [publish, permitted, denied],
        LOCK_ACQUISITIONS,
        "lock acquisitions per class per publish + deliver (fan-out 3), permitted and denied detail request"
    );
}

/// Heap blocks a subscriber's `backlog` and the bus's `stats` each ask
/// for per call, on a bus holding `dead` dead letters.
fn counter_reads_beside_dead_letters(dead: u64) -> (u64, u64) {
    use css::bus::{Bus, PublishOptions, SubscriptionConfig, MAX_ATTEMPTS};
    let bus: Bus<Arc<String>> = Bus::in_memory();
    bus.create_topic("t");
    let sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
    for i in 0..dead {
        let message = Arc::new(i.to_string());
        bus.publish_opts("t", message, PublishOptions::new())
            .unwrap();
        for _ in 0..MAX_ATTEMPTS {
            let d = sub.poll().unwrap().unwrap();
            sub.nack(d.delivery_id).unwrap();
        }
    }
    assert_eq!(bus.dead_letters().len() as u64, dead);
    let backlog = allocations_per_op(|_| (), |()| assert_eq!(sub.backlog().unwrap(), 0));
    let stats = allocations_per_op(|_| (), |()| assert_eq!(bus.stats().published, dead));
    (backlog, stats)
}

#[test]
fn counter_reads_copy_no_dead_letter() {
    assert_eq!(
        counter_reads_beside_dead_letters(0),
        counter_reads_beside_dead_letters(100),
        "a counter read allocates per dead letter"
    );
}

/// A policy of Fig. 8's size: one subject, one class, one purpose,
/// three fields, a label and a description.
fn fig8_policy(
    id: css::types::PolicyId,
    producer: ActorId,
    actor: ActorId,
    ty: &EventTypeId,
) -> PrivacyPolicy {
    PrivacyPolicy::new(
        id,
        producer,
        actor,
        ty.clone(),
        [Purpose::HealthcareTreatment],
        ["PatientId", "CollectedAt", "Result"].map(String::from),
    )
    .labeled("family-doctor-homecare", "Fig. 8 example policy")
}

/// A define writes the policy's XACML into its audit record.
#[test]
fn define_policy_of_fig8_size() {
    let w = world();
    let controller = w.platform.controller();
    let measured = allocations_per_op(
        |_| {
            fig8_policy(
                controller.next_policy_id(),
                w.hospital,
                w.consumers[0],
                &w.ty,
            )
        },
        |policy| controller.define_policy(policy).unwrap(),
    );
    assert_within("define_policy of a Fig. 8 policy", measured, DEFINE_POLICY);
}

/// Heap blocks of reopening, on one shard, a directory whose journal
/// holds `policies` Fig. 8-sized defines.
fn reopen_journaling(policies: u64) -> u64 {
    let dir =
        std::env::temp_dir().join(format!("css-alloc-fold-{policies}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        CssPlatform::builder()
            .provider(css::core::DirProvider::new(&dir).unwrap())
            .clock(Arc::new(SimClock::starting_at(Timestamp(1_000))))
            .shards(1)
            .build()
            .unwrap()
    };
    {
        let mut platform = open();
        let hospital = platform.register_organization("Hospital").unwrap();
        let doctor = platform.register_organization("Doctor").unwrap();
        platform.join(hospital, Role::Producer).unwrap();
        platform.join(doctor, Role::Consumer).unwrap();
        let ty = EventTypeId::v1("blood-test");
        let schema = ["PatientId", "CollectedAt", "Result"].into_iter().fold(
            EventSchema::new(ty.clone(), "Blood Test", hospital),
            |schema, name| schema.field(FieldDef::required(name, FieldKind::Text)),
        );
        platform
            .producer(hospital)
            .unwrap()
            .declare(&schema, None)
            .unwrap();
        let controller = platform.controller();
        for _ in 0..policies {
            let policy = fig8_policy(controller.next_policy_id(), hospital, doctor, &ty);
            controller.define_policy(policy).unwrap();
        }
    }
    let before = ALLOCATIONS.with(Cell::get);
    let reopened = open();
    let counted = ALLOCATIONS.with(Cell::get) - before;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    counted
}

/// Each journaled define is folded back into the decision point at
/// open: its audit record decoded, its XACML read, the policy
/// installed.
#[test]
fn journaled_policy_folded_at_open() {
    let (few, many) = (reopen_journaling(8), reopen_journaling(40));
    assert_within(
        "journaled Fig. 8 policy folded at open",
        (many - few) * 100 / 32,
        FOLD_POLICY,
    );
}

// Budgets, in hundredths of an allocation per operation, each what was
// measured plus ten per cent (EXPERIMENTS.md E23 keeps the history of
// each). An event class id shares its code, so every audit record,
// index entry, `by_type` key, detail request and notification naming
// the class bumps a count instead of copying a string; the index
// insert seals into buffers its shard keeps, the time index holds one
// key per entry, the group commits keep their record ends and
// pointers, and a detail request reads its citizen's subject off the
// bucket, opening nothing. Publish + deliver 6.37 (was 18.21), the
// permitted request 4.05 (was 5.05) and 5.10 with 12 fields (was
// 6.10), the denied one 1.00 (was 2.00), the inquiry 52.01 (was
// 63.01) and the cold denial 2.00 with 8 foreign grants and with 128
// (was 3.00). The three read paths a citizen or a consumer walks
// besides the inquiry by person were first pinned as measured: the
// profile of ten events 51.01, the audit trail of ten records 27.00,
// the inquiry between two instants returning ten 61.01.
const PUBLISH_DELIVER: u64 = 700;
const DETAIL_PERMIT: u64 = 445;
const DETAIL_PERMIT_TWELVE_FIELDS: u64 = 561;
const DETAIL_DENY: u64 = 110;
const INQUIRY_TEN: u64 = 5721;
const DETAIL_DENY_COLD: u64 = 220;
const FROM_CANONICAL: u64 = 100;
const PROFILE_TEN: u64 = 5611;
const AUDIT_TRAIL_TEN: u64 = 2970;
const INQUIRY_BETWEEN_TEN: u64 = 6711;
// A define of a Fig. 8-sized policy 20.02 (106.02 when its XACML was
// built as a tree and then written), a journaled one folded at open
// 21.43 (114.43 when its XACML was parsed into a tree and walked).
const DEFINE_POLICY: u64 = 2202;
const FOLD_POLICY: u64 = 2357;

// Histogram observations per publish + deliver at fan-out 3, per
// permitted and per denied detail request: exact counts, not budgets.
// The permitted request's audit append is its seventh stage.
const OBSERVATIONS: (u64, u64, u64) = (13, 8, 6);

// Ciphertexts (seals, opens) per publish + deliver at fan-out 3, per
// permitted and per denied detail request and per inquiry returning
// ten, in hundredths: exact counts, not budgets. A detail request
// reads its citizen's subject off the bucket and opens nothing.
#[cfg(debug_assertions)]
const CIPHERTEXTS: [(u64, u64); 4] = [(100, 0), (0, 0), (0, 0), (0, 100)];

// Clock reads per publish + deliver at fan-out 3, per permitted and per
// denied detail request, untraced then traced: exact counts, not
// budgets. Untraced, each is its pass's N + 1 (4, 7 and 4 stages, the
// denial's last one `partial`). Traced, a publish adds `bus.route` and
// three `bus.deliver`s, a permitted request the gateway's three spans.
// When a stage and its span each read the clock they were (6, 8, 6)
// and (18, 26, 16).
#[cfg(debug_assertions)]
const CLOCK_READS: [(u64, u64, u64); 2] = [(5, 8, 6), (13, 14, 6)];

// Lock acquisitions per class per publish + deliver at fan-out 3, per
// permitted and per denied detail request: exact counts, not budgets.
// `leaf` is every unranked lock (the contract registry among them). A
// publish takes `routes` once and the bus state five times: admit, send
// and three takes; `gateway` is the producer's detail persist.
#[cfg(debug_assertions)]
const LOCK_ACQUISITIONS: [&[(&str, u64)]; 3] = [
    &[
        ("audit shard", 1),
        ("bus state", 5),
        ("catalog", 1),
        ("consent", 1),
        ("gateway", 1),
        ("index shard", 1),
        ("leaf", 1),
        ("pdp", 1),
        ("routes", 1),
    ],
    &[
        ("actors", 3),
        ("audit shard", 1),
        ("consent", 1),
        ("gateway", 1),
        ("gateways", 1),
        ("index shard", 1),
        ("leaf", 2),
        ("pdp", 1),
    ],
    &[
        ("actors", 3),
        ("audit shard", 1),
        ("consent", 1),
        ("index shard", 1),
        ("leaf", 2),
        ("pdp", 1),
    ],
];
