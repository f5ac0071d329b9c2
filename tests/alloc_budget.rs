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
    let clock = SimClock::starting_at(Timestamp(1_000));
    let mut platform = CssPlatform::in_memory_with_clock(Arc::new(clock.clone()));
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

#[test]
fn inquiry_over_ten_events() {
    let w = world();
    let producer = w.platform.producer(w.hospital).unwrap();
    let subs = subscriptions(&w);
    for _ in 0..10 {
        publish_and_deliver(&w, &producer, &subs, event(&w.ty, 7));
    }
    let consumer = w.platform.consumer(w.consumers[0]).unwrap();
    let measured = allocations_per_op(
        |_| PersonId(7),
        |person| assert_eq!(consumer.inquire_by_person(person).unwrap().len(), 10),
    );
    assert_within("inquiry returning 10 events", measured, INQUIRY_TEN);
}

// Budgets, in hundredths of an allocation per operation: what the
// binary at-rest form measured (32.24, 32.05, 11.00, 67.01) plus ten
// per cent. Its parent measured 37.25, 33.05, 12.01 and 68.01.
const PUBLISH_DELIVER: u64 = 3546;
const DETAIL_PERMIT: u64 = 3525;
const DETAIL_DENY: u64 = 1210;
const INQUIRY_TEN: u64 = 7371;
