//! Shared fixtures for the experiment benches.
//!
//! One bench target per experiment in `DESIGN.md` §5 (E1–E13). Each
//! bench prints the experiment's result series (the "table/figure" being
//! regenerated) to stderr once, then registers Criterion timings for the
//! operations the series is built from. `EXPERIMENTS.md` records the
//! expected shapes.

use std::sync::Arc;
use std::time::Instant;

use css_controller::{ControllerConfig, DataController, SharedGateway};
use css_core::{CssPlatform, MemoryProvider};
use css_event::{DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_sim::{Scenario, ScenarioConfig};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{
    Actor, ActorId, EventTypeId, GlobalEventId, PersonId, PersonIdentity, PolicyId, Purpose,
    SimClock, SourceEventId, Timestamp,
};
use parking_lot::Mutex;

/// Standard ids used by the micro fixtures.
pub const HOSPITAL: ActorId = ActorId(1);
/// First consumer actor id in micro fixtures.
pub const CONSUMER_BASE: u64 = 100;

/// A benchmark-sized blood-test schema.
pub fn blood_test_schema() -> EventSchema {
    EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("CollectedAt", FieldKind::DateTime))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
        .field(FieldDef::optional("Hemoglobin", FieldKind::Decimal).sensitive())
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
}

/// A schema-valid details instance.
pub fn blood_test_details(person: u64) -> EventDetails {
    EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(person as i64))
        .with(
            "CollectedAt",
            FieldValue::DateTime(Timestamp(1_284_379_200_000)),
        )
        .with("Result", FieldValue::Text("negative".into()))
        .with("Hemoglobin", FieldValue::Decimal("13.5".parse().unwrap()))
        .with(
            "Notes",
            FieldValue::Text("fasting sample, morning draw".into()),
        )
}

/// An identifying tuple for a synthetic person.
pub fn person(id: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(id),
        fiscal_code: format!("FC{id:014}"),
        name: "Mario".into(),
        surname: "Rossi".into(),
    }
}

/// A policy granting `consumer` the non-sensitive clinical fields.
pub fn doctor_policy(id: u64, consumer: ActorId) -> PrivacyPolicy {
    PrivacyPolicy::new(
        PolicyId(id),
        HOSPITAL,
        consumer,
        EventTypeId::v1("blood-test"),
        [Purpose::HealthcareTreatment],
        ["PatientId", "CollectedAt", "Result"].map(String::from),
    )
    .labeled(format!("bench-{id}"), "bench fixture")
}

/// A ready in-memory controller with `consumers` contracted consumer
/// organizations (ids `CONSUMER_BASE..`), the blood-test class declared,
/// one policy per consumer, and a wired gateway.
pub struct MicroWorld {
    /// The controller under test.
    pub controller: DataController<MemBackend>,
    /// Gateway shared with the controller.
    pub gateway: SharedGateway<MemBackend>,
    /// Simulated clock.
    pub clock: SimClock,
    /// Consumer actor ids.
    pub consumers: Vec<ActorId>,
}

/// Build a [`MicroWorld`] over [`DataController::open`] — the path the
/// platform runs — with `shards` in-memory audit and index backends
/// (`1` is the unsharded layout; E15/E19 sweep it) and the controller
/// minting spans into `tracer` ([`Tracer::disabled`] except for E16's
/// traced-vs-untraced comparison).
pub fn micro_world(consumers: usize, shards: usize, tracer: Tracer) -> MicroWorld {
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let config = ControllerConfig::with_clock(Arc::new(clock.clone())).with_tracer(tracer);
    let backends = || (0..shards).map(|_| MemBackend::new()).collect();
    let controller = DataController::open(config, backends(), backends()).unwrap();
    controller
        .register_actor(Actor::organization(HOSPITAL, "Hospital"))
        .unwrap();
    controller
        .sign_contract(HOSPITAL, css_controller::ParticipantRole::Producer)
        .unwrap();
    let mut gw = LocalCooperationGateway::open(HOSPITAL, MemBackend::new()).unwrap();
    gw.register_schema(blood_test_schema()).unwrap();
    let gateway: SharedGateway<MemBackend> = Arc::new(Mutex::new(gw));
    controller.register_gateway(HOSPITAL, Box::new(gateway.clone()));
    controller
        .declare_event_class(&blood_test_schema(), Some("health/laboratory"))
        .unwrap();
    let mut ids = Vec::new();
    for i in 0..consumers {
        let actor = ActorId(CONSUMER_BASE + i as u64);
        controller
            .register_actor(Actor::organization(actor, format!("Consumer {i}")))
            .unwrap();
        controller
            .sign_contract(actor, css_controller::ParticipantRole::Consumer)
            .unwrap();
        controller
            .define_policy(doctor_policy(i as u64 + 1, actor))
            .unwrap();
        ids.push(actor);
    }
    MicroWorld {
        controller,
        gateway,
        clock,
        consumers: ids,
    }
}

impl MicroWorld {
    /// Persist details at the gateway and publish the notification;
    /// returns the global event id.
    pub fn publish_one(&mut self, src: u64) -> css_types::GlobalEventId {
        self.gateway
            .lock()
            .persist(&DetailMessage {
                src_event_id: SourceEventId(src),
                producer: HOSPITAL,
                details: blood_test_details(src),
            })
            .unwrap();
        self.controller
            .publish(
                HOSPITAL,
                person(src),
                "blood test completed".into(),
                EventTypeId::v1("blood-test"),
                Timestamp(1_000_000),
                SourceEventId(src),
                None,
            )
            .unwrap()
            .global_id
    }
}

// ---- the paired-overhead harness (E16, E17) --------------------------------

/// Events in a [`Lane`]'s pre-published corpus.
const EVENTS: u64 = 200;
/// Ops per alternating batch; small enough that dozens of off/on pairs
/// fit even in a smoke run.
const BATCH: u64 = 100;

/// One side of a paired overhead measurement: a world with the corpus
/// published, consumers notified, and the live queues dropped so
/// measured publishes never back up, driven through the E15 mix (70%
/// detail requests, 20% inquiries, 10% publishes) — identical on both
/// sides but for the one thing being priced.
pub struct Lane {
    /// The world under load.
    pub world: MicroWorld,
    event_ids: Vec<GlobalEventId>,
    i: u64,
    src: u64,
    total_ns: u128,
    ops: u64,
}

impl Lane {
    /// A prepared lane whose controller mints spans into `tracer`.
    pub fn new(tracer: Tracer) -> Lane {
        let mut world = micro_world(2, 1, tracer);
        let ty = EventTypeId::v1("blood-test");
        let subs: Vec<_> = world
            .consumers
            .iter()
            .map(|c| world.controller.subscribe(*c, &ty).unwrap())
            .collect();
        let event_ids = (1..=EVENTS).map(|src| world.publish_one(src)).collect();
        for sub in subs {
            while let Some(d) = sub.poll().unwrap() {
                sub.ack(d.delivery_id).unwrap();
            }
            world.controller.unsubscribe(sub).unwrap();
        }
        Lane {
            world,
            event_ids,
            i: 0,
            src: 10_000_000,
            total_ns: 0,
            ops: 0,
        }
    }

    /// One step of the E15 mix.
    fn mixed_op(&mut self) {
        self.i += 1;
        let i = self.i;
        let consumer = self.world.consumers[(i % 2) as usize];
        let ty = EventTypeId::v1("blood-test");
        match i % 10 {
            0..=6 => {
                let id = self.event_ids[(i % self.event_ids.len() as u64) as usize];
                self.world
                    .controller
                    .request_details(consumer, ty, id, Purpose::HealthcareTreatment, None)
                    .unwrap();
            }
            7 | 8 => {
                self.world
                    .controller
                    .inquire_by_person(consumer, PersonId(i % EVENTS + 1), None)
                    .unwrap();
            }
            _ => {
                self.src += 1;
                let src = self.src;
                self.world
                    .gateway
                    .lock()
                    .persist(&DetailMessage {
                        src_event_id: SourceEventId(src),
                        producer: HOSPITAL,
                        details: blood_test_details(src),
                    })
                    .unwrap();
                // Publish to persons *outside* the inquiry range so the
                // measured inquiries stay fixed-cost: otherwise every
                // publish grows a queried person's event list and the
                // drift swamps the ~µs delta being measured.
                self.world
                    .controller
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

    fn run_batch(&mut self, timed: bool) {
        let started = Instant::now();
        for _ in 0..BATCH {
            self.mixed_op();
        }
        if timed {
            self.total_ns += started.elapsed().as_nanos();
            self.ops += BATCH;
        }
    }
}

/// Time two lanes *paired*: warm both, then alternate timed batches
/// until the budget (per lane, the same `CSS_BENCH_MS` knob the
/// criterion shim honors) is spent, so machine noise and any residual
/// state drift hit both configurations equally — two back-to-back
/// single-config runs were observed to disagree by more than the
/// deltas being measured. Prints each series as `<bench>/<label>` in
/// the harness result format (`scripts/bench.sh` folds them into the
/// BENCH JSON) and returns the `(off, on)` ns per op.
pub fn run_paired(bench: &str, lanes: &mut [(&str, Lane); 2]) -> (f64, f64) {
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
    let ns_per_op = |lane: &Lane| lane.total_ns as f64 / lane.ops as f64;
    for (label, lane) in lanes.iter() {
        let id = format!("{bench}/{label}");
        let ns = ns_per_op(lane);
        eprintln!("{id:<45} time: {ns:>10.3} ns/iter (n={})", lane.ops);
    }
    (ns_per_op(&lanes[0].1), ns_per_op(&lanes[1].1))
}

/// A small full-platform scenario for macro benches.
pub fn small_scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        persons: 20,
        family_doctors: 2,
        seed: 7,
    })
    .unwrap()
}

/// Convenience alias for bench signatures.
pub type Platform = CssPlatform<MemoryProvider>;

/// Print an experiment header so bench output doubles as the
/// experiment's result table.
pub fn print_header(experiment: &str, description: &str) {
    eprintln!("\n=== {experiment}: {description} ===");
}
