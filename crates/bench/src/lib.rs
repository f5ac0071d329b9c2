//! Shared fixtures for the experiment benches.
//!
//! One bench target per experiment in `DESIGN.md` §5 (E1–E13). Each
//! bench prints the experiment's result series (the "table/figure" being
//! regenerated) to stderr once, then registers Criterion timings for the
//! operations the series is built from. `EXPERIMENTS.md` records the
//! expected shapes.

use std::sync::Arc;

use css_controller::{ControllerConfig, DataController, SharedGateway};
use css_core::{CssPlatform, MemoryProvider};
use css_event::{DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_sim::{Scenario, ScenarioConfig};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{
    Actor, ActorId, EventTypeId, PersonId, PersonIdentity, PolicyId, Purpose, SimClock,
    SourceEventId, Timestamp,
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
