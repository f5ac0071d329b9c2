//! Shard-count transparency: a sharded controller must be
//! observationally equivalent to a single-shard one.
//!
//! The property drives the *same* random interleaving of publishes,
//! person inquiries, detail requests, and policy revocations/re-grants
//! against 1-, 2- and 8-shard controllers — each opened through the one
//! constructor, so the counts do not depend on host cores — and asserts
//! that every
//! observable output matches step by step: publish receipts, inquiry
//! result sets (scatter-gather must preserve the single-index
//! ordering), allow/deny decisions on detail requests (the segmented
//! decision cache must honor the global revocation generation), the
//! full audit record stream (global sequencer order), and chain
//! verification.

use std::cell::Cell;
use std::sync::Arc;

use css_audit::AuditQuery;
use css_controller::{ControllerConfig, DataController, ParticipantRole, SharedGateway};
use css_event::{DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_storage::MemBackend;
use css_types::{
    Actor, ActorId, EventTypeId, GlobalEventId, PersonId, PersonIdentity, PolicyId, Purpose,
    SimClock, SourceEventId, Timestamp,
};
use parking_lot::RwLock;
use proptest::prelude::*;

const HOSPITAL: ActorId = ActorId(1);
const DOCTOR: ActorId = ActorId(100);
const WELFARE: ActorId = ActorId(101);
const PERSONS: u64 = 20;

fn schema() -> EventSchema {
    EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
}

fn details(person: u64) -> EventDetails {
    EventDetails::new(EventTypeId::v1("blood-test"))
        .with("PatientId", FieldValue::Integer(person as i64))
        .with("Result", FieldValue::Text("negative".into()))
}

fn person(id: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(id),
        fiscal_code: format!("FC{id:014}"),
        name: "Mario".into(),
        surname: "Rossi".into(),
    }
}

fn policy(id: PolicyId, consumer: ActorId) -> PrivacyPolicy {
    PrivacyPolicy::new(
        id,
        HOSPITAL,
        consumer,
        EventTypeId::v1("blood-test"),
        [Purpose::HealthcareTreatment],
        ["PatientId", "Result"].map(String::from),
    )
}

struct World {
    controller: DataController<MemBackend>,
    gateway: SharedGateway<MemBackend>,
    /// The doctor's latest grant: the one the toggle revokes.
    doctor_grant: Cell<PolicyId>,
}

fn world(shards: usize) -> World {
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let config = ControllerConfig::with_clock(Arc::new(clock));
    let backends = || (0..shards).map(|_| MemBackend::new()).collect();
    let controller = DataController::open(
        config,
        || Ok(MemBackend::new()),
        backends(),
        backends(),
        None,
    )
    .unwrap();
    controller
        .register_actor(Actor::organization(HOSPITAL, "Hospital"))
        .unwrap();
    controller
        .register_actor(Actor::organization(DOCTOR, "Family Doctor"))
        .unwrap();
    controller
        .register_actor(Actor::organization(WELFARE, "Social Welfare"))
        .unwrap();
    controller
        .sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    controller
        .sign_contract(DOCTOR, ParticipantRole::Consumer)
        .unwrap();
    controller
        .sign_contract(WELFARE, ParticipantRole::Consumer)
        .unwrap();
    let mut gw = LocalCooperationGateway::open(HOSPITAL, MemBackend::new()).unwrap();
    gw.register_schema(schema()).unwrap();
    let gateway: SharedGateway<MemBackend> = Arc::new(RwLock::new(gw));
    controller.register_gateway(HOSPITAL, Box::new(gateway.clone()));
    controller
        .declare_event_class(&schema(), Some("health/laboratory"))
        .unwrap();
    controller
        .define_policy(policy(PolicyId(1), DOCTOR))
        .unwrap();
    controller
        .define_policy(policy(PolicyId(2), WELFARE))
        .unwrap();
    World {
        controller,
        gateway,
        doctor_grant: Cell::new(PolicyId(1)),
    }
}

/// One interpreted step against a world; the return value is the
/// observation the two worlds must agree on.
fn step(w: &World, op: u8, x: u64, src: &mut u64, published: &mut Vec<GlobalEventId>) -> String {
    let ty = EventTypeId::v1("blood-test");
    match op {
        // Publish an event about citizen `x` (fresh source id).
        0 | 1 => {
            *src += 1;
            w.gateway
                .write()
                .persist(&DetailMessage {
                    src_event_id: SourceEventId(*src),
                    producer: HOSPITAL,
                    details: details(x),
                })
                .unwrap();
            let r = w.controller.publish(
                HOSPITAL,
                person(x),
                "blood test completed".into(),
                ty,
                Timestamp(2_000_000 + *src),
                SourceEventId(*src),
            );
            if let Ok(receipt) = &r {
                published.push(receipt.global_id);
            }
            format!("{r:?}")
        }
        // Inquire citizen `x` as the doctor.
        2 => format!("{:?}", w.controller.inquire_by_person(DOCTOR, PersonId(x))),
        // Request details of a published event; consumer by parity, so
        // the revoke toggle below flips these between allow and deny.
        3 => {
            if published.is_empty() {
                return "skip".into();
            }
            let id = published[(x % published.len() as u64) as usize];
            let consumer = if x.is_multiple_of(2) { DOCTOR } else { WELFARE };
            format!(
                "{:?}",
                w.controller
                    .request_details(consumer, ty, id, Purpose::HealthcareTreatment)
            )
        }
        // Toggle the doctor's access: revoke its latest grant on even,
        // grant it again under a fresh id on odd.
        _ => {
            if x.is_multiple_of(2) {
                format!(
                    "{:?}",
                    w.controller.revoke_policy(HOSPITAL, w.doctor_grant.get())
                )
            } else {
                let id = w.controller.next_policy_id();
                w.doctor_grant.set(id);
                format!("{:?}", w.controller.define_policy(policy(id, DOCTOR)))
            }
        }
    }
}

proptest! {
    /// Random publish / inquiry / detail-request / revoke interleavings
    /// observe identical behavior on 1-, 2- and 8-shard controllers.
    #[test]
    fn sharded_controller_is_observationally_equivalent(
        ops in proptest::collection::vec((0u8..5, 1u64..200), 1..80),
    ) {
        let worlds = [world(1), world(2), world(8)];
        for (w, n) in worlds.iter().zip([1, 2, 8]) {
            prop_assert_eq!(w.controller.shard_count(), n);
        }
        let (single, sharded) = worlds.split_first().expect("three worlds");

        let mut srcs = [0u64; 3];
        let mut published = [Vec::new(), Vec::new(), Vec::new()];
        for (op, raw) in ops {
            let x = raw % PERSONS + 1;
            // `raw` (not `x`) picks detail-request targets and the
            // revoke/re-grant direction so they cover the full range.
            let arg = if op >= 3 { raw } else { x };
            let seen: Vec<String> = worlds
                .iter()
                .zip(srcs.iter_mut().zip(published.iter_mut()))
                .map(|(w, (src, published))| step(w, op, arg, src, published))
                .collect();
            prop_assert_eq!(&seen[0], &seen[1]);
            prop_assert_eq!(&seen[0], &seen[2]);
        }

        // Every citizen's inquiry comes back identical — scatter-gather
        // across shards must reproduce the single-index ordering. (Each
        // inquiry is itself audited, so every world is asked once.)
        let inquire_all = |w: &World| -> Vec<String> {
            (1..=PERSONS)
                .map(|p| format!("{:?}", w.controller.inquire_by_person(DOCTOR, PersonId(p))))
                .collect()
        };
        let inquiries = inquire_all(single);
        let audit = single.controller.audit_query(&AuditQuery::new()).unwrap();
        prop_assert!(single.controller.verify_audit().is_ok());
        for other in sharded {
            prop_assert_eq!(&inquiries, &inquire_all(other));

            // The audit streams match record for record (global seq
            // order), and the sharded chains verify.
            let audit_b = other.controller.audit_query(&AuditQuery::new()).unwrap();
            prop_assert_eq!(format!("{audit:?}"), format!("{audit_b:?}"));
            prop_assert!(other.controller.verify_audit().is_ok());
            prop_assert_eq!(single.controller.index_len(), other.controller.index_len());
            prop_assert_eq!(
                single.controller.index_len(),
                other.controller.index_shard_lens().iter().sum::<usize>()
            );
        }
    }
}
