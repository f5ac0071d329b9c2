//! A control change is journaled before it applies.
//!
//! The controller's policy and consent state has one store, the audit
//! chain: a policy define, a policy revoke and a consent change is each
//! one audit record that carries the change, committed (appended and
//! synced) before the decision point or the consent registry applies it.
//! These tests hold that as behaviour, at 1, 2 and 8 shards. The audit
//! backends of a controller fail their appends while a shared flag is
//! up, and every backend counts its appends and syncs.
//!
//! - With the audit writes failing, a define, a revoke and a consent
//!   change each return the injected storage error and change nothing;
//!   once the writes recover, one retry of each applies and is audited
//!   exactly once.
//! - Each change is one storage append and one sync across all of the
//!   controller's backends.
//! - A contract whose `ContractSigned` record cannot be written is not
//!   signed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use css_audit::{AuditAction, AuditQuery};
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, DataController, ParticipantRole,
};
use css_event::{EventSchema, FieldDef, FieldKind};
use css_policy::PrivacyPolicy;
use css_storage::{LogBackend, MemBackend};
use css_types::{
    Actor, ActorId, Clock, CssError, CssResult, EventTypeId, PersonId, PersonIdentity, Purpose,
    SimClock, SourceEventId, Timestamp,
};

const HOSPITAL: ActorId = ActorId(1);
const DOCTOR: ActorId = ActorId(2);
/// Registered, never contracted.
const CLINIC: ActorId = ActorId(3);
const MARIO: PersonId = PersonId(42);

/// What every backend of one controller has done.
#[derive(Default)]
struct Ledger {
    appends: AtomicUsize,
    syncs: AtomicUsize,
}

/// A log backend whose appends fail while `fail` is up, and which
/// counts its successful appends and its syncs in `ledger`.
struct Probe {
    inner: MemBackend,
    fail: Arc<AtomicBool>,
    ledger: Arc<Ledger>,
}

impl Probe {
    fn new(fail: &Arc<AtomicBool>, ledger: &Arc<Ledger>) -> Self {
        Probe {
            inner: MemBackend::new(),
            fail: Arc::clone(fail),
            ledger: Arc::clone(ledger),
        }
    }
}

impl LogBackend for Probe {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(CssError::Storage("injected".into()));
        }
        self.ledger.appends.fetch_add(1, Ordering::SeqCst);
        self.inner.append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.inner.read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> CssResult<()> {
        self.ledger.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner.truncate(len)
    }
}

fn blood_test() -> EventTypeId {
    EventTypeId::v1("blood-test")
}

/// One controller with its clock, its audit-failure flag and the ledger
/// of all its backends.
struct World {
    c: DataController<Probe>,
    clock: SimClock,
    audit_fails: Arc<AtomicBool>,
    ledger: Arc<Ledger>,
}

/// A controller whose audit shards fail while `audit_fails` is up; its
/// index backends never fail. The hospital has declared blood tests; the
/// doctor is registered and holds no grant; the clinic is registered
/// and has signed nothing.
fn world(shards: usize) -> World {
    let (audit_fails, never) = (Arc::default(), Arc::default());
    let ledger = Arc::new(Ledger::default());
    let probes = |fail| (0..shards).map(|_| Probe::new(fail, &ledger)).collect();
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let c = DataController::open(
        ControllerConfig::with_clock(Arc::new(clock.clone())),
        || Ok(Probe::new(&never, &ledger)),
        probes(&audit_fails),
        probes(&never),
        None,
    )
    .unwrap();
    for (id, name) in [
        (HOSPITAL, "Hospital"),
        (DOCTOR, "Doctor"),
        (CLINIC, "Clinic"),
    ] {
        c.register_actor(Actor::organization(id, name)).unwrap();
    }
    c.sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    c.sign_contract(DOCTOR, ParticipantRole::Consumer).unwrap();
    let schema = EventSchema::new(blood_test(), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    c.declare_event_class(&schema, None).unwrap();
    World {
        c,
        clock,
        audit_fails,
        ledger,
    }
}

impl World {
    fn records(&self, action: AuditAction) -> usize {
        self.c
            .audit_query(&AuditQuery::new().action(action))
            .unwrap()
            .len()
    }

    /// The doctor's grant of blood tests, under the next policy id.
    fn grant(&self) -> PrivacyPolicy {
        PrivacyPolicy::new(
            self.c.next_policy_id(),
            HOSPITAL,
            DOCTOR,
            blood_test(),
            [Purpose::HealthcareTreatment],
            ["PatientId".to_string()],
        )
    }

    fn authorised(&self) -> bool {
        self.c.is_authorized_consumer(DOCTOR, &blood_test())
    }

    /// Whether the consent gate lets a blood test about Mario through:
    /// a publish with source id `src`.
    fn publishes(&self, src: u64) -> bool {
        let mario = PersonIdentity {
            id: MARIO,
            fiscal_code: "FC42".into(),
            name: "Mario".into(),
            surname: "Rossi".into(),
        };
        match self.c.publish(
            HOSPITAL,
            mario,
            "done".into(),
            blood_test(),
            self.clock.now(),
            SourceEventId(src),
        ) {
            Ok(_) => true,
            Err(CssError::ConsentWithheld(_)) => false,
            Err(other) => panic!("publish failed: {other:?}"),
        }
    }

    fn opt_out(&self) -> CssResult<()> {
        let scope = ConsentScope::ProducerEventType(HOSPITAL, blood_test());
        self.c.record_consent(MARIO, scope, ConsentDecision::OptOut)
    }

    /// The appends and syncs `change` made across every backend.
    fn cost(&self, change: impl FnOnce() -> CssResult<()>) -> (usize, usize) {
        let count = || {
            (
                self.ledger.appends.load(Ordering::SeqCst),
                self.ledger.syncs.load(Ordering::SeqCst),
            )
        };
        let before = count();
        change().unwrap();
        let after = count();
        (after.0 - before.0, after.1 - before.1)
    }
}

fn is_injected<T: std::fmt::Debug>(result: CssResult<T>) -> bool {
    matches!(result, Err(CssError::Storage(ref m)) if m == "injected")
}

#[test]
fn a_control_change_whose_audit_write_fails_changes_nothing() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        let grant = w.grant();
        let fail = |up| w.audit_fails.store(up, Ordering::SeqCst);

        fail(true);
        assert!(is_injected(w.c.define_policy(grant.clone())), "{shards}");
        fail(false);
        assert!(!w.authorised(), "{shards}");
        assert_eq!(w.c.policy_count(), 0, "{shards}");
        assert_eq!(w.records(AuditAction::PolicyChange), 0, "{shards}");
        w.c.define_policy(grant.clone()).unwrap();
        assert!(w.authorised(), "{shards}");
        assert_eq!(w.records(AuditAction::PolicyChange), 1, "{shards}");

        fail(true);
        assert!(
            is_injected(w.c.revoke_policy(HOSPITAL, grant.id)),
            "{shards}"
        );
        fail(false);
        assert!(w.authorised(), "{shards}");
        assert_eq!(w.records(AuditAction::PolicyChange), 1, "{shards}");
        w.c.revoke_policy(HOSPITAL, grant.id).unwrap();
        assert!(!w.authorised(), "{shards}");
        assert_eq!(w.records(AuditAction::PolicyChange), 2, "{shards}");

        fail(true);
        assert!(is_injected(w.opt_out()), "{shards}");
        fail(false);
        assert_eq!(w.records(AuditAction::ConsentChange), 0, "{shards}");
        assert!(w.publishes(1), "{shards}");
        w.opt_out().unwrap();
        assert_eq!(w.records(AuditAction::ConsentChange), 1, "{shards}");
        assert!(!w.publishes(2), "{shards}");
    }
}

#[test]
fn a_control_change_is_one_append_and_one_sync() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        let grant = w.grant();
        let id = grant.id;
        assert_eq!(w.cost(|| w.c.define_policy(grant)), (1, 1), "{shards}");
        assert_eq!(
            w.cost(|| w.c.revoke_policy(HOSPITAL, id)),
            (1, 1),
            "{shards}"
        );
        assert_eq!(w.cost(|| w.opt_out()), (1, 1), "{shards}");
    }
}

#[test]
fn a_contract_whose_audit_write_fails_is_not_signed() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        w.audit_fails.store(true, Ordering::SeqCst);
        let signed = w.c.sign_contract(CLINIC, ParticipantRole::Producer);
        assert!(is_injected(signed), "{shards}");
        w.audit_fails.store(false, Ordering::SeqCst);
        let schema = EventSchema::new(EventTypeId::v1("x-ray"), "X-ray", CLINIC)
            .field(FieldDef::required("PatientId", FieldKind::Integer));
        let declared = w.c.declare_event_class(&schema, None);
        assert!(
            matches!(declared, Err(CssError::NoContract(_))),
            "{shards}: {declared:?}"
        );
        assert_eq!(w.records(AuditAction::ContractSigned), 2, "{shards}");
    }
}
