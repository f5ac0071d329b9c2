//! A policy change is stored before it applies.
//!
//! The controller owns the certified repository of the privacy policies
//! (Section 5): a define or revoke writes the policy's XACML record
//! first, and only then changes the decision point and appends the
//! audit record. This test holds that as behaviour, at 1, 2 and 8
//! shards. The policy backend of a controller fails its appends while a
//! shared flag is up. While it fails, a define and a revoke each return
//! the injected storage error, change no authorisation and append no
//! `PolicyChange` record. Once it recovers, one retry of each applies
//! the change and appends exactly one record.
//!
//! The audit record comes last, so a change whose audit write fails is
//! stored and in force, unaudited. The second test pins that as it is
//! today: a define cannot be retried into an audited one, because the
//! retry is refused as a duplicate (ROADMAP item 18); a revoke's retry
//! stores the revoked copy again and appends its record.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use css_audit::{AuditAction, AuditQuery};
use css_controller::{ControllerConfig, DataController, ParticipantRole};
use css_event::{EventSchema, FieldDef, FieldKind};
use css_policy::PrivacyPolicy;
use css_storage::{LogBackend, MemBackend};
use css_types::{Actor, ActorId, CssError, CssResult, EventTypeId, Purpose, SimClock, Timestamp};

const HOSPITAL: ActorId = ActorId(1);
const DOCTOR: ActorId = ActorId(2);

/// A log backend whose appends fail while `fail` is up.
struct Probe {
    inner: MemBackend,
    fail: Arc<AtomicBool>,
}

impl Probe {
    fn new(fail: &Arc<AtomicBool>) -> Self {
        Probe {
            inner: MemBackend::new(),
            fail: Arc::clone(fail),
        }
    }
}

impl LogBackend for Probe {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(CssError::Storage("injected".into()));
        }
        self.inner.append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.inner.read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner.truncate(len)
    }
}

fn blood_test() -> EventTypeId {
    EventTypeId::v1("blood-test")
}

/// A controller whose policy store fails while the first returned flag
/// is up and whose audit shards fail while the second is; its index
/// backends never fail. The hospital has declared blood tests; the
/// doctor is registered and holds no grant.
fn world(shards: usize) -> (DataController<Probe>, Arc<AtomicBool>, Arc<AtomicBool>) {
    let (store_fails, audit_fails, never) = (Arc::default(), Arc::default(), Arc::default());
    let probes = |fail| (0..shards).map(|_| Probe::new(fail)).collect();
    let c = DataController::open(
        ControllerConfig::with_clock(Arc::new(SimClock::starting_at(Timestamp(1_000_000)))),
        Probe::new(&store_fails),
        probes(&audit_fails),
        probes(&never),
        None,
    )
    .unwrap();
    c.register_actor(Actor::organization(HOSPITAL, "Hospital"))
        .unwrap();
    c.register_actor(Actor::organization(DOCTOR, "Doctor"))
        .unwrap();
    c.sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    c.sign_contract(DOCTOR, ParticipantRole::Consumer).unwrap();
    let schema = EventSchema::new(blood_test(), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    c.declare_event_class(&schema, None).unwrap();
    (c, store_fails, audit_fails)
}

fn policy_changes(c: &DataController<Probe>) -> usize {
    c.audit_query(&AuditQuery::new().action(AuditAction::PolicyChange))
        .unwrap()
        .len()
}

fn is_injected<T: std::fmt::Debug>(result: CssResult<T>) -> bool {
    matches!(result, Err(CssError::Storage(ref m)) if m == "injected")
}

/// The doctor's grant of blood tests, under the next policy id.
fn grant(c: &DataController<Probe>) -> PrivacyPolicy {
    PrivacyPolicy::new(
        c.next_policy_id(),
        HOSPITAL,
        DOCTOR,
        blood_test(),
        [Purpose::HealthcareTreatment],
        ["PatientId".to_string()],
    )
}

#[test]
fn a_policy_change_whose_store_write_fails_changes_and_audits_nothing() {
    for shards in [1, 2, 8] {
        let (c, store_fails, _) = world(shards);
        let grant = grant(&c);
        let authorised = || c.is_authorized_consumer(DOCTOR, &blood_test());

        store_fails.store(true, Ordering::SeqCst);
        assert!(is_injected(c.define_policy(grant.clone())), "{shards}");
        assert!(!authorised(), "{shards}");
        assert_eq!(c.policy_count(), 0, "{shards}");
        assert_eq!(policy_changes(&c), 0, "{shards}");

        store_fails.store(false, Ordering::SeqCst);
        c.define_policy(grant.clone()).unwrap();
        assert!(authorised(), "{shards}");
        assert_eq!(policy_changes(&c), 1, "{shards}");

        store_fails.store(true, Ordering::SeqCst);
        assert!(is_injected(c.revoke_policy(HOSPITAL, grant.id)), "{shards}");
        assert!(authorised(), "{shards}");
        assert_eq!(policy_changes(&c), 1, "{shards}");

        store_fails.store(false, Ordering::SeqCst);
        c.revoke_policy(HOSPITAL, grant.id).unwrap();
        assert!(!authorised(), "{shards}");
        assert_eq!(policy_changes(&c), 2, "{shards}");
    }
}

#[test]
fn a_policy_change_whose_audit_write_fails_is_in_force_unaudited() {
    for shards in [1, 2, 8] {
        let (c, _, audit_fails) = world(shards);
        let grant = grant(&c);
        let authorised = || c.is_authorized_consumer(DOCTOR, &blood_test());

        audit_fails.store(true, Ordering::SeqCst);
        assert!(is_injected(c.define_policy(grant.clone())), "{shards}");
        audit_fails.store(false, Ordering::SeqCst);
        assert!(authorised(), "{shards}");
        assert_eq!(policy_changes(&c), 0, "{shards}");
        let retried = c.define_policy(grant.clone());
        assert!(
            matches!(retried, Err(CssError::AlreadyExists(_))),
            "{shards}: {retried:?}"
        );
        assert_eq!(policy_changes(&c), 0, "{shards}");

        audit_fails.store(true, Ordering::SeqCst);
        assert!(is_injected(c.revoke_policy(HOSPITAL, grant.id)), "{shards}");
        audit_fails.store(false, Ordering::SeqCst);
        assert!(!authorised(), "{shards}");
        assert_eq!(policy_changes(&c), 0, "{shards}");
        c.revoke_policy(HOSPITAL, grant.id).unwrap();
        assert_eq!(policy_changes(&c), 1, "{shards}");
    }
}
