//! Every release is audited, and a release whose audit record cannot be
//! written releases nothing.
//!
//! The Privacy Requirements Analysis needs every disclosure to be
//! traceable: the controller logs each request, permitted or denied,
//! before it answers. This test holds that as behaviour, at 1, 2 and 8
//! shards. The audit backends of a controller fail their appends while a
//! shared flag is up; the index backends count theirs. Each release
//! path then runs twice in one world:
//!
//! - **audit writes failing**: the call returns the injected storage
//!   error, hands out no data and writes no index marker;
//! - **audit writes up**: the call appends exactly one record, with the
//!   expected action, actor, event and decision.
//!
//! The paths are the three index inquiries, the subject's profile and
//! audit-trail views, and the detail request (Algorithm 1) on its permit
//! arm and on every deny arm it can reach — the arm whose data subject
//! cannot be had through the world reopened under another master key.
//!
//! Publishing releases a notification to its subscribers, and its
//! records are written before it is sent. With the audit writes
//! failing, a publish returns the injected error, and nothing is
//! pollable, inquirable or indexed; with the index writes failing,
//! nothing is pollable. Either way the retry is delivered once. A
//! publish the bus refuses for a full queue writes nothing, and a
//! detachment whose record cannot be written detaches nothing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use css_audit::{AuditAction, AuditOutcome, AuditQuery, AuditRecord};
use css_bus::SubscriberHandle;
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, DataController, ParticipantRole,
    PublishReceipt, SharedGateway,
};
use css_event::{
    DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue, NotificationMessage,
};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_storage::{LogBackend, MemBackend};
use css_types::{
    Actor, ActorId, Clock, CssError, CssResult, DenyReason, EventTypeId, GlobalEventId, PersonId,
    PersonIdentity, PolicyId, Purpose, SimClock, SourceEventId, Timestamp,
};
use parking_lot::{Mutex, RwLock};

const HOSPITAL: ActorId = ActorId(1);
const CLINIC: ActorId = ActorId(2);
/// Subscribed to both classes: notified at publish, so it may ask for
/// details.
const DOCTOR: ActorId = ActorId(3);
/// Authorised for blood tests but never subscribed: every inquiry of
/// its owes index markers.
const WELFARE: ActorId = ActorId(4);
/// The platform itself, the actor of a subject's own views.
const PLATFORM: ActorId = ActorId(0);

const HEALTHCARE: Purpose = Purpose::HealthcareTreatment;
/// An id no publish minted.
const UNKNOWN: GlobalEventId = GlobalEventId(999);

const MARIO: PersonId = PersonId(42);
const LUIGI: PersonId = PersonId(43);

/// A log backend whose appends fail while `fail` is up and are counted
/// in `appends` when they succeed. A clone shares the bytes, so a
/// reopened controller reads what the first one wrote.
#[derive(Clone)]
struct Probe {
    inner: Arc<Mutex<MemBackend>>,
    fail: Arc<AtomicBool>,
    appends: Arc<AtomicUsize>,
}

impl LogBackend for Probe {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(CssError::Storage("injected".into()));
        }
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.inner.lock().append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.inner.lock().read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.inner.lock().len()
    }
    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner.lock().truncate(len)
    }
}

/// One controller with a published history and the events each deny
/// arm is reached through.
struct World {
    controller: DataController<Probe>,
    /// The audit and index backends, to reopen the controller over.
    backends: (Vec<Probe>, Vec<Probe>),
    /// Raised: every audit append fails.
    audit_fails: Arc<AtomicBool>,
    /// Raised: every index append fails.
    index_fails: Arc<AtomicBool>,
    /// Successful appends over every audit backend.
    audit_appends: Arc<AtomicUsize>,
    /// Successful appends over every index backend.
    index_appends: Arc<AtomicUsize>,
    /// The doctor's grant of blood tests.
    doctor_grant: PolicyId,
    /// A blood test about Mario whose details the gateway holds.
    stored: GlobalEventId,
    /// A blood test about Luigi, who opted out after it was published.
    withheld: GlobalEventId,
    /// A blood test about Mario whose details the gateway never stored.
    unstored: GlobalEventId,
    /// An x-ray about Mario, from a producer with no gateway.
    ungated: GlobalEventId,
    /// The doctor's subscriptions: blood tests, then x-rays.
    subscriptions: Vec<SubscriberHandle<Arc<NotificationMessage>>>,
}

fn blood_test() -> EventTypeId {
    EventTypeId::v1("blood-test")
}

fn x_ray() -> EventTypeId {
    EventTypeId::v1("x-ray")
}

fn schema(id: EventTypeId, producer: ActorId) -> EventSchema {
    EventSchema::new(id, "Test", producer)
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Result", FieldKind::Text).sensitive())
}

fn person(id: PersonId, name: &str) -> PersonIdentity {
    PersonIdentity {
        id,
        fiscal_code: format!("FC{}", id.0),
        name: name.into(),
        surname: "Rossi".into(),
    }
}

fn policy(
    c: &DataController<Probe>,
    producer: ActorId,
    consumer: ActorId,
    ty: EventTypeId,
    purpose: Purpose,
) -> PrivacyPolicy {
    PrivacyPolicy::new(
        c.next_policy_id(),
        producer,
        consumer,
        ty,
        [purpose],
        ["PatientId".to_string()],
    )
}

fn world(shards: usize) -> World {
    let audit_fails = Arc::new(AtomicBool::new(false));
    let index_fails = Arc::new(AtomicBool::new(false));
    let (audit_appends, index_appends) = (Arc::default(), Arc::new(AtomicUsize::new(0)));
    let probes = |fail: &Arc<AtomicBool>, appends: &Arc<AtomicUsize>| -> Vec<Probe> {
        (0..shards)
            .map(|_| Probe {
                inner: Arc::default(),
                fail: Arc::clone(fail),
                appends: Arc::clone(appends),
            })
            .collect()
    };
    let backends = (
        probes(&audit_fails, &audit_appends),
        probes(&index_fails, &index_appends),
    );
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let c = open(
        ControllerConfig::with_clock(Arc::new(clock.clone())),
        &backends,
    );
    let mut gateway = LocalCooperationGateway::open(HOSPITAL, MemBackend::new()).unwrap();
    gateway
        .register_schema(schema(blood_test(), HOSPITAL))
        .unwrap();
    let gateway: SharedGateway<MemBackend> = Arc::new(RwLock::new(gateway));
    c.register_gateway(HOSPITAL, Box::new(gateway.clone()));
    c.declare_event_class(&schema(blood_test(), HOSPITAL), None)
        .unwrap();
    c.declare_event_class(&schema(x_ray(), CLINIC), None)
        .unwrap();
    let doctor_grant = policy(&c, HOSPITAL, DOCTOR, blood_test(), HEALTHCARE);
    let doctor_grant_id = doctor_grant.id;
    for p in [
        doctor_grant,
        policy(&c, CLINIC, DOCTOR, x_ray(), HEALTHCARE),
        policy(
            &c,
            HOSPITAL,
            WELFARE,
            blood_test(),
            Purpose::SocialAssistance,
        ),
    ] {
        c.define_policy(p).unwrap();
    }
    let subscriptions = vec![
        c.subscribe(DOCTOR, &blood_test()).unwrap(),
        c.subscribe(DOCTOR, &x_ray()).unwrap(),
    ];

    let publish = |producer: ActorId, who: PersonIdentity, ty: EventTypeId, src: u64| {
        c.publish(
            producer,
            who,
            "done".into(),
            ty,
            clock.now(),
            SourceEventId(src),
        )
        .unwrap()
        .global_id
    };
    for src in [1, 2] {
        gateway
            .write()
            .persist(&DetailMessage {
                src_event_id: SourceEventId(src),
                producer: HOSPITAL,
                details: EventDetails::new(blood_test())
                    .with("PatientId", FieldValue::Integer(src as i64))
                    .with("Result", FieldValue::Text("negative".into())),
            })
            .unwrap();
    }
    let stored = publish(HOSPITAL, person(MARIO, "Mario"), blood_test(), 1);
    let withheld = publish(HOSPITAL, person(LUIGI, "Luigi"), blood_test(), 2);
    let unstored = publish(HOSPITAL, person(MARIO, "Mario"), blood_test(), 3);
    let ungated = publish(CLINIC, person(MARIO, "Mario"), x_ray(), 1);
    c.record_consent(
        LUIGI,
        ConsentScope::Producer(HOSPITAL),
        ConsentDecision::OptOut,
    )
    .unwrap();
    World {
        controller: c,
        backends,
        audit_fails,
        index_fails,
        audit_appends,
        index_appends,
        doctor_grant: doctor_grant_id,
        stored,
        withheld,
        unstored,
        ungated,
        subscriptions,
    }
}

/// A controller over clones of `backends`, its actors registered and
/// their contracts signed.
fn open(
    config: ControllerConfig,
    (audit, index): &(Vec<Probe>, Vec<Probe>),
) -> DataController<Probe> {
    let legacy = || {
        Ok(Probe {
            inner: Arc::default(),
            fail: Arc::default(),
            appends: Arc::default(),
        })
    };
    let c = DataController::open(config, legacy, audit.clone(), index.clone(), None).unwrap();
    for (actor, name, role) in [
        (HOSPITAL, "Hospital", ParticipantRole::Producer),
        (CLINIC, "Clinic", ParticipantRole::Producer),
        (DOCTOR, "Doctor", ParticipantRole::Consumer),
        (WELFARE, "Welfare", ParticipantRole::Consumer),
    ] {
        c.register_actor(Actor::organization(actor, name)).unwrap();
        c.sign_contract(actor, role).unwrap();
    }
    c
}

impl World {
    /// The same world reopened under another master key: the index
    /// still resolves every event and its notified consumers, but no
    /// citizen's sealed identity opens.
    fn rekeyed(mut self) -> World {
        let config = ControllerConfig {
            master_key: b"another-master-key".to_vec(),
            ..ControllerConfig::with_clock(Arc::new(SimClock::starting_at(Timestamp(2_000_000))))
        };
        self.controller = open(config, &self.backends);
        self
    }
}

/// The one record a release path appends: action, actor, event, and
/// `None` for a permit or the deny reason's prefix.
type Expected = (AuditAction, ActorId, Option<GlobalEventId>, Option<String>);

/// What a release path must do.
struct Case {
    name: &'static str,
    /// Runs the path and counts the non-empty values it handed out.
    run: fn(&World) -> CssResult<usize>,
    /// With the audit writing: the refusal's own error (`None`: the
    /// path answers with data).
    refusal: Option<fn(&CssError) -> bool>,
    record: fn(&World) -> Expected,
    /// Whether the path owes index markers (an inquiry by a consumer
    /// not yet notified).
    marks: bool,
}

fn detail(
    w: &World,
    actor: ActorId,
    ty: EventTypeId,
    event: GlobalEventId,
    purpose: Purpose,
) -> CssResult<usize> {
    w.controller
        .request_details(actor, ty, event, purpose)
        .map(|e| {
            e.details
                .iter()
                .filter(|(_, v)| **v != FieldValue::Empty)
                .count()
        })
}

fn denied(actor: ActorId, event: GlobalEventId, reason: impl ToString) -> Expected {
    let reason = Some(reason.to_string());
    (AuditAction::DetailRequest, actor, Some(event), reason)
}

const INQUIRY: Expected = (AuditAction::IndexInquiry, WELFARE, None, None);
const SUBJECT_ACCESS: Expected = (AuditAction::SubjectAccess, PLATFORM, None, None);

const CASES: &[Case] = &[
    Case {
        name: "inquire_by_person",
        run: |w| {
            w.controller
                .inquire_by_person(WELFARE, MARIO)
                .map(|v| v.len())
        },
        refusal: None,
        record: |_| INQUIRY,
        marks: true,
    },
    Case {
        name: "inquire_by_type",
        run: |w| {
            let found = w.controller.inquire_by_type(WELFARE, &blood_test());
            found.map(|v| v.len())
        },
        refusal: None,
        record: |_| INQUIRY,
        marks: true,
    },
    Case {
        name: "inquire_between",
        run: |w| {
            let found = w
                .controller
                .inquire_between(WELFARE, Timestamp(0), Timestamp(u64::MAX));
            found.map(|v| v.len())
        },
        refusal: None,
        record: |_| INQUIRY,
        marks: true,
    },
    Case {
        name: "subject_profile",
        run: |w| w.controller.subject_profile(MARIO).map(|v| v.len()),
        refusal: None,
        record: |_| SUBJECT_ACCESS,
        marks: false,
    },
    Case {
        name: "subject_audit_trail",
        run: |w| w.controller.subject_audit_trail(MARIO).map(|v| v.len()),
        refusal: None,
        record: |_| SUBJECT_ACCESS,
        marks: false,
    },
    Case {
        name: "request_details: permit",
        run: |w| detail(w, DOCTOR, blood_test(), w.stored, HEALTHCARE),
        refusal: None,
        record: |w| (AuditAction::DetailRequest, DOCTOR, Some(w.stored), None),
        marks: false,
    },
    Case {
        name: "request_details: not found",
        run: |w| detail(w, DOCTOR, blood_test(), UNKNOWN, HEALTHCARE),
        refusal: Some(|e| matches!(e, CssError::NotFound(_))),
        record: |_| denied(DOCTOR, UNKNOWN, "event not found in index"),
        marks: false,
    },
    Case {
        name: "request_details: type mismatch",
        run: |w| detail(w, DOCTOR, x_ray(), w.stored, HEALTHCARE),
        refusal: Some(|e| matches!(e, CssError::Invalid(_))),
        record: |w| denied(DOCTOR, w.stored, "declared event type mismatch"),
        marks: false,
    },
    Case {
        name: "request_details: not notified",
        run: |w| {
            detail(
                w,
                WELFARE,
                blood_test(),
                w.stored,
                Purpose::SocialAssistance,
            )
        },
        refusal: Some(|e| *e == CssError::AccessDenied(DenyReason::NotNotified)),
        record: |w| denied(WELFARE, w.stored, DenyReason::NotNotified),
        marks: false,
    },
    Case {
        name: "request_details: consent withheld",
        run: |w| detail(w, DOCTOR, blood_test(), w.withheld, HEALTHCARE),
        refusal: Some(|e| *e == CssError::AccessDenied(DenyReason::ConsentWithheld)),
        record: |w| denied(DOCTOR, w.withheld, DenyReason::ConsentWithheld),
        marks: false,
    },
    Case {
        name: "request_details: PDP deny",
        run: |w| {
            detail(
                w,
                DOCTOR,
                blood_test(),
                w.stored,
                Purpose::StatisticalAnalysis,
            )
        },
        refusal: Some(|e| *e == CssError::AccessDenied(DenyReason::PurposeNotAllowed)),
        record: |w| denied(DOCTOR, w.stored, DenyReason::PurposeNotAllowed),
        marks: false,
    },
    Case {
        name: "request_details: no gateway",
        run: |w| detail(w, DOCTOR, x_ray(), w.ungated, HEALTHCARE),
        refusal: Some(|e| matches!(e, CssError::NotFound(_))),
        record: |w| denied(DOCTOR, w.ungated, "producer gateway not registered"),
        marks: false,
    },
    Case {
        name: "request_details: gateway failure",
        run: |w| detail(w, DOCTOR, blood_test(), w.unstored, HEALTHCARE),
        refusal: Some(|e| matches!(e, CssError::NotFound(_))),
        record: |w| denied(DOCTOR, w.unstored, "gateway failure: "),
        marks: false,
    },
];

/// Reached only in a [`World::rekeyed`].
const SUBJECT_UNAVAILABLE: Case = Case {
    name: "request_details: data subject unavailable",
    run: |w| detail(w, DOCTOR, blood_test(), w.stored, HEALTHCARE),
    refusal: Some(|e| matches!(e, CssError::Crypto(_))),
    record: |w| denied(DOCTOR, w.stored, "data subject unavailable"),
    marks: false,
};

fn records(w: &World) -> Vec<AuditRecord> {
    w.controller.audit_query(&AuditQuery::new()).unwrap()
}

fn check(case: &Case, shards: usize) {
    check_in(world(shards), case, shards);
}

fn check_in(w: World, case: &Case, shards: usize) {
    let at = format!("{} at {shards} shard(s)", case.name);

    // Audit writes failing: nothing is handed out, nothing is marked.
    let before = records(&w);
    let marked = w.index_appends.load(Ordering::SeqCst);
    w.audit_fails.store(true, Ordering::SeqCst);
    let failed = (case.run)(&w);
    w.audit_fails.store(false, Ordering::SeqCst);
    match failed {
        Err(CssError::Storage(msg)) => assert!(msg.contains("injected"), "{at}: {msg}"),
        other => panic!("{at}: with the audit failing it answered {other:?}"),
    }
    assert_eq!(
        w.index_appends.load(Ordering::SeqCst),
        marked,
        "{at}: an index marker was written without its audit record"
    );
    assert_eq!(
        records(&w),
        before,
        "{at}: a failed audit write left a record"
    );

    // Audit writes up: exactly one record, the expected one.
    match ((case.run)(&w), case.refusal) {
        (Ok(n), None) => assert!(n > 0, "{at}: released nothing"),
        (Err(e), Some(expected)) => assert!(expected(&e), "{at}: refused with {e:?}"),
        (other, _) => panic!("{at}: answered {other:?}"),
    }
    let after = records(&w);
    assert_eq!(after.len(), before.len() + 1, "{at}");
    let new: Vec<&AuditRecord> = after.iter().filter(|r| !before.contains(r)).collect();
    assert_eq!(new.len(), 1, "{at}: appended {new:?}");
    let (action, actor, event, denied) = (case.record)(&w);
    let got = new[0];
    assert_eq!(
        (got.action, got.actor, got.event),
        (action, actor, event),
        "{at}"
    );
    match (&got.outcome, denied) {
        (AuditOutcome::Permitted, None) => {}
        (AuditOutcome::Denied(reason), Some(prefix)) => {
            assert!(reason.starts_with(&prefix), "{at}: denied with {reason:?}")
        }
        (outcome, denied) => panic!("{at}: recorded {outcome:?}, expected {denied:?}"),
    }
    let marked_now = w.index_appends.load(Ordering::SeqCst) > marked;
    assert_eq!(marked_now, case.marks, "{at}: index markers written");
}

#[test]
fn every_release_is_audited_and_none_outlives_a_failed_audit_write() {
    for shards in [1, 2, 8] {
        for case in CASES {
            check(case, shards);
        }
    }
}

#[test]
fn a_request_whose_data_subject_cannot_be_had_is_audited() {
    for shards in [1, 2, 8] {
        check_in(world(shards).rekeyed(), &SUBJECT_UNAVAILABLE, shards);
    }
}

/// A blood test about Mario with source id `src`, published now.
fn publish_mario(w: &World, src: u64) -> CssResult<PublishReceipt> {
    w.controller.publish(
        HOSPITAL,
        person(MARIO, "Mario"),
        "done".into(),
        blood_test(),
        w.controller.now(),
        SourceEventId(src),
    )
}

/// The blood tests the doctor's subscription holds, taken off it.
fn polled(w: &World) -> Vec<GlobalEventId> {
    let taken = w.subscriptions[0].drain().unwrap();
    taken.iter().map(|n| n.global_id).collect()
}

/// The events about Mario the doctor's inquiry returns.
fn inquirable(w: &World) -> Vec<GlobalEventId> {
    let found = w.controller.inquire_by_person(DOCTOR, MARIO).unwrap();
    found.iter().map(|n| n.global_id).collect()
}

fn count(w: &World, action: AuditAction) -> usize {
    records(w).iter().filter(|r| r.action == action).count()
}

/// The audited detachments of the doctor.
fn detachments(w: &World) -> usize {
    let denied = AuditQuery::new()
        .action(AuditAction::Subscribe)
        .actor(DOCTOR)
        .denied_only();
    let found = w.controller.audit_query(&denied).unwrap();
    found
        .iter()
        .filter(|r| r.detail.starts_with("detached "))
        .count()
}

fn is_injected<T: std::fmt::Debug>(result: &CssResult<T>) -> bool {
    matches!(result, Err(CssError::Storage(m)) if m == "injected")
}

/// A publish whose Publish and Delivery records cannot be written
/// releases nothing: not to its subscriber, not to an inquiry, not to
/// the index. Its retry is delivered once.
#[test]
fn a_publish_whose_audit_write_fails_releases_nothing_and_its_retry_publishes_once() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        polled(&w);
        let seen = inquirable(&w);
        let (indexed, before) = (w.controller.index_len(), records(&w));

        w.audit_fails.store(true, Ordering::SeqCst);
        let failed = publish_mario(&w, 10);
        w.audit_fails.store(false, Ordering::SeqCst);
        assert!(is_injected(&failed), "{shards} shard(s): {failed:?}");
        assert_eq!(polled(&w), [], "{shards} shard(s): pollable unaudited");
        assert_eq!(w.controller.index_len(), indexed, "{shards} shard(s)");
        assert_eq!(records(&w), before, "{shards} shard(s)");
        assert_eq!(
            inquirable(&w),
            seen,
            "{shards} shard(s): inquirable unaudited"
        );

        let retry = publish_mario(&w, 10).unwrap();
        assert_eq!(retry.notified, [DOCTOR], "{shards} shard(s)");
        assert_eq!(polled(&w), [retry.global_id], "{shards} shard(s)");
        assert_eq!(w.controller.index_len(), indexed + 1, "{shards} shard(s)");
    }
}

/// A publish whose index entry cannot be written is not delivered; its
/// records stand as an audited attempt, and its retry is delivered
/// once.
#[test]
fn a_publish_whose_index_write_fails_is_not_delivered_and_its_retry_is_delivered_once() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        polled(&w);
        let (indexed, published) = (w.controller.index_len(), count(&w, AuditAction::Publish));

        w.index_fails.store(true, Ordering::SeqCst);
        let failed = publish_mario(&w, 10);
        w.index_fails.store(false, Ordering::SeqCst);
        assert!(is_injected(&failed), "{shards} shard(s): {failed:?}");
        assert_eq!(polled(&w), [], "{shards} shard(s): pollable unindexed");

        let retry = publish_mario(&w, 10).unwrap();
        assert_eq!(polled(&w), [retry.global_id], "{shards} shard(s)");
        assert_eq!(w.controller.index_len(), indexed + 1, "{shards} shard(s)");
        let attempts = count(&w, AuditAction::Publish) - published;
        assert_eq!(
            attempts, 2,
            "{shards} shard(s): the failed attempt and the retry"
        );
    }
}

/// A publish the bus refuses for a full queue is refused before any
/// write: no audit append, no index append.
#[test]
fn a_publish_refused_for_a_full_queue_makes_no_append() {
    for shards in [1, 2, 8] {
        let w = world(shards);
        polled(&w);
        for src in 0..css_bus::QUEUE_CAPACITY as u64 {
            publish_mario(&w, 100 + src).unwrap();
        }
        let appends = || {
            (
                w.audit_appends.load(Ordering::SeqCst),
                w.index_appends.load(Ordering::SeqCst),
            )
        };
        let before = appends();
        let refused = publish_mario(&w, 10);
        assert!(
            matches!(refused, Err(CssError::Bus(_))),
            "{shards} shard(s): {refused:?}"
        );
        assert_eq!(appends(), before, "{shards} shard(s)");
        assert_eq!(
            polled(&w).len(),
            css_bus::QUEUE_CAPACITY,
            "{shards} shard(s)"
        );
        let retry = publish_mario(&w, 10).unwrap();
        assert_eq!(polled(&w), [retry.global_id], "{shards} shard(s)");
    }
}

/// A revoked consumer whose detachment cannot be audited stays
/// attached: the publish that found it fails and detaches nothing.
/// After recovery the next publish detaches it and audits that once;
/// re-granted first, the consumer is still a receiver.
#[test]
fn a_detachment_that_cannot_be_audited_detaches_nothing() {
    for shards in [1, 2, 8] {
        for regrant in [false, true] {
            let at = format!("{shards} shard(s), re-granted: {regrant}");
            let w = world(shards);
            polled(&w);
            w.controller
                .revoke_policy(HOSPITAL, w.doctor_grant)
                .unwrap();
            w.audit_fails.store(true, Ordering::SeqCst);
            let failed = publish_mario(&w, 10);
            w.audit_fails.store(false, Ordering::SeqCst);
            assert!(is_injected(&failed), "{at}: {failed:?}");
            assert_eq!(detachments(&w), 0, "{at}");

            if regrant {
                let grant = policy(&w.controller, HOSPITAL, DOCTOR, blood_test(), HEALTHCARE);
                w.controller.define_policy(grant).unwrap();
            }
            let receipt = publish_mario(&w, 10).unwrap();
            let notified: &[ActorId] = if regrant { &[DOCTOR] } else { &[] };
            assert_eq!(receipt.notified, notified, "{at}");
            let delivered: &[GlobalEventId] = if regrant { &[receipt.global_id] } else { &[] };
            assert_eq!(polled(&w), delivered, "{at}");
            assert_eq!(detachments(&w), usize::from(!regrant), "{at}");
            w.controller.verify_audit().unwrap();
        }
    }
}
