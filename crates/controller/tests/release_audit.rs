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
//! arm and on every deny arm it can reach.
//!
//! Publishing is the one release path not covered yet. The bus makes a
//! publish's notification pollable before the publish's audit batch is
//! committed, so a publish whose audit write fails has already been
//! delivered. Covering it waits on ROADMAP item 18's reorder: index
//! and audit the publish, then route it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use css_audit::{AuditAction, AuditOutcome, AuditQuery, AuditRecord};
use css_bus::SubscriberHandle;
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, DataController, ParticipantRole, SharedGateway,
};
use css_event::{
    DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue, NotificationMessage,
};
use css_gateway::LocalCooperationGateway;
use css_policy::PrivacyPolicy;
use css_storage::{LogBackend, MemBackend};
use css_types::{
    Actor, ActorId, Clock, CssError, CssResult, DenyReason, EventTypeId, GlobalEventId, PersonId,
    PersonIdentity, Purpose, SimClock, SourceEventId, Timestamp,
};
use parking_lot::RwLock;

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
/// in `appends` when they succeed.
struct Probe {
    inner: MemBackend,
    fail: Arc<AtomicBool>,
    appends: Arc<AtomicUsize>,
}

impl LogBackend for Probe {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(CssError::Storage("injected".into()));
        }
        self.appends.fetch_add(1, Ordering::SeqCst);
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

/// One controller with a published history and the events each deny
/// arm is reached through.
struct World {
    controller: DataController<Probe>,
    /// Raised: every audit append fails.
    audit_fails: Arc<AtomicBool>,
    /// Successful appends over every index backend.
    index_appends: Arc<AtomicUsize>,
    /// A blood test about Mario whose details the gateway holds.
    stored: GlobalEventId,
    /// A blood test about Luigi, who opted out after it was published.
    withheld: GlobalEventId,
    /// A blood test about Mario whose details the gateway never stored.
    unstored: GlobalEventId,
    /// An x-ray about Mario, from a producer with no gateway.
    ungated: GlobalEventId,
    _subscriptions: Vec<SubscriberHandle<Arc<NotificationMessage>>>,
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
    let probes = |fail: &Arc<AtomicBool>, appends: &Arc<AtomicUsize>| {
        (0..shards)
            .map(|_| Probe {
                inner: MemBackend::new(),
                fail: Arc::clone(fail),
                appends: Arc::clone(appends),
            })
            .collect()
    };
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let c = DataController::open(
        ControllerConfig::with_clock(Arc::new(clock.clone())),
        || {
            Ok(Probe {
                inner: MemBackend::new(),
                fail: Arc::default(),
                appends: Arc::default(),
            })
        },
        probes(&audit_fails, &audit_appends),
        probes(&index_fails, &index_appends),
        None,
    )
    .unwrap();

    c.register_actor(Actor::organization(HOSPITAL, "Hospital"))
        .unwrap();
    c.register_actor(Actor::organization(CLINIC, "Clinic"))
        .unwrap();
    c.register_actor(Actor::organization(DOCTOR, "Doctor"))
        .unwrap();
    c.register_actor(Actor::organization(WELFARE, "Welfare"))
        .unwrap();
    for (actor, role) in [
        (HOSPITAL, ParticipantRole::Producer),
        (CLINIC, ParticipantRole::Producer),
        (DOCTOR, ParticipantRole::Consumer),
        (WELFARE, ParticipantRole::Consumer),
    ] {
        c.sign_contract(actor, role).unwrap();
    }
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
    for p in [
        policy(&c, HOSPITAL, DOCTOR, blood_test(), HEALTHCARE),
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
        audit_fails,
        index_appends,
        stored,
        withheld,
        unstored,
        ungated,
        _subscriptions: subscriptions,
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

fn records(w: &World) -> Vec<AuditRecord> {
    w.controller.audit_query(&AuditQuery::new()).unwrap()
}

fn check(case: &Case, shards: usize) {
    let w = world(shards);
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
