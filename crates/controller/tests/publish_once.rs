//! A source event is published once, at 1, 2 and 8 shards.
//!
//! The index plane holds the id of every `(producer, src_event_id)` it
//! indexed and rebuilds that map from its log at open; a publish claims
//! its source event there before it mints an id. So a retry of a source
//! event already published is refused with `AlreadyExists` however many
//! other publishes came between and across a reopen, and the refusal
//! mints no id, routes nothing and writes no index entry or audit
//! record: `index_len`, `audit_len` and every subscription's backlog are
//! what they were, and the next publish gets the next id.

use std::sync::Arc;

use css_bus::SubscriberHandle;
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, DataController, ParticipantRole,
};
use css_event::{EventSchema, FieldDef, FieldKind, NotificationMessage};
use css_policy::PrivacyPolicy;
use css_storage::{FileBackend, LogBackend, MemBackend};
use css_types::{
    Actor, ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    Purpose, SimClock, SourceEventId, Timestamp,
};

const HOSPITAL: ActorId = ActorId(1);
const DOCTOR: ActorId = ActorId(2);
const WELFARE: ActorId = ActorId(3);
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn blood_test() -> EventTypeId {
    EventTypeId::v1("blood-test")
}

fn person(id: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(id),
        fiscal_code: format!("FC{id}"),
        name: "Mario".into(),
        surname: "Rossi".into(),
    }
}

/// A controller over one backend per name, with its actors, contracts
/// and class set up (they live in memory) and, on a `fresh` plane, a
/// policy for each consumer (policies are journaled and replay).
fn open<B: LogBackend>(
    shards: usize,
    backend: impl Fn(String) -> B,
    anchor: Option<B>,
    fresh: bool,
) -> DataController<B> {
    let clock = SimClock::starting_at(Timestamp(1_000_000));
    let config = ControllerConfig::with_clock(Arc::new(clock));
    let backends = |plane: &str| {
        (0..shards)
            .map(|i| backend(format!("{plane}-{i}")))
            .collect()
    };
    let c = DataController::open(
        config,
        || Ok(backend("policies".into())),
        backends("audit"),
        backends("index"),
        anchor,
    )
    .unwrap();
    c.register_actor(Actor::organization(HOSPITAL, "Hospital"))
        .unwrap();
    for consumer in [DOCTOR, WELFARE] {
        c.register_actor(Actor::organization(consumer, "Consumer"))
            .unwrap();
        c.sign_contract(consumer, ParticipantRole::Consumer)
            .unwrap();
    }
    c.sign_contract(HOSPITAL, ParticipantRole::Producer)
        .unwrap();
    let schema = EventSchema::new(blood_test(), "Blood Test", HOSPITAL)
        .field(FieldDef::required("PatientId", FieldKind::Integer));
    c.declare_event_class(&schema, None).unwrap();
    if fresh {
        for consumer in [DOCTOR, WELFARE] {
            let policy = PrivacyPolicy::new(
                c.next_policy_id(),
                HOSPITAL,
                consumer,
                blood_test(),
                [Purpose::HealthcareTreatment],
                ["PatientId".to_string()],
            );
            c.define_policy(policy).unwrap();
        }
    }
    c
}

fn in_memory(shards: usize) -> DataController<MemBackend> {
    open(shards, |_| MemBackend::new(), None, true)
}

type Subscription = SubscriberHandle<Arc<NotificationMessage>>;

fn subscribe<B: LogBackend>(c: &DataController<B>) -> Vec<Subscription> {
    [DOCTOR, WELFARE]
        .map(|consumer| c.subscribe(consumer, &blood_test()).unwrap())
        .into()
}

fn publish<B: LogBackend>(c: &DataController<B>, src: u64) -> CssResult<GlobalEventId> {
    let receipt = c.publish(
        HOSPITAL,
        person(src % 50),
        "blood test completed".into(),
        blood_test(),
        c.now(),
        SourceEventId(src),
    )?;
    Ok(receipt.global_id)
}

/// Take and acknowledge everything queued for `subs`.
fn drain(subs: &[Subscription]) {
    for sub in subs {
        while let Some(delivery) = sub.poll().unwrap() {
            sub.ack(delivery.delivery_id).unwrap();
        }
    }
}

/// What a refused publish must leave as it was.
fn footprint<B: LogBackend>(c: &DataController<B>, subs: &[Subscription]) -> Vec<usize> {
    let backlogs = subs.iter().map(|sub| sub.backlog().unwrap());
    [c.index_len(), c.audit_len()]
        .into_iter()
        .chain(backlogs)
        .collect()
}

/// A retry of `src`, published as `id`, is refused, naming the id, and
/// changes nothing.
fn assert_refused<B: LogBackend>(
    c: &DataController<B>,
    subs: &[Subscription],
    src: u64,
    id: GlobalEventId,
) {
    let before = footprint(c, subs);
    match publish(c, src) {
        Err(CssError::AlreadyExists(m)) => assert!(m.contains(&id.to_string()), "{m}"),
        other => panic!("retry of src {src}: {other:?}"),
    }
    assert_eq!(footprint(c, subs), before, "retry of src {src}");
}

#[test]
fn a_retry_after_4097_other_publishes_is_refused() {
    for shards in SHARD_COUNTS {
        let c = in_memory(shards);
        let subs = subscribe(&c);
        let first = publish(&c, 1).unwrap();
        for src in 2..=4_098 {
            publish(&c, src).unwrap();
            drain(&subs);
        }
        assert_refused(&c, &subs, 1, first);
        assert_eq!(publish(&c, 4_099).unwrap(), GlobalEventId(4_099));
        assert_eq!(c.index_len(), 4_099, "{shards} shards");
    }
}

#[test]
fn a_retry_after_a_reopen_is_refused() {
    for shards in SHARD_COUNTS {
        let dir =
            std::env::temp_dir().join(format!("css-publish-once-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: String| FileBackend::open(dir.join(format!("{name}.log"))).unwrap();
        let anchor = || Some(file("audit-anchor".into()));
        let published: Vec<GlobalEventId> = {
            let c = open(shards, file, anchor(), true);
            (1..=3).map(|src| publish(&c, src).unwrap()).collect()
        };
        let c = open(shards, file, anchor(), false);
        let subs = subscribe(&c);
        assert_eq!(c.index_len(), 3);
        for (src, id) in (1..=3).zip(published) {
            assert_refused(&c, &subs, src, id);
        }
        assert_eq!(publish(&c, 4).unwrap(), GlobalEventId(4));
        drop((subs, c));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_publish_after_a_refused_retry_gets_the_next_id() {
    for shards in SHARD_COUNTS {
        let c = in_memory(shards);
        let subs = subscribe(&c);
        let first = publish(&c, 1).unwrap();
        assert_refused(&c, &subs, 1, first);
        // A source id the plane cannot hold is refused alike.
        let before = footprint(&c, &subs);
        assert!(matches!(publish(&c, 1 << 36), Err(CssError::Invalid(_))));
        assert_eq!(footprint(&c, &subs), before);
        assert_eq!(publish(&c, 2).unwrap(), GlobalEventId(first.value() + 1));
    }
}

/// A publish refused before its entry is linked gives its claim back:
/// the retry, once consent is back or the queue drained, is published.
#[test]
fn a_publish_refused_before_it_is_indexed_gives_its_claim_back() {
    for shards in SHARD_COUNTS {
        let c = in_memory(shards);
        let subs = subscribe(&c);
        let opted_out = person(7).id;
        c.record_consent(opted_out, ConsentScope::All, ConsentDecision::OptOut)
            .unwrap();
        assert!(matches!(publish(&c, 7), Err(CssError::ConsentWithheld(_))));
        c.record_consent(opted_out, ConsentScope::All, ConsentDecision::OptIn)
            .unwrap();
        let first = publish(&c, 7).unwrap();
        assert_refused(&c, &subs, 7, first);

        // Fill the queues, then a rejected publish; drained, it goes.
        let full = css_bus::QUEUE_CAPACITY as u64 - 1;
        for src in 100..100 + full {
            publish(&c, src).unwrap();
        }
        let rejected = 100 + full;
        assert!(matches!(publish(&c, rejected), Err(CssError::Bus(_))));
        drain(&subs);
        let id = publish(&c, rejected).unwrap();
        assert_refused(&c, &subs, rejected, id);
    }
}
