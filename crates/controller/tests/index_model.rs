//! The events index against a reference model: a plain list of entries
//! and, per backend, the records written to it. Random sequences of
//! inserts, inquiries (by person and over id lists), profile views,
//! detail requests and reopens at 1, 2 or 8 shards must answer as the
//! list does, and every backend must hold exactly the bytes a fresh
//! encode of its records gives. Black-box: only the public surface of
//! [`IndexShards`] and [`EventsIndex`] is read.

use std::collections::BTreeSet;
use std::sync::Arc;

use css_controller::{DetailResolution, EventsIndex, IndexShards};
use css_crypto::{HmacKey, SealedBox};
use css_event::NotificationMessage;
use css_storage::{LogBackend, MemBackend, RecordLog};
use css_types::{
    shard_of, ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    SourceEventId, Timestamp,
};
use css_xml::{BinarySink, Names, XmlSink};
use parking_lot::Mutex;
use proptest::prelude::*;

const KEY: &[u8] = b"index model key";
const CLASSES: [&str; 3] = ["lab", "visit", "care"];
const NAMES: Names = Names::new(&[
    "IndexEntry",
    "eventId",
    "type",
    "sealed",
    "tag",
    "occurredAt",
    "producer",
    "srcEventId",
    "What",
    "Notified",
    "actor",
]);

/// A backend whose bytes the test can still read once the index owns it.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Shared {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().clone()
    }
}

impl LogBackend for Shared {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let mut bytes = self.0.lock();
        bytes.extend_from_slice(data);
        Ok((bytes.len() - data.len()) as u64)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        let bytes = self.0.lock();
        let start = offset as usize;
        bytes
            .get(start..start + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| CssError::Storage("read past end".into()))
    }
    fn len(&self) -> u64 {
        self.0.lock().len() as u64
    }
    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.0.lock().truncate(len as usize);
        Ok(())
    }
}

fn class(ty: usize) -> EventTypeId {
    EventTypeId::v1(CLASSES[ty])
}

fn identity(person: u64) -> PersonIdentity {
    PersonIdentity {
        id: PersonId(person),
        fiscal_code: format!("FC{person}"),
        name: "Ada".into(),
        surname: format!("Rossi{person}"),
    }
}

fn tag(person: u64) -> [u8; 32] {
    let mut key = b"css-person-tag-v1:".to_vec();
    key.extend_from_slice(KEY);
    HmacKey::new(&key).mac(&person.to_le_bytes())
}

fn owner(person: u64, shards: usize) -> usize {
    let tag = tag(person);
    let bits = u64::from_le_bytes(tag[..8].try_into().unwrap());
    shard_of(bits, shards)
}

/// One indexed event as the model holds it.
#[derive(Clone)]
struct Entry {
    id: u64,
    person: u64,
    ty: usize,
    at: u64,
    notified: BTreeSet<u64>,
}

impl Entry {
    fn notification(&self) -> NotificationMessage {
        NotificationMessage {
            global_id: GlobalEventId(self.id),
            event_type: class(self.ty),
            person: identity(self.person),
            description: format!("event {}", self.id),
            occurred_at: Timestamp(self.at),
            producer: ActorId(100 + self.ty as u64),
        }
    }

    /// The entry's record, as the index log holds it.
    fn encode(&self, sink: &mut impl XmlSink) {
        let n = self.notification();
        sink.open("IndexEntry");
        sink.attr_int("eventId", n.global_id);
        sink.attr("type", &n.event_type);
        let sealed = SealedBox::new(KEY).seal(self.id, &n.person.to_bytes());
        sink.attr_bytes("sealed", &sealed);
        sink.attr_bytes("tag", &tag(self.person));
        sink.attr_int("occurredAt", self.at);
        sink.attr_int("producer", n.producer);
        sink.attr_int("srcEventId", SourceEventId(self.id + 1000));
        sink.leaf("What", &n.description);
        for &actor in &self.notified {
            sink.open("Notified");
            sink.attr_int("actor", ActorId(actor));
            sink.close();
        }
        sink.close();
    }
}

enum Record {
    Entry(Entry),
    Notified(u64, u64),
}

/// The reference: every entry in the order the index links them (a
/// reopen links them backend by backend), and the records per backend.
struct Model {
    entries: Vec<Entry>,
    logs: Vec<Vec<Record>>,
}

impl Model {
    fn get(&self, id: u64) -> Option<&Entry> {
        self.entries.iter().find(|e| e.id == id)
    }

    fn shards(&self) -> usize {
        self.logs.len()
    }

    /// The log bytes a fresh encode of backend `i`'s records gives.
    fn bytes(&self, i: usize) -> Vec<u8> {
        let mut log = RecordLog::new(MemBackend::new());
        for record in &self.logs[i] {
            let mut payload = Vec::new();
            let mut sink = BinarySink::new(&mut payload, NAMES);
            match record {
                Record::Entry(e) => e.encode(&mut sink),
                Record::Notified(id, actor) => {
                    sink.open("Notified");
                    sink.attr_int("eventId", GlobalEventId(*id));
                    sink.attr_int("actor", ActorId(*actor));
                    sink.close();
                }
            }
            log.append(&payload).unwrap();
        }
        let backend = log.into_backend();
        backend.read_at(0, backend.len() as usize).unwrap()
    }

    /// Write `consumer`'s markers for `returned`, grouped by owner shard
    /// in shard order, skipping the ones it already holds.
    fn mark(&mut self, returned: &[u64], consumer: u64) {
        for shard in 0..self.shards() {
            for &id in returned {
                let entry = self.entries.iter_mut().find(|e| e.id == id).unwrap();
                if owner(entry.person, self.logs.len()) == shard && entry.notified.insert(consumer)
                {
                    self.logs[shard].push(Record::Notified(id, consumer));
                }
            }
        }
    }

    /// What an inquiry over `ids` returns, in the order the plane
    /// visits them: shard by shard, candidate order within each.
    fn filtered(&self, ids: &[u64], allowed: u8) -> Vec<u64> {
        (0..self.shards())
            .flat_map(|shard| {
                ids.iter().copied().filter(move |&id| {
                    self.get(id).is_some_and(|e| {
                        owner(e.person, self.shards()) == shard && allowed & (1 << e.ty) != 0
                    })
                })
            })
            .collect()
    }

    fn of_person(&self, person: u64) -> Vec<u64> {
        let of = self.entries.iter().filter(|e| e.person == person);
        of.map(|e| e.id).collect()
    }

    fn sorted(&self, keep: impl Fn(&Entry) -> bool) -> Vec<GlobalEventId> {
        let mut ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| keep(e))
            .map(|e| e.id)
            .collect();
        ids.sort();
        ids.into_iter().map(GlobalEventId).collect()
    }
}

fn ids_of(out: &[NotificationMessage]) -> Vec<u64> {
    out.iter().map(|n| n.global_id.value()).collect()
}

/// Every returned notification is the one its event was published with.
fn check_notifications(model: &Model, out: &[NotificationMessage]) {
    for n in out {
        assert_eq!(n, &model.get(n.global_id.value()).unwrap().notification());
    }
}

fn check_bytes(model: &Model, pool: &[Shared]) {
    for (i, backend) in pool.iter().enumerate() {
        assert_eq!(backend.bytes(), model.bytes(i), "backend {i}");
    }
}

fn check_lists(model: &Model, plane: &IndexShards<Shared>) {
    assert_eq!(plane.len(), model.entries.len());
    let max = model.entries.iter().map(|e| e.id).max();
    assert_eq!(plane.max_event_id(), max.map(GlobalEventId));
    for ty in 0..CLASSES.len() {
        assert_eq!(
            plane.events_of_type(&class(ty)),
            model.sorted(|e| e.ty == ty)
        );
    }
    for (from, to) in [(0, 30), (5, 12), (9, 9), (12, 5)] {
        assert_eq!(
            plane.events_between(Timestamp(from), Timestamp(to)),
            model.sorted(|e| (from..=to).contains(&e.at))
        );
    }
}

/// The answer the plane must give to a detail request.
fn expected_detail(
    model: &Model,
    id: u64,
    declared: usize,
    consumer: u64,
    ancestor: u64,
) -> Option<String> {
    let e = model.get(id)?;
    Some(if e.ty != declared {
        format!("{:?}", DetailResolution::TypeMismatch(class(e.ty)))
    } else if e.notified.contains(&consumer) || e.notified.contains(&ancestor) {
        let resolved = DetailResolution::Resolved {
            producer: ActorId(100 + e.ty as u64),
            src_event_id: SourceEventId(id + 1000),
            subject: Ok(PersonId(e.person)),
        };
        format!("{resolved:?}")
    } else {
        format!("{:?}", DetailResolution::NotNotified)
    })
}

/// One index opened alone over every backend's bytes, concatenated:
/// it must hold what the model holds, in the model's link order.
fn check_single_index(model: &Model, pool: &[Shared]) {
    let joined = Shared::default();
    for backend in pool {
        let bytes = backend.bytes();
        joined.0.lock().extend(bytes);
    }
    let mut index = EventsIndex::open(KEY, joined).unwrap();
    assert_eq!(index.len(), model.entries.len());
    let mut relinked: Vec<u64> = Vec::new();
    for log in &model.logs {
        for record in log {
            if let Record::Entry(e) = record {
                relinked.push(e.id);
            }
        }
    }
    for person in 0..5 {
        let listed: Vec<u64> = relinked
            .iter()
            .copied()
            .filter(|&id| model.get(id).unwrap().person == person)
            .collect();
        let got = index.events_of_person(PersonId(person));
        assert_eq!(
            got,
            listed.into_iter().map(GlobalEventId).collect::<Vec<_>>()
        );
    }
    for e in &model.entries {
        let id = GlobalEventId(e.id);
        for actor in 1..=4 {
            assert_eq!(
                index.was_notified(id, ActorId(actor)),
                e.notified.contains(&actor)
            );
        }
        let (producer, src, ty) = index.resolve_source(id).unwrap();
        assert_eq!(
            (producer, src, ty),
            (
                ActorId(100 + e.ty as u64),
                SourceEventId(e.id + 1000),
                class(e.ty)
            )
        );
        assert_eq!(index.decrypt_notification(id).unwrap(), e.notification());
    }
    assert!(index.resolve_source(GlobalEventId(0)).is_err());
    let every: Vec<GlobalEventId> = relinked.iter().copied().map(GlobalEventId).collect();
    let (out, unmarked) = index
        .filter_authorized(&every, ActorId(3), |_| true)
        .unwrap();
    assert_eq!(ids_of(&out), relinked);
    check_notifications(model, &out);
    let owed: Vec<u64> = relinked
        .iter()
        .copied()
        .filter(|&id| !model.get(id).unwrap().notified.contains(&3))
        .collect();
    assert_eq!(
        unmarked,
        owed.into_iter().map(GlobalEventId).collect::<Vec<_>>()
    );
}

/// One step of a sequence: `kind` picks the operation, the rest are
/// its arguments (read modulo what each needs).
type Op = (u8, u64, u64, u64, u8);

fn run(start: usize, ops: Vec<Op>) {
    let mut pool: Vec<Shared> = (0..start).map(|_| Shared::default()).collect();
    let mut model = Model {
        entries: Vec::new(),
        logs: (0..start).map(|_| Vec::new()).collect(),
    };
    let mut plane = IndexShards::open(KEY, pool.clone()).unwrap();
    let mut next_id = 1;
    for (kind, a, b, c, mask) in ops {
        let person = a % 5;
        let consumer = b % 4 + 1;
        let allowed =
            |ty: &EventTypeId| (0..CLASSES.len()).any(|i| *ty == class(i) && mask & (1 << i) != 0);
        match kind {
            0..=4 => {
                let entry = Entry {
                    id: next_id,
                    person,
                    ty: (b % 3) as usize,
                    at: c % 25,
                    notified: (1..=4).filter(|actor| mask & (1 << actor) != 0).collect(),
                };
                next_id += 1 + c % 3;
                let notified = entry.notified.iter().copied().map(ActorId).collect();
                plane
                    .insert(
                        &entry.notification(),
                        SourceEventId(entry.id + 1000),
                        notified,
                    )
                    .unwrap();
                let shard = owner(person, model.shards());
                model.logs[shard].push(Record::Entry(entry.clone()));
                model.entries.push(entry);
            }
            5 => {
                let (out, markers) = plane
                    .filter_authorized_of_person(PersonId(person), ActorId(consumer), allowed)
                    .unwrap();
                let expected: Vec<u64> = model
                    .of_person(person)
                    .into_iter()
                    .filter(|&id| mask & (1 << model.get(id).unwrap().ty) != 0)
                    .collect();
                assert_eq!(ids_of(&out), expected);
                check_notifications(&model, &out);
                plane.mark_notified(markers).unwrap();
                model.mark(&expected, consumer);
            }
            6..=8 => {
                let ids: Vec<GlobalEventId> = match kind {
                    6 => plane.events_of_type(&class((a % 3) as usize)),
                    7 => plane.events_between(Timestamp(a % 25), Timestamp(c % 25)),
                    // A scrambled pick of known and unknown ids.
                    _ => {
                        let mut ids: Vec<u64> = (0..next_id + 1)
                            .filter(|id| (id * 7 + a) % 3 != 0)
                            .collect();
                        let turn = c as usize % ids.len().max(1);
                        ids.rotate_left(turn);
                        ids.into_iter().map(GlobalEventId).collect()
                    }
                };
                let (out, markers) = plane
                    .filter_authorized(&ids, ActorId(consumer), allowed)
                    .unwrap();
                let raw: Vec<u64> = ids.iter().map(|id| id.value()).collect();
                let expected = model.filtered(&raw, mask);
                assert_eq!(ids_of(&out), expected);
                check_notifications(&model, &out);
                plane.mark_notified(markers).unwrap();
                model.mark(&expected, consumer);
            }
            9 => {
                let out = plane.notifications_of_person(PersonId(person)).unwrap();
                assert_eq!(ids_of(&out), model.of_person(person));
                check_notifications(&model, &out);
            }
            10 => {
                let id = c % (next_id + 1);
                let declared = (a % 3) as usize;
                let ancestor = u64::from(mask % 6);
                let got = plane
                    .resolve_detail_request(
                        GlobalEventId(id),
                        &class(declared),
                        ActorId(consumer),
                        &[ActorId(ancestor)],
                    )
                    .map(|r| format!("{r:?}"));
                match expected_detail(&model, id, declared, consumer, ancestor) {
                    Some(expected) => assert_eq!(got.unwrap(), expected),
                    None => assert!(matches!(got, Err(CssError::NotFound(_)))),
                }
            }
            _ => {
                // Reopen at another shard count. A shrink moves each
                // retired backend's log onto a surviving one (a record
                // log concatenates); replay re-routes every entry.
                let n = [1, 2, 8][(a % 3) as usize];
                drop(plane);
                for retired in n..pool.len() {
                    let bytes = pool[retired].bytes();
                    pool[retired % n].0.lock().extend(bytes);
                    let moved = std::mem::take(&mut model.logs[retired]);
                    model.logs[retired % n].extend(moved);
                }
                pool.resize_with(n, Shared::default);
                model.logs.resize_with(n, Vec::new);
                let mut relinked = Vec::new();
                for log in &model.logs {
                    for record in log {
                        if let Record::Entry(e) = record {
                            relinked.push(model.get(e.id).unwrap().clone());
                        }
                    }
                }
                model.entries = relinked;
                plane = IndexShards::open(KEY, pool.clone()).unwrap();
                check_lists(&model, &plane);
            }
        }
        check_bytes(&model, &pool);
    }
    check_lists(&model, &plane);
    drop(plane);
    check_single_index(&model, &pool);
}

proptest! {
    #[test]
    fn the_index_answers_as_a_list_of_entries_does(
        start in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        ops in proptest::collection::vec((0u8..12, 0u64..50, 0u64..50, 0u64..50, any::<u8>()), 1..60),
    ) {
        run(start, ops);
    }
}

/// Every operation, and a reshard every seventh step, whatever seed
/// the property above draws.
#[test]
fn a_fixed_sequence_through_every_operation_and_shard_count() {
    let mut ops = Vec::new();
    for i in 0..30u64 {
        ops.push(((i % 5) as u8, i, i * 3, i * 7, (i * 37) as u8));
        ops.push((5 + (i % 6) as u8, i, i + 1, i * 2, 0b111));
        if i % 7 == 6 {
            ops.push((11, i, 0, 0, 0));
        }
    }
    run(2, ops);
}
