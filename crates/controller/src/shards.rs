//! The sharded events-index plane.
//!
//! One [`EventsIndex`] behind one lock serializes the whole data plane;
//! EXPERIMENTS.md E15 measured flat-to-negative scaling from 1 to 8 threads
//! because of exactly that. [`IndexShards`] hash-partitions the index
//! by **citizen** into N independent shards, each behind its own
//! mutex, one per backend the plane is opened on ([`css_types::shard_of`]
//! decides where a key lives; one backend is the unsharded index).
//!
//! Routing uses the keyed person tag (HMAC over the person id under
//! the controller master key) — the same value the index already
//! stores for per-person lookup — so the partition never sees a
//! plaintext identity. Per-person operations touch exactly one shard;
//! by-type and by-time inquiries scatter-gather across shards and
//! merge, preserving the unsharded time-ordering and single-probe
//! semantics; per-event operations (detail requests) probe shards for
//! the owner, holding each lock only for a map lookup.
//!
//! Replay on open is **re-routing**: entries are read off every
//! shard's backend and adopted by their *current* owner shard, so a
//! deployment that changes its shard count still recovers every event
//! into the right partition.

use std::collections::HashSet;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use css_event::NotificationMessage;
use css_storage::{LogBackend, MemBackend};
use css_telemetry::{Counter, Histogram, MetricsRegistry};
use css_types::{
    shard_of, ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, SourceEventId,
    Timestamp,
};

use crate::index::{derive_tag_key, DetailResolution, EventsIndex};

/// The routing key a person tag reduces to.
fn tag_key_bits(tag: &[u8; 32]) -> u64 {
    u64::from_le_bytes([
        tag[0], tag[1], tag[2], tag[3], tag[4], tag[5], tag[6], tag[7],
    ])
}

/// N per-citizen partitions of the events index, each behind its own
/// lock. All methods are `&self`: threads working different citizens
/// proceed in parallel, and a cross-shard inquiry holds one shard lock
/// at a time.
pub struct IndexShards<B: LogBackend = MemBackend> {
    shards: Vec<Mutex<EventsIndex<B>>>,
    tag_key: css_crypto::HmacKey,
    /// Per-shard operation counters (`shard.{i}.ops` once instrumented).
    ops: Vec<Counter>,
    /// Aggregate operation counter (`shard.ops`).
    ops_total: Counter,
    /// Time spent waiting to acquire a shard lock (`shard.lock_wait_ns`).
    lock_wait: Histogram,
}

impl<B: LogBackend> IndexShards<B> {
    /// Open the plane, one shard per backend: the shard count **is**
    /// `backends.len()` (a one-element vector is the unsharded index, a
    /// [`MemBackend`] an in-memory one). Every persisted entry is
    /// replayed into its **current** owner shard.
    pub fn open(master_key: &[u8], backends: Vec<B>) -> CssResult<Self> {
        let n = backends.len();
        if n == 0 {
            return Err(CssError::Invalid(
                "index plane needs at least one backend".into(),
            ));
        }
        let shards =
            EventsIndex::open_all(master_key, backends, |tag| shard_of(tag_key_bits(tag), n))?;
        Ok(IndexShards {
            shards: shards.into_iter().map(Mutex::new).collect(),
            tag_key: derive_tag_key(master_key),
            ops: (0..n).map(|_| Counter::new()).collect(),
            ops_total: Counter::new(),
            lock_wait: Histogram::new(),
        })
    }

    /// Register this plane's instruments: per-shard `shard.{i}.ops`
    /// counters, the aggregate `shard.ops`, and the `shard.lock_wait_ns`
    /// acquisition-wait histogram.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.ops = (0..self.shards.len())
            .map(|i| registry.counter(&format!("shard.{i}.ops")))
            .collect();
        self.ops_total = registry.counter("shard.ops");
        self.lock_wait = registry.histogram("shard.lock_wait_ns");
    }

    /// How many shards the plane runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Acquire shard `i`, recording the wait and the op.
    fn shard(&self, i: usize) -> MutexGuard<'_, EventsIndex<B>> {
        let start = Instant::now();
        let guard = self.shards[i].lock();
        self.lock_wait.record(start.elapsed().as_nanos() as u64);
        self.ops[i].inc();
        self.ops_total.inc();
        guard
    }

    fn person_tag(&self, person: PersonId) -> [u8; 32] {
        self.tag_key.mac(&person.value().to_le_bytes())
    }

    /// The shard owning the events filed under a person tag.
    fn shard_of_tag(&self, tag: &[u8; 32]) -> usize {
        shard_of(tag_key_bits(tag), self.shards.len())
    }

    /// Store a notification on its owner shard; the tag that picks the
    /// shard is the tag the entry is filed under.
    pub fn insert(
        &self,
        notification: &NotificationMessage,
        src_event_id: SourceEventId,
        notified: HashSet<ActorId>,
    ) -> CssResult<()> {
        let tag = self.person_tag(notification.person.id);
        let mut shard = self.shard(self.shard_of_tag(&tag));
        shard.insert_tagged(tag, notification, src_event_id, notified)
    }

    /// Everything Algorithm 1 asks the index about one request, in one
    /// visit to the event's owner shard (shards are probed for it, each
    /// probe one short map lookup; the owner answers the rest under
    /// the same lock): see [`EventsIndex::resolve_detail_request`].
    ///
    /// `ancestors` — the organizations enclosing `consumer` — are the
    /// caller's to resolve *before* the call: the actor registry's lock
    /// is never taken under a shard's.
    pub fn resolve_detail_request(
        &self,
        id: GlobalEventId,
        declared: &EventTypeId,
        consumer: ActorId,
        ancestors: &[ActorId],
    ) -> CssResult<DetailResolution> {
        (0..self.shards.len())
            .find_map(|i| {
                self.shard(i)
                    .resolve_detail_request(id, declared, consumer, ancestors)
            })
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))
    }

    /// Every notification about one person, identities opened — exactly
    /// one shard is touched, once. Only the controller itself may do
    /// this, for the data subject.
    pub fn notifications_of_person(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        let tag = self.person_tag(person);
        self.shard(self.shard_of_tag(&tag))
            .notifications_tagged(&tag)
    }

    /// Event ids of one class: scatter-gather over every shard, merged
    /// into global id order.
    pub fn events_of_type(&self, ty: &EventTypeId) -> Vec<GlobalEventId> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.shard(i).events_of_type(ty));
        }
        out.sort();
        out
    }

    /// Event ids in a time range (inclusive), any class: scatter-gather
    /// over per-shard range scans, merged into the same order the
    /// unsharded index returns.
    pub fn events_between(&self, from: Timestamp, to: Timestamp) -> Vec<GlobalEventId> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(self.shard(i).events_between(from, to));
        }
        out.sort();
        out
    }

    /// Resolve inquiry candidates with per-shard authorized filtering:
    /// each shard resolves the candidates it owns in one probe apiece
    /// (authorize + decrypt + notified-marking, markers batched per
    /// shard), non-owned ids fall through, and the union is disjoint
    /// because every event has exactly one owner shard.
    pub fn filter_authorized(
        &self,
        candidates: &[GlobalEventId],
        consumer: ActorId,
        mut authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<Vec<NotificationMessage>> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let mut shard = self.shard(i);
            out.extend(shard.filter_authorized(candidates, consumer, &mut authorize)?);
        }
        Ok(out)
    }

    /// [`IndexShards::filter_authorized`] over one person's events: the
    /// tag is derived once and the owner shard is visited once, looking
    /// the candidates up and resolving them under the same lock.
    pub fn filter_authorized_of_person(
        &self,
        person: PersonId,
        consumer: ActorId,
        authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<Vec<NotificationMessage>> {
        let tag = self.person_tag(person);
        let mut shard = self.shard(self.shard_of_tag(&tag));
        let candidates = shard.events_tagged(&tag);
        shard.filter_authorized(&candidates, consumer, authorize)
    }

    /// Largest indexed event id across shards (assembly resumes global
    /// numbering from here).
    pub fn max_event_id(&self) -> Option<GlobalEventId> {
        (0..self.shards.len())
            .filter_map(|i| self.shard(i).max_event_id())
            .max()
    }

    /// Total indexed events across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard(i).len()).sum()
    }

    /// Whether no shard holds an event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries per shard — the balance picture behind the imbalance
    /// gauge and health check.
    pub fn shard_lens(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| self.shard(i).len())
            .collect()
    }

    /// Flush every shard's persisted records to stable storage.
    pub fn sync(&self) -> CssResult<()> {
        for i in 0..self.shards.len() {
            let mut shard = self.shard(i);
            shard.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_types::PersonIdentity;

    fn notif(id: u64, person: u64, ty: &str) -> NotificationMessage {
        NotificationMessage {
            global_id: GlobalEventId(id),
            event_type: EventTypeId::v1(ty),
            person: PersonIdentity {
                id: PersonId(person),
                fiscal_code: format!("FC{person}"),
                name: "Mario".into(),
                surname: "Rossi".into(),
            },
            description: "test event".into(),
            occurred_at: Timestamp(id * 100),
            producer: ActorId(1),
        }
    }

    fn plane(n: usize) -> IndexShards<MemBackend> {
        let backends = (0..n).map(|_| MemBackend::new()).collect();
        IndexShards::open(b"controller master key", backends).unwrap()
    }

    /// Ids of the events about one person, in the order the owner
    /// shard filed them.
    fn events_of_person<B: LogBackend>(plane: &IndexShards<B>, person: u64) -> Vec<GlobalEventId> {
        let profile = plane.notifications_of_person(PersonId(person)).unwrap();
        assert!(profile.iter().all(|n| n.person.id == PersonId(person)));
        profile.iter().map(|n| n.global_id).collect()
    }

    /// Whether the one-visit lookup finds `actor` notified of an event
    /// of class `ty`.
    fn was_notified<B: LogBackend>(
        plane: &IndexShards<B>,
        id: u64,
        ty: &str,
        actor: ActorId,
    ) -> bool {
        let resolution = plane
            .resolve_detail_request(GlobalEventId(id), &EventTypeId::v1(ty), actor, &[])
            .unwrap();
        assert!(!matches!(resolution, DetailResolution::TypeMismatch(_)));
        matches!(resolution, DetailResolution::Resolved { .. })
    }

    #[test]
    fn sharded_lookups_agree_with_single_shard() {
        let one = plane(1);
        let eight = plane(8);
        for id in 1..=40u64 {
            let n = notif(id, id % 7, if id % 2 == 0 { "even" } else { "odd" });
            one.insert(&n, SourceEventId(id), HashSet::new()).unwrap();
            eight.insert(&n, SourceEventId(id), HashSet::new()).unwrap();
        }
        assert_eq!(one.len(), eight.len());
        for p in 0..7u64 {
            assert_eq!(events_of_person(&one, p), events_of_person(&eight, p));
            let expected: Vec<GlobalEventId> = (1..=40u64)
                .filter(|id| id % 7 == p)
                .map(GlobalEventId)
                .collect();
            assert_eq!(events_of_person(&one, p), expected);
        }
        assert_eq!(
            one.events_of_type(&EventTypeId::v1("even")),
            eight.events_of_type(&EventTypeId::v1("even"))
        );
        assert_eq!(
            one.events_between(Timestamp(500), Timestamp(2000)),
            eight.events_between(Timestamp(500), Timestamp(2000))
        );
        assert_eq!(one.max_event_id(), eight.max_event_id());
    }

    #[test]
    fn one_visit_resolves_a_detail_request_on_any_shard_count() {
        for plane in [plane(1), plane(8)] {
            let notified: HashSet<ActorId> = [ActorId(5), ActorId(60)].into();
            for id in 1..=40u64 {
                plane
                    .insert(
                        &notif(id, id % 7, "odd"),
                        SourceEventId(id),
                        notified.clone(),
                    )
                    .unwrap();
            }
            let odd = EventTypeId::v1("odd");
            let ask = |id, ty: &EventTypeId, actor, ancestors: &[ActorId]| {
                plane.resolve_detail_request(GlobalEventId(id), ty, actor, ancestors)
            };
            // The probe finds the owner regardless of shard: PIP
            // mapping and subject come from the same entry.
            for id in 1..=40u64 {
                match ask(id, &odd, ActorId(5), &[]).unwrap() {
                    DetailResolution::Resolved {
                        producer,
                        src_event_id,
                        subject,
                    } => {
                        assert_eq!((producer, src_event_id), (ActorId(1), SourceEventId(id)));
                        assert_eq!(subject.unwrap(), PersonId(id % 7));
                    }
                    other => panic!("event {id}: {other:?}"),
                }
            }
            // Checked in Algorithm 1's order: indexed, declared class,
            // notified — the requester itself or any enclosing
            // organization.
            assert!(matches!(
                ask(404, &odd, ActorId(5), &[]),
                Err(CssError::NotFound(m)) if m == "event evt-00000404 not in index"
            ));
            assert!(matches!(
                ask(17, &EventTypeId::v1("even"), ActorId(9), &[]).unwrap(),
                DetailResolution::TypeMismatch(indexed) if indexed == odd
            ));
            assert!(matches!(
                ask(17, &odd, ActorId(9), &[ActorId(8)]).unwrap(),
                DetailResolution::NotNotified
            ));
            assert!(matches!(
                ask(17, &odd, ActorId(9), &[ActorId(8), ActorId(60)]).unwrap(),
                DetailResolution::Resolved { .. }
            ));
        }
    }

    #[test]
    fn a_detail_request_walks_the_shards_once_up_to_the_owner() {
        let registry = MetricsRegistry::new();
        let mut eight = plane(8);
        eight.instrument(&registry);
        let notified: HashSet<ActorId> = [ActorId(5)].into();
        for id in 1..=16u64 {
            eight
                .insert(&notif(id, id, "x"), SourceEventId(id), notified.clone())
                .unwrap();
        }
        let ops = || registry.snapshot().counter("shard.ops");
        let x = EventTypeId::v1("x");
        let lens = eight.shard_lens();
        let mut owners = HashSet::new();
        for id in 1..=16u64 {
            let owner = {
                let tag = eight.person_tag(PersonId(id));
                eight.shard_of_tag(&tag)
            };
            owners.insert(owner);
            // Every outcome costs the same single walk: shards 0..=owner.
            for (ty, actor) in [
                (&x, ActorId(5)),
                (&x, ActorId(6)),
                (&EventTypeId::v1("y"), ActorId(5)),
            ] {
                let before = ops();
                eight
                    .resolve_detail_request(GlobalEventId(id), ty, actor, &[])
                    .unwrap();
                assert_eq!(ops() - before, owner as u64 + 1, "event {id}");
            }
        }
        assert!(owners.len() > 1, "events spread over shards: {lens:?}");
        // An event nobody indexed costs one probe of every shard.
        let before = ops();
        assert!(eight
            .resolve_detail_request(GlobalEventId(404), &x, ActorId(5), &[])
            .is_err());
        assert_eq!(ops() - before, 8);
    }

    #[test]
    fn eight_shards_spread_citizens() {
        let eight = plane(8);
        for id in 1..=64u64 {
            eight
                .insert(&notif(id, id, "x"), SourceEventId(id), HashSet::new())
                .unwrap();
        }
        let lens = eight.shard_lens();
        let busy = lens.iter().filter(|&&n| n > 0).count();
        assert!(busy >= 4, "expected spread over shards, got {lens:?}");
        assert_eq!(lens.iter().sum::<usize>(), 64);
    }

    #[test]
    fn filter_authorized_scatter_gather_marks_once() {
        let eight = plane(8);
        for id in 1..=10u64 {
            eight
                .insert(
                    &notif(id, id, if id % 3 == 0 { "secret" } else { "open" }),
                    SourceEventId(id),
                    HashSet::new(),
                )
                .unwrap();
        }
        let candidates: Vec<GlobalEventId> = (1..=10).map(GlobalEventId).collect();
        let open = EventTypeId::v1("open");
        let mut out = eight
            .filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        out.sort_by_key(|n| n.global_id);
        assert_eq!(out.len(), 7);
        assert!(was_notified(&eight, 1, "open", ActorId(5)));
        assert!(!was_notified(&eight, 3, "secret", ActorId(5)));
    }

    #[test]
    fn reopen_re_routes_entries_after_shard_count_change() {
        // Write through a 2-shard plane, reopen as 4 shards: every
        // entry and marker must land on its new owner shard.
        let dir = std::env::temp_dir().join(format!("css-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |i: usize| dir.join(format!("shard-{i}.log"));
        for i in 0..4 {
            let _ = std::fs::remove_file(path(i));
        }
        let file = |i: usize| css_storage::FileBackend::open(path(i)).unwrap();
        {
            let two = IndexShards::open(b"master", vec![file(0), file(1)]).unwrap();
            for id in 1..=20u64 {
                two.insert(&notif(id, id, "x"), SourceEventId(id), HashSet::new())
                    .unwrap();
            }
            two.filter_authorized(&[GlobalEventId(3)], ActorId(9), |_| true)
                .unwrap();
            two.sync().unwrap();
        }
        let four = IndexShards::open(b"master", (0..4).map(file).collect()).unwrap();
        assert_eq!(four.len(), 20);
        for id in 1..=20u64 {
            assert_eq!(
                events_of_person(&four, id),
                vec![GlobalEventId(id)],
                "person {id} lost after re-shard"
            );
        }
        assert!(was_notified(&four, 3, "x", ActorId(9)));
        let profile = four.notifications_of_person(PersonId(5)).unwrap();
        assert_eq!(profile[0].person.fiscal_code, "FC5");
        for i in 0..4 {
            let _ = std::fs::remove_file(path(i));
        }
    }
}
