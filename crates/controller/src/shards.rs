//! The sharded events-index plane.
//!
//! One [`EventsIndex`] behind one lock serializes the whole data plane;
//! BENCH_e15 measured flat-to-negative scaling from 1 to 8 threads
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

use crate::index::{derive_tag_key, EventsIndex};

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

    /// The PIP mapping: `eID → (producer, src_eID, type)`, probing
    /// shards for the owner (each probe is one short map lookup).
    pub fn resolve_source(
        &self,
        id: GlobalEventId,
    ) -> CssResult<(ActorId, SourceEventId, EventTypeId)> {
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            if let Some(e) = shard.entry(id) {
                return Ok((e.producer, e.src_event_id, e.event_type.clone()));
            }
        }
        Err(CssError::NotFound(format!("event {id} not in index")))
    }

    /// Whether `consumer` — or any of the given enclosing organizations
    /// — was notified of event `id`. One shard lock covers the whole
    /// chain check.
    pub fn was_notified_any(
        &self,
        id: GlobalEventId,
        consumer: ActorId,
        ancestors: &[ActorId],
    ) -> bool {
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            if shard.entry(id).is_some() {
                return shard.was_notified(id, consumer)
                    || ancestors.iter().any(|a| shard.was_notified(id, *a));
            }
        }
        false
    }

    /// Whether `consumer` was notified of event `id`.
    pub fn was_notified(&self, id: GlobalEventId, consumer: ActorId) -> bool {
        self.was_notified_any(id, consumer, &[])
    }

    /// Record that `consumer` has been notified of event `id`.
    pub fn mark_notified(&self, id: GlobalEventId, consumer: ActorId) -> CssResult<()> {
        for i in 0..self.shards.len() {
            let mut shard = self.shard(i);
            if shard.entry(id).is_some() {
                return shard.mark_notified(id, consumer);
            }
        }
        Err(CssError::NotFound(format!("event {id} not in index")))
    }

    /// Rebuild the full notification (decrypting the identity) from the
    /// owning shard. Only the controller itself may do this, on behalf
    /// of authorized consumers.
    pub fn decrypt_notification(&self, id: GlobalEventId) -> CssResult<NotificationMessage> {
        for i in 0..self.shards.len() {
            let shard = self.shard(i);
            if shard.entry(id).is_some() {
                return shard.decrypt_notification(id);
            }
        }
        Err(CssError::NotFound(format!("event {id} not in index")))
    }

    /// Event ids about one person — exactly one shard is touched.
    pub fn events_of_person(&self, person: PersonId) -> Vec<GlobalEventId> {
        let tag = self.person_tag(person);
        self.shard(self.shard_of_tag(&tag)).events_tagged(&tag)
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
            assert_eq!(one.events_of_person(PersonId(p)), {
                let mut v = eight.events_of_person(PersonId(p));
                v.sort();
                v
            });
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
        // Per-event probes find the owner regardless of shard.
        let (prod, src, _) = eight.resolve_source(GlobalEventId(17)).unwrap();
        assert_eq!((prod, src), (ActorId(1), SourceEventId(17)));
        assert!(eight.resolve_source(GlobalEventId(404)).is_err());
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
        assert!(eight.was_notified(GlobalEventId(1), ActorId(5)));
        assert!(!eight.was_notified(GlobalEventId(3), ActorId(5)));
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
            two.mark_notified(GlobalEventId(3), ActorId(9)).unwrap();
            two.sync().unwrap();
        }
        let four = IndexShards::open(b"master", (0..4).map(file).collect()).unwrap();
        assert_eq!(four.len(), 20);
        for id in 1..=20u64 {
            assert_eq!(
                four.events_of_person(PersonId(id)),
                vec![GlobalEventId(id)],
                "person {id} lost after re-shard"
            );
        }
        assert!(four.was_notified(GlobalEventId(3), ActorId(9)));
        let n = four.decrypt_notification(GlobalEventId(5)).unwrap();
        assert_eq!(n.person.fiscal_code, "FC5");
        for i in 0..4 {
            let _ = std::fs::remove_file(path(i));
        }
    }
}
