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
//! plaintext identity. (A shard's bucket does come to hold its data
//! subject's `PersonId`, learned by the first detail request that
//! reaches it and checked against the tag, so later requests open no
//! ciphertext; routing never reads it.) Per-person operations touch
//! exactly one shard; by-type and by-time listings scatter-gather
//! across shards and merge, preserving the unsharded time-ordering.
//! Per-event operations ask the plane's one owner table where each
//! event lives, without a lock: a detail request locks its owner shard
//! and no other, and an inquiry over an id list locks only the shards
//! that own a candidate. An id nobody indexed locks nothing.
//!
//! Replay on open is **re-routing**: entries are read off every
//! shard's backend and adopted by their *current* owner shard, filling
//! the owner table as they go, so a deployment that changes its shard
//! count still recovers every event into the right partition.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use css_event::NotificationMessage;
use css_storage::{LogBackend, MemBackend};
use css_telemetry::{Counter, Histogram, MetricsRegistry};
use css_types::{
    lock_order, shard_of, ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId,
    SourceEventId, Timestamp,
};

use crate::index::{derive_tag_key, DetailResolution, EventsIndex, Notified, Walk};
use crate::owners::{OwnerTable, SourceClaim};

/// The routing key a person tag reduces to.
fn tag_key_bits(tag: &[u8; 32]) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = *tag;
    u64::from_le_bytes([a, b, c, d, e, f, g, h])
}

/// The notified-markers an inquiry has yet to write: per owner shard,
/// the events it returned that its consumer is not yet marked notified
/// of. The filter that found them writes nothing;
/// [`IndexShards::mark_notified`] writes them once the inquiry is
/// audited.
#[must_use = "an inquiry's markers are written by IndexShards::mark_notified"]
pub struct PendingMarkers {
    consumer: ActorId,
    /// Only shards that owe a marker are listed.
    by_shard: Vec<(usize, Vec<GlobalEventId>)>,
}

/// N per-citizen partitions of the events index, each behind its own
/// lock. All methods are `&self`: threads working different citizens
/// proceed in parallel, and a cross-shard inquiry holds one shard lock
/// at a time.
pub struct IndexShards<B: LogBackend = MemBackend> {
    shards: Vec<Mutex<EventsIndex<B>>>,
    /// Where every event lives: read without a shard lock.
    owners: Arc<OwnerTable>,
    tag_key: css_crypto::HmacKey,
    /// Per-shard operation counters (`shard.{i}.ops` once instrumented).
    ops: Vec<Counter>,
    /// Aggregate operation counter (`shard.ops`).
    ops_total: Counter,
    /// Time spent waiting for a shard lock another thread held
    /// (`shard.lock_wait_ns`); an acquisition that finds it free
    /// records nothing.
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
        let (owners, shards) =
            EventsIndex::open_all(master_key, backends, |tag| shard_of(tag_key_bits(tag), n))?;
        Ok(IndexShards {
            shards: shards
                .into_iter()
                .map(|shard| Mutex::ranked("index shard", lock_order::INDEX_SHARD, shard))
                .collect(),
            owners,
            tag_key: derive_tag_key(master_key),
            ops: (0..n).map(|_| Counter::new()).collect(),
            ops_total: Counter::new(),
            lock_wait: Histogram::new(),
        })
    }

    /// Register this plane's instruments: per-shard `shard.{i}.ops`
    /// counters, the aggregate `shard.ops`, and the `shard.lock_wait_ns`
    /// histogram of contended acquisitions' waits.
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

    /// Acquire shard `i`, recording the op, and the wait if it was
    /// contended.
    #[cfg_attr(debug_assertions, track_caller)]
    fn shard(&self, i: usize) -> MutexGuard<'_, EventsIndex<B>> {
        let guard = self.shards[i].lock_or_wait(|wait| self.lock_wait.record_duration(wait));
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
    /// shard is the tag the entry is filed under. The notified set is
    /// converted once, to the entry's sorted list. An id, or a source
    /// event of the producer, already indexed, on any shard, fails with
    /// [`CssError::AlreadyExists`].
    pub fn insert(
        &self,
        notification: &NotificationMessage,
        src_event_id: SourceEventId,
        notified: HashSet<ActorId>,
    ) -> CssResult<()> {
        let source = self.claim_source(notification.producer, src_event_id)?;
        self.insert_notified(notification, source, notified.into_iter().collect())
    }

    /// Claim source event `src` of `producer` for the entry a publish
    /// is about to index: the plane's one idempotence check (the owner
    /// table's, `owners.rs`). One indexed, or being published, already is
    /// [`CssError::AlreadyExists`]; dropped before its entry is linked,
    /// the claim is given back.
    pub(crate) fn claim_source(
        &self,
        producer: ActorId,
        src: SourceEventId,
    ) -> CssResult<SourceClaim<'_>> {
        self.owners.claim_source(producer, src)
    }

    /// [`IndexShards::insert`] with the source event claimed and the
    /// notified consumers already in the entry's form: a publish hands
    /// over its receivers as they are.
    pub(crate) fn insert_notified(
        &self,
        notification: &NotificationMessage,
        source: SourceClaim<'_>,
        notified: Notified,
    ) -> CssResult<()> {
        let tag = self.person_tag(notification.person.id);
        let mut shard = self.shard(self.shard_of_tag(&tag));
        shard.insert_tagged(tag, notification, source, notified)
    }

    /// Everything Algorithm 1 asks the index about one request, in one
    /// visit to the event's owner shard, the one lock taken (the owner
    /// table names the shard): see
    /// [`EventsIndex::resolve_detail_request`].
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
        self.owners
            .get(id)
            .and_then(|(owner, ..)| {
                self.shard(owner)
                    .resolve_detail_request(id, declared, consumer, ancestors)
            })
            .ok_or_else(|| CssError::NotFound(format!("event {id} not in index")))
    }

    /// Every notification about one person, each distinct identity
    /// opened once — exactly one shard is touched, once. Only the
    /// controller itself may do this, for the data subject.
    pub fn notifications_of_person(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        let tag = self.person_tag(person);
        let mut shard = self.shard(self.shard_of_tag(&tag));
        shard.notifications(Walk::Tagged(&tag), |_| true)
    }

    /// Every shard's answer to `ask`, merged into global id order.
    fn gather(&self, ask: impl Fn(&EventsIndex<B>) -> Vec<GlobalEventId>) -> Vec<GlobalEventId> {
        let mut out: Vec<_> = (0..self.shards.len())
            .flat_map(|i| ask(&self.shard(i)))
            .collect();
        out.sort();
        out
    }

    /// Event ids of one class: scatter-gather over every shard, merged
    /// into global id order.
    pub fn events_of_type(&self, ty: &EventTypeId) -> Vec<GlobalEventId> {
        self.gather(|shard| shard.events_of_type(ty))
    }

    /// Event ids in a time range (inclusive), any class: scatter-gather
    /// over per-shard range scans, merged into the same order the
    /// unsharded index returns.
    pub fn events_between(&self, from: Timestamp, to: Timestamp) -> Vec<GlobalEventId> {
        self.gather(|shard| shard.events_between(from, to))
    }

    /// Resolve inquiry candidates with per-shard authorized filtering:
    /// the candidates are split by owner shard before any lock is
    /// taken (ids nobody indexed drop out), and each owner resolves
    /// its own in one lookup apiece (authorize + open), in shard order.
    /// The markers the inquiry owes come back unwritten.
    pub fn filter_authorized(
        &self,
        candidates: &[GlobalEventId],
        consumer: ActorId,
        mut authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<(Vec<NotificationMessage>, PendingMarkers)> {
        let mut owned = vec![Vec::new(); self.shards.len()];
        for &id in candidates {
            if let Some((owner, ..)) = self.owners.get(id) {
                owned[owner].push(id);
            }
        }
        let (mut out, mut by_shard) = (Vec::new(), Vec::new());
        for (i, ids) in owned.iter().enumerate().filter(|(_, ids)| !ids.is_empty()) {
            let (found, unmarked) =
                self.shard(i)
                    .filter_authorized(ids, consumer, &mut authorize)?;
            out.extend(found);
            if !unmarked.is_empty() {
                by_shard.push((i, unmarked));
            }
        }
        Ok((out, PendingMarkers { consumer, by_shard }))
    }

    /// [`IndexShards::filter_authorized`] over one person's events: the
    /// tag is derived once and the owner shard is visited once, walking
    /// the citizen's entries in place under its lock.
    pub fn filter_authorized_of_person(
        &self,
        person: PersonId,
        consumer: ActorId,
        authorize: impl FnMut(&EventTypeId) -> bool,
    ) -> CssResult<(Vec<NotificationMessage>, PendingMarkers)> {
        let tag = self.person_tag(person);
        let owner = self.shard_of_tag(&tag);
        let (out, unmarked) = self
            .shard(owner)
            .filter(Walk::Tagged(&tag), consumer, authorize)?;
        let by_shard = (!unmarked.is_empty()).then_some((owner, unmarked));
        let by_shard = by_shard.into_iter().collect();
        Ok((out, PendingMarkers { consumer, by_shard }))
    }

    /// Write an inquiry's pending markers: one batch per owner shard,
    /// persisted before any of its markers is set
    /// ([`EventsIndex::mark_notified`]).
    pub fn mark_notified(&self, markers: PendingMarkers) -> CssResult<()> {
        for (i, ids) in markers.by_shard {
            self.shard(i).mark_notified(&ids, markers.consumer)?;
        }
        Ok(())
    }

    /// Largest indexed event id across shards (assembly resumes global
    /// numbering from here), off the owner table: no shard is locked.
    pub fn max_event_id(&self) -> Option<GlobalEventId> {
        self.owners.max_id()
    }

    /// Total indexed events across shards, off the owner table.
    pub fn len(&self) -> usize {
        self.owners.len()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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

    /// The lock ledger, read off `shard.ops` at 1, 2 and 8 shards: a
    /// detail request takes its owner's lock and no other, whatever its
    /// outcome; an id nobody indexed takes none; `len` and
    /// `max_event_id` take none; an inquiry over an id list takes one
    /// per distinct shard owning a candidate.
    #[test]
    fn a_detail_request_locks_only_its_owner_shard() {
        for n in [1, 2, 8] {
            let registry = MetricsRegistry::new();
            let mut plane = plane(n);
            plane.instrument(&registry);
            let notified: HashSet<ActorId> = [ActorId(5)].into();
            for id in 1..=16u64 {
                plane
                    .insert(&notif(id, id, "x"), SourceEventId(id), notified.clone())
                    .unwrap();
            }
            let ops = || registry.snapshot().counter("shard.ops");
            let x = EventTypeId::v1("x");
            for id in 1..=16u64 {
                for (ty, actor) in [
                    (&x, ActorId(5)),
                    (&x, ActorId(6)),
                    (&EventTypeId::v1("y"), ActorId(5)),
                ] {
                    let before = ops();
                    plane
                        .resolve_detail_request(GlobalEventId(id), ty, actor, &[])
                        .unwrap();
                    assert_eq!(ops() - before, 1, "event {id} at {n} shards");
                }
            }
            let before = ops();
            assert!(plane
                .resolve_detail_request(GlobalEventId(404), &x, ActorId(5), &[])
                .is_err());
            assert_eq!(plane.len(), 16);
            assert_eq!(plane.max_event_id(), Some(GlobalEventId(16)));
            assert_eq!(ops() - before, 0, "{n} shards");
            let candidates: Vec<GlobalEventId> = [3, 4, 9, 404].map(GlobalEventId).into();
            let owners: HashSet<usize> = candidates
                .iter()
                .filter_map(|&id| plane.owners.get(id))
                .map(|(owner, ..)| owner)
                .collect();
            let before = ops();
            let (out, _) = plane
                .filter_authorized(&candidates, ActorId(5), |_| true)
                .unwrap();
            assert_eq!(out.len(), 3);
            assert_eq!(ops() - before, owners.len() as u64, "{n} shards");
        }
    }

    /// The live path refuses what open refuses: an id already indexed
    /// under a citizen on another shard is `AlreadyExists`, nothing is
    /// written for it, and the plane reopens with its entries intact.
    #[test]
    fn an_id_indexed_on_another_shard_is_refused_and_the_plane_reopens() {
        for n in [2, 8] {
            let dir = std::env::temp_dir().join(format!("css-dup-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let file = |i: usize| {
                css_storage::FileBackend::open(dir.join(format!("shard-{i}.log"))).unwrap()
            };
            let plane = IndexShards::open(b"master", (0..n).map(file).collect()).unwrap();
            for id in 1..=8u64 {
                plane
                    .insert(&notif(id, id, "x"), SourceEventId(id), HashSet::new())
                    .unwrap();
            }
            let owner = |person: u64| plane.shard_of_tag(&plane.person_tag(PersonId(person)));
            let other = (100..).find(|&p| owner(p) != owner(7)).unwrap();
            let refused = plane.insert(&notif(7, other, "y"), SourceEventId(99), HashSet::new());
            assert!(
                matches!(refused, Err(CssError::AlreadyExists(_))),
                "{n} shards"
            );
            assert_eq!(plane.len(), 8);
            drop(plane);
            let reopened = IndexShards::open(b"master", (0..n).map(file).collect()).unwrap();
            assert_eq!(reopened.len(), 8);
            assert!(events_of_person(&reopened, other).is_empty());
            for id in 1..=8u64 {
                assert_eq!(events_of_person(&reopened, id), vec![GlobalEventId(id)]);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        let (out, markers) = eight
            .filter_authorized(&candidates, ActorId(5), |ty| *ty == open)
            .unwrap();
        assert_eq!(out.len(), 7);
        // Nobody is marked until the markers are written.
        assert!(!was_notified(&eight, 1, "open", ActorId(5)));
        let owed: usize = markers.by_shard.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(owed, 7);
        eight.mark_notified(markers).unwrap();
        assert!(was_notified(&eight, 1, "open", ActorId(5)));
        assert!(!was_notified(&eight, 3, "secret", ActorId(5)));
    }

    /// The ciphertext event `id`'s entry holds in memory.
    fn sealed_of<B: LogBackend>(plane: &IndexShards<B>, id: GlobalEventId) -> Arc<[u8]> {
        let (owner, ..) = plane.owners.get(id).unwrap();
        let shard = plane.shard(owner);
        shard.entry(id).unwrap().sealed_identity.clone()
    }

    #[test]
    fn a_profile_view_folds_a_citizens_entries_into_one_ciphertext() {
        for plane in [plane(1), plane(8)] {
            for id in 1..=40u64 {
                plane
                    .insert(&notif(id, 7, "x"), SourceEventId(id), HashSet::new())
                    .unwrap();
            }
            plane
                .insert(&notif(41, 8, "x"), SourceEventId(41), HashSet::new())
                .unwrap();
            let profile = plane.notifications_of_person(PersonId(7)).unwrap();
            assert_eq!(profile.len(), 40);
            assert!(profile.iter().all(|n| n.person == notif(1, 7, "x").person));
            let first = sealed_of(&plane, GlobalEventId(1));
            for id in 2..=40u64 {
                assert!(Arc::ptr_eq(&sealed_of(&plane, GlobalEventId(id)), &first));
            }
            plane.notifications_of_person(PersonId(8)).unwrap();
            assert!(!Arc::ptr_eq(&sealed_of(&plane, GlobalEventId(41)), &first));
        }
    }

    #[test]
    fn a_by_type_inquiry_over_two_thousand_citizens_returns_each_events_own_identity() {
        let eight = plane(8);
        let citizens = 2_000u64;
        for id in 1..=2 * citizens {
            eight
                .insert(
                    &notif(id, id % citizens, "x"),
                    SourceEventId(id),
                    HashSet::new(),
                )
                .unwrap();
        }
        let ids = eight.events_of_type(&EventTypeId::v1("x"));
        assert_eq!(ids.len() as u64, 2 * citizens);
        // Twice: the second call reads the entries the first folded.
        for consumer in [ActorId(5), ActorId(6)] {
            let (out, markers) = eight.filter_authorized(&ids, consumer, |_| true).unwrap();
            assert_eq!(out.len(), ids.len());
            for n in &out {
                let id = n.global_id.value();
                assert_eq!(n.person, notif(id, id % citizens, "x").person);
            }
            eight.mark_notified(markers).unwrap();
        }
        // Each citizen's two entries share one ciphertext; no two
        // citizens do.
        let mut owners: HashMap<*const u8, u64> = HashMap::new();
        for id in 1..=2 * citizens {
            let sealed = sealed_of(&eight, GlobalEventId(id));
            let owner = *owners
                .entry(Arc::as_ptr(&sealed).cast::<u8>())
                .or_insert(id % citizens);
            assert_eq!(owner, id % citizens, "event {id}");
        }
        assert_eq!(owners.len() as u64, citizens);
    }

    /// Identity variant `variant` of citizen `person`: each differs
    /// from the first in one field.
    fn variant(person: u64, variant: usize) -> PersonIdentity {
        let mut identity = notif(0, person, "x").person;
        match variant {
            0 => {}
            1 => identity.surname = "Bianchi".into(),
            _ => identity.fiscal_code.push('X'),
        }
        identity
    }

    proptest::proptest! {
        /// Publishes for a few citizens, each cycling through 1–3
        /// identity variants, interleaved with inquiries, profile views
        /// and by-time inquiries: every read returns the identity
        /// published with each event, and no ciphertext is ever shared
        /// by two different identities.
        #[test]
        fn folding_never_mixes_identity_variants(
            shards in proptest::prop_oneof![proptest::strategy::Just(1usize), proptest::strategy::Just(8usize)],
            variants in 1usize..=3,
            ops in proptest::collection::vec((0u8..5, 1u64..=3, 0u64..40), 1..60),
        ) {
            let plane = plane(shards);
            let mut published: HashMap<GlobalEventId, PersonIdentity> = HashMap::new();
            let mut publishes = [0usize; 4];
            let consumer = ActorId(5);
            for (kind, person, at) in ops {
                let returned = match kind {
                    0 | 1 => {
                        let id = GlobalEventId(published.len() as u64 + 1);
                        let mut n = notif(id.value(), person, "x");
                        n.person = variant(person, publishes[person as usize] % variants);
                        n.occurred_at = Timestamp(at * 100);
                        publishes[person as usize] += 1;
                        plane.insert(&n, SourceEventId(id.value()), HashSet::new()).unwrap();
                        published.insert(id, n.person);
                        continue;
                    }
                    2 => {
                        let (out, markers) = plane
                            .filter_authorized_of_person(PersonId(person), consumer, |_| true)
                            .unwrap();
                        plane.mark_notified(markers).unwrap();
                        out
                    }
                    3 => plane.notifications_of_person(PersonId(person)).unwrap(),
                    _ => {
                        let ids = plane.events_between(Timestamp(at * 50), Timestamp(at * 100));
                        let (out, markers) = plane.filter_authorized(&ids, consumer, |_| true).unwrap();
                        plane.mark_notified(markers).unwrap();
                        out
                    }
                };
                for n in returned {
                    proptest::prop_assert_eq!(&n.person, &published[&n.global_id]);
                }
                let mut shared: HashMap<*const u8, &PersonIdentity> = HashMap::new();
                for (id, identity) in &published {
                    let sealed = sealed_of(&plane, *id);
                    let first = *shared.entry(Arc::as_ptr(&sealed).cast::<u8>()).or_insert(identity);
                    proptest::prop_assert_eq!(first, identity);
                }
            }
        }
    }

    /// `n` file backends in a fresh directory named after `name`, and
    /// the directory.
    fn files(name: &str, n: usize) -> (std::path::PathBuf, Vec<css_storage::FileBackend>) {
        let dir = std::env::temp_dir().join(format!("css-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let backends = (0..n).map(|i| reopen(&dir, i)).collect();
        (dir, backends)
    }

    fn reopen(dir: &std::path::Path, i: usize) -> css_storage::FileBackend {
        css_storage::FileBackend::open(dir.join(format!("shard-{i}.log"))).unwrap()
    }

    /// The answer to a detail request for event `id` of class `x`, as
    /// text, with the ciphertexts the request opened.
    #[cfg(debug_assertions)]
    fn detail<B: LogBackend>(plane: &IndexShards<B>, id: u64, actor: u64) -> (String, u64) {
        let (_, opens) = css_crypto::sealed::ledger::counts();
        let answer = plane.resolve_detail_request(
            GlobalEventId(id),
            &EventTypeId::v1("x"),
            ActorId(actor),
            &[],
        );
        let answer = format!("{:?}", answer.unwrap());
        (answer, css_crypto::sealed::ledger::counts().1 - opens)
    }

    /// A bucket learns its data subject from the first detail request
    /// that reaches it: after a reopen, the first request about each
    /// citizen opens one ciphertext and every later one opens none,
    /// with the answers the plane gave before the reopen. A request
    /// that stops at the notified check opens nothing.
    #[cfg(debug_assertions)]
    #[test]
    fn a_bucket_learns_its_subject_once_and_requests_after_open_nothing() {
        for n in [1, 2, 8] {
            let (dir, backends) = files("learned", n);
            let plane = IndexShards::open(b"master", backends).unwrap();
            for id in 1..=16u64 {
                let n = notif(id, id % 4, "x");
                let notified = [ActorId(5)].into();
                plane.insert(&n, SourceEventId(id), notified).unwrap();
            }
            let before: Vec<String> = (1..=16).map(|id| detail(&plane, id, 5).0).collect();
            drop(plane);
            let plane =
                IndexShards::open(b"master", (0..n).map(|i| reopen(&dir, i)).collect()).unwrap();
            for id in 1..=16u64 {
                assert_eq!(detail(&plane, id, 9).1, 0, "not notified, {n} shards");
                let (answer, opened) = detail(&plane, id, 5);
                assert!(
                    answer.contains(&format!("PersonId({})", id % 4)),
                    "{answer}"
                );
                assert_eq!(answer, before[id as usize - 1], "event {id}, {n} shards");
                let first_of_citizen = id <= 4;
                assert_eq!(
                    opened,
                    u64::from(first_of_citizen),
                    "event {id}, {n} shards"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Under a wrong key the plane still loads, and a detail request
    /// fails with `Crypto` naming its event, every time: a subject
    /// that did not open is not kept.
    #[cfg(debug_assertions)]
    #[test]
    fn a_detail_request_after_a_wrong_key_reopen_fails_and_learns_nothing() {
        for n in [1, 2, 8] {
            let (dir, backends) = files("wrong-key", n);
            let plane = IndexShards::open(b"right-key", backends).unwrap();
            plane
                .insert(&notif(1, 7, "x"), SourceEventId(1), [ActorId(5)].into())
                .unwrap();
            drop(plane);
            let files = (0..n).map(|i| reopen(&dir, i)).collect();
            let plane = IndexShards::open(b"wrong-key", files).unwrap();
            assert_eq!(plane.len(), 1);
            for _ in 0..2 {
                let (answer, opened) = detail(&plane, 1, 5);
                assert!(
                    answer.contains("Crypto") && answer.contains("evt-00000001"),
                    "{answer}"
                );
                assert_eq!(opened, 1, "{n} shards");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An entry re-framed with a valid CRC, filed under one citizen's
    /// tag but sealing another's identity, fails the detail request
    /// naming the event — it is not answered with the person it seals —
    /// and teaches its bucket nothing.
    #[cfg(debug_assertions)]
    #[test]
    fn an_entry_sealing_someone_else_fails_the_detail_request() {
        let (citizen, other) = (7, 8);
        let (dir, backends) = files("planted", 1);
        let plane = IndexShards::open(b"master", backends).unwrap();
        let notified: HashSet<ActorId> = [ActorId(5)].into();
        plane
            .insert(&notif(1, citizen, "x"), SourceEventId(1), notified.clone())
            .unwrap();
        plane
            .insert(&notif(2, other, "x"), SourceEventId(2), notified)
            .unwrap();
        let (tag, wrong) = (
            plane.person_tag(PersonId(citizen)),
            plane.person_tag(PersonId(other)),
        );
        drop(plane);
        let mut payloads = Vec::new();
        css_storage::RecordLog::recover(reopen(&dir, 0), |_, payload| {
            payloads.push(payload.to_vec());
            Ok(())
        })
        .unwrap();
        let at = payloads[1].windows(32).position(|w| w == wrong).unwrap();
        payloads[1][at..at + 32].copy_from_slice(&tag);
        let _ = std::fs::remove_dir_all(&dir);
        for n in [1, 2, 8] {
            let (log, _) =
                css_storage::RecordLog::recover(MemBackend::new(), |_, _| Ok(())).unwrap();
            let mut log = log;
            for payload in &payloads {
                log.append(payload).unwrap();
            }
            let mut backends = vec![log.into_backend()];
            backends.resize_with(n, MemBackend::new);
            let plane = IndexShards::open(b"master", backends).unwrap();
            // Routing goes by tag: both entries are the citizen's.
            let filed = plane.notifications_of_person(PersonId(citizen)).unwrap();
            assert_eq!(filed.len(), 2);
            for _ in 0..2 {
                let (answer, opened) = detail(&plane, 2, 5);
                assert!(
                    answer.contains("Crypto") && answer.contains("evt-00000002"),
                    "{n} shards: {answer}"
                );
                assert_eq!(opened, 1, "{n} shards");
            }
            let (answer, opened) = detail(&plane, 1, 5);
            assert!(
                answer.contains(&format!("Ok(PersonId({citizen}))")),
                "{answer}"
            );
            assert_eq!(opened, 1, "{n} shards");
        }
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
            let (_, markers) = two
                .filter_authorized(&[GlobalEventId(3)], ActorId(9), |_| true)
                .unwrap();
            two.mark_notified(markers).unwrap();
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
