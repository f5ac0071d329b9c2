//! The owner table: where every event of an index plane lives, and
//! which event each source event was indexed as.
//!
//! Algorithm 1 step 1 asks the index one question about an event id —
//! where is its entry? — and the plane answers it here, once, for all
//! its shards: slot `id` holds the entry's shard, its citizen's bucket
//! on that shard and its position in the bucket, packed in one word.
//! The controller mints ids densely from 1, so the table is indexed by
//! the id itself: a three-level radix of fixed pages, each allocated
//! when the first id in it is claimed. The id stays an opaque sequence
//! number; the owner is in the table, never in the id, since a shard or
//! tag bit in an id would let a consumer group a citizen's events.
//!
//! Readers take no lock. A shard claims a slot under its own lock
//! before it writes the entry — a claim of an occupied slot is the
//! index's one duplicate check, for a live insert and a replayed entry
//! alike — and publishes the place with `Release` once the entry is
//! linked, so a reader that finds a place finds its entry behind that
//! shard's lock. Places never move: entries are never removed.
//!
//! The paper's events index is the map `eID → (producer, src_eID)`, so
//! one source event has one id. The table holds the converse too, and
//! it is the plane's one idempotence check: per producer, a radix of
//! the same pages keyed by source event id, whose slot holds the id the
//! event was indexed as. A publish claims its source event before it
//! mints an id ([`OwnerTable::claim_source`]); the claim is linked to
//! the id with the entry, and given back if no entry is written. Source
//! ids are minted densely per producer, so a slot costs 8 bytes an
//! event. Replay links every entry through the same claim, so a log
//! holding one source event under two ids does not open. Nothing here
//! is persisted: the index log is the record, and this its derivation.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::OnceLock;

use css_types::{ActorId, CssError, CssResult, GlobalEventId, SourceEventId};

/// Slots per page, as a shift: three levels give keys below 2^36 a slot.
const PAGE: u32 = 12;
/// The widths of a place's shard, bucket and position fields.
const BITS: (u32, u32, u32) = (10, 29, 24);
/// Set in every published slot.
const PLACED: u64 = 1 << 63;
/// A slot claimed, not yet published.
const CLAIMED: u64 = 1;

/// Where an event's entry lives: its shard, its citizen's bucket on
/// that shard and its position in the bucket.
pub(crate) type Place = (usize, usize, usize);

fn pack((shard, bucket, position): Place) -> Option<u64> {
    let (s, b, p) = BITS;
    let fits = shard >> s == 0 && bucket >> b == 0 && position >> p == 0;
    fits.then(|| PLACED | (shard as u64) << (b + p) | (bucket as u64) << p | position as u64)
}

fn unpack(word: u64) -> Option<Place> {
    let (s, b, p) = BITS;
    let low = |value: u64, bits: u32| (value & ((1 << bits) - 1)) as usize;
    (word & PLACED != 0).then(|| (low(word >> (b + p), s), low(word >> p, b), low(word, p)))
}

/// The page index of `key` at each level, top first, if it has one.
fn split(key: u64) -> Option<[usize; 3]> {
    let index = |level: u32| (key >> (level * PAGE)) as usize & ((1 << PAGE) - 1);
    (key >> (3 * PAGE) == 0).then(|| [index(2), index(1), index(0)])
}

/// One level of a radix, allocated at its first claim.
type Level<T> = OnceLock<Box<[T]>>;

fn page<T: Default>() -> Box<[T]> {
    (0..1 << PAGE).map(|_| T::default()).collect()
}

/// A slot per key below 2^36, in pages allocated on first use.
struct Radix<T>(Level<Level<Level<T>>>);

impl<T> Default for Radix<T> {
    fn default() -> Self {
        Radix(OnceLock::new())
    }
}

impl<T: Default> Radix<T> {
    fn get(&self, key: u64) -> Option<&T> {
        let [top, middle, leaf] = split(key)?;
        Some(&self.0.get()?[top].get()?[middle].get()?[leaf])
    }

    /// Slot `key`, its pages allocated on the way; `None`, allocating
    /// nothing, for a key the radix cannot hold.
    fn get_or_init(&self, key: u64) -> Option<&T> {
        let [top, middle, leaf] = split(key)?;
        let pages = self.0.get_or_init(page);
        Some(&pages[top].get_or_init(page)[middle].get_or_init(page)[leaf])
    }
}

/// A slot claimed for an event, with the place it is published at once
/// the entry is linked; released if the entry is not written.
#[must_use = "a claim is published or released"]
pub(crate) struct Claim(GlobalEventId, u64);

/// A source event claimed for the entry about to index it:
/// [`SourceClaim::link`] records the event id it is indexed as, and a
/// claim dropped unlinked is given back.
#[must_use = "a source claim is linked or given back"]
pub(crate) struct SourceClaim<'a> {
    slot: &'a AtomicU64,
    src: SourceEventId,
}

impl SourceClaim<'_> {
    /// The claimed source event's id.
    pub(crate) fn src(&self) -> SourceEventId {
        self.src
    }

    /// The source event is indexed as `id`: every later claim of it is
    /// refused.
    pub(crate) fn link(self, id: GlobalEventId) {
        self.slot.store(PLACED | id.value(), Release);
    }
}

impl Drop for SourceClaim<'_> {
    fn drop(&mut self) {
        // Only the holder moves a slot off `CLAIMED`.
        if self.slot.load(Relaxed) == CLAIMED {
            self.slot.store(0, Release);
        }
    }
}

/// The places of a plane's events, one slot per id, and the id of each
/// source event, one slot per producer and source id.
#[derive(Default)]
pub(crate) struct OwnerTable {
    places: Radix<AtomicU64>,
    sources: Radix<Radix<AtomicU64>>,
    len: AtomicUsize,
    /// One past the largest published id; 0 while none is.
    end: AtomicU64,
}

impl OwnerTable {
    /// Where event `id` lives, if an entry for it is linked.
    pub(crate) fn get(&self, id: GlobalEventId) -> Option<Place> {
        unpack(self.places.get(id.value())?.load(Acquire))
    }

    /// Claim slot `id` for an entry about to be linked at `place`:
    /// `None` if the slot is taken — the id is indexed, or being
    /// indexed, already. An id or a place the table cannot hold fails
    /// the claim, and nothing is claimed.
    pub(crate) fn claim(&self, id: GlobalEventId, place: Place) -> CssResult<Option<Claim>> {
        let unfit = || CssError::Invalid(format!("no owner slot for event {id} at {place:?}"));
        let word = pack(place).ok_or_else(unfit)?;
        let slot = self.places.get_or_init(id.value()).ok_or_else(unfit)?;
        let free = slot.compare_exchange(0, CLAIMED, Acquire, Relaxed).is_ok();
        Ok(free.then_some(Claim(id, word)))
    }

    /// Publish a claimed slot, its entry linked; or, with no entry
    /// (`linked` false), give the slot back.
    pub(crate) fn settle(&self, Claim(id, word): Claim, linked: bool) {
        if let Some(slot) = self.places.get(id.value()) {
            slot.store(if linked { word } else { 0 }, Release);
        }
        if linked {
            self.len.fetch_add(1, Relaxed);
            self.end.fetch_max(id.value() + 1, Relaxed);
        }
    }

    /// Claim source event `src` of `producer` for the entry about to
    /// index it. One indexed, or being indexed, already is refused with
    /// [`CssError::AlreadyExists`], naming the id it was indexed as; a
    /// producer or source id of 2^36 or more has no slot and is
    /// [`CssError::Invalid`].
    pub(crate) fn claim_source(
        &self,
        producer: ActorId,
        src: SourceEventId,
    ) -> CssResult<SourceClaim<'_>> {
        let unfit = || CssError::Invalid(format!("no claim slot for {src} of {producer}"));
        let sources = self.sources.get_or_init(producer.value());
        let slot = sources.and_then(|sources| sources.get_or_init(src.value()));
        let slot = slot.ok_or_else(unfit)?;
        let taken = |state: String| {
            CssError::AlreadyExists(format!("source event {src} of {producer} {state}"))
        };
        match slot.compare_exchange(0, CLAIMED, Acquire, Acquire) {
            Ok(_) => Ok(SourceClaim { slot, src }),
            Err(CLAIMED) => Err(taken("is being published".into())),
            Err(word) => Err(taken(format!(
                "was published as {}",
                GlobalEventId(word & !PLACED)
            ))),
        }
    }

    /// Events with a linked entry.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// The largest id with a linked entry.
    pub(crate) fn max_id(&self) -> Option<GlobalEventId> {
        self.end.load(Relaxed).checked_sub(1).map(GlobalEventId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_is_claimed_once_and_read_once_published() {
        let table = OwnerTable::default();
        let place = (3, (1 << BITS.1) - 1, (1 << BITS.2) - 1);
        let id = GlobalEventId(4_097);
        let claim = table.claim(id, place).unwrap().unwrap();
        // Claimed, not yet published: no reader sees it, no second
        // claim takes it.
        assert_eq!(table.get(id), None);
        assert!(table.claim(id, place).unwrap().is_none());
        table.settle(claim, true);
        assert_eq!(table.get(id), Some(place));
        assert_eq!((table.len(), table.max_id()), (1, Some(id)));
        assert!(table.claim(id, place).unwrap().is_none());
        // A slot given back is free again, and counts nowhere.
        let claim = table.claim(GlobalEventId(7), place).unwrap().unwrap();
        table.settle(claim, false);
        assert_eq!((table.len(), table.max_id()), (1, Some(id)));
        assert!(table.claim(GlobalEventId(7), place).unwrap().is_some());
        assert_eq!(table.get(GlobalEventId(5)), None);
    }

    #[test]
    fn what_the_table_cannot_hold_fails_the_claim() {
        let table = OwnerTable::default();
        let (s, b, p) = BITS;
        for wide in [(1 << s, 0, 0), (0, 1 << b, 0), (0, 0, 1 << p)] {
            assert!(matches!(
                table.claim(GlobalEventId(1), wide),
                Err(CssError::Invalid(_))
            ));
        }
        for id in [1u64 << 36, u64::MAX] {
            assert!(table.claim(GlobalEventId(id), (0, 0, 0)).is_err());
            assert_eq!(table.get(GlobalEventId(id)), None);
        }
        let last = GlobalEventId((1 << 36) - 1);
        assert!(table.claim(last, (0, 0, 0)).unwrap().is_some());
    }

    #[test]
    fn a_source_event_is_claimed_once_and_given_back_unlinked() {
        let table = OwnerTable::default();
        let (hospital, lab) = (ActorId(1), ActorId(2));
        let claim = table.claim_source(hospital, SourceEventId(7)).unwrap();
        assert_eq!(claim.src(), SourceEventId(7));
        // In flight: refused, for that producer only.
        let refused = table.claim_source(hospital, SourceEventId(7)).map(|_| ());
        assert!(
            matches!(refused, Err(CssError::AlreadyExists(m)) if m.contains("being published"))
        );
        drop(table.claim_source(lab, SourceEventId(7)).unwrap());
        // Dropped unlinked, it is free again; linked, it names its id.
        drop(claim);
        let claim = table.claim_source(hospital, SourceEventId(7)).unwrap();
        claim.link(GlobalEventId(4_100));
        let refused = table.claim_source(hospital, SourceEventId(7)).map(|_| ());
        assert!(matches!(
            refused,
            Err(CssError::AlreadyExists(m))
                if m == "source event src-00000007 of act-00000001 was published as evt-00004100"
        ));
        assert!(table.claim_source(lab, SourceEventId(7)).is_ok());
        // Owner slots and source slots are apart.
        assert_eq!((table.len(), table.get(GlobalEventId(4_100))), (0, None));
    }

    #[test]
    fn a_source_the_table_cannot_hold_is_invalid() {
        let table = OwnerTable::default();
        let wide = [
            (ActorId(1), SourceEventId(1 << 36)),
            (ActorId(1), SourceEventId(u64::MAX)),
            (ActorId(1 << 36), SourceEventId(1)),
        ];
        for (producer, src) in wide {
            let refused = table.claim_source(producer, src).map(|_| ());
            assert!(
                matches!(refused, Err(CssError::Invalid(_))),
                "{producer} {src}"
            );
        }
        let last = SourceEventId((1 << 36) - 1);
        assert!(table.claim_source(ActorId((1 << 36) - 1), last).is_ok());
    }
}
