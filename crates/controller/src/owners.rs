//! The owner table: where every event of an index plane lives.
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

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::OnceLock;

use css_types::{CssError, CssResult, GlobalEventId};

/// Slots per page, as a shift: three levels give ids below 2^36 a slot.
const PAGE: u32 = 12;
/// The widths of a place's shard, bucket and position fields.
const BITS: (u32, u32, u32) = (10, 29, 24);
/// Set in every published slot. A claimed slot not yet published holds 1.
const PLACED: u64 = 1 << 63;

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

/// The page index of slot `id` at each level, top first, if it has one.
fn split(id: GlobalEventId) -> Option<[usize; 3]> {
    let index = |level: u32| (id.value() >> (level * PAGE)) as usize & ((1 << PAGE) - 1);
    (id.value() >> (3 * PAGE) == 0).then(|| [index(2), index(1), index(0)])
}

/// One level of the radix, allocated at its first claim.
type Level<T> = OnceLock<Box<[T]>>;

fn page<T>(slot: impl Fn() -> T) -> Box<[T]> {
    (0..1 << PAGE).map(|_| slot()).collect()
}

/// A slot claimed for an event, with the place it is published at once
/// the entry is linked; released if the entry is not written.
#[must_use = "a claim is published or released"]
pub(crate) struct Claim(GlobalEventId, u64);

/// The places of a plane's events, one slot per id.
#[derive(Default)]
pub(crate) struct OwnerTable {
    pages: Level<Level<Level<AtomicU64>>>,
    len: AtomicUsize,
    /// One past the largest published id; 0 while none is.
    end: AtomicU64,
}

impl OwnerTable {
    fn slot(&self, id: GlobalEventId) -> Option<&AtomicU64> {
        let [top, middle, leaf] = split(id)?;
        Some(&self.pages.get()?[top].get()?[middle].get()?[leaf])
    }

    /// Where event `id` lives, if an entry for it is linked.
    pub(crate) fn get(&self, id: GlobalEventId) -> Option<Place> {
        unpack(self.slot(id)?.load(Acquire))
    }

    /// Claim slot `id` for an entry about to be linked at `place`:
    /// `None` if the slot is taken — the id is indexed, or being
    /// indexed, already. An id or a place the table cannot hold fails
    /// the claim, and nothing is claimed.
    pub(crate) fn claim(&self, id: GlobalEventId, place: Place) -> CssResult<Option<Claim>> {
        let unfit = || CssError::Invalid(format!("no owner slot for event {id} at {place:?}"));
        let (word, [top, middle, leaf]) = pack(place).zip(split(id)).ok_or_else(unfit)?;
        let pages = self.pages.get_or_init(|| page(OnceLock::new));
        let leaves = pages[top].get_or_init(|| page(OnceLock::new));
        let slot = &leaves[middle].get_or_init(|| page(|| AtomicU64::new(0)))[leaf];
        let free = slot.compare_exchange(0, 1, Acquire, Relaxed).is_ok();
        Ok(free.then_some(Claim(id, word)))
    }

    /// Publish a claimed slot, its entry linked; or, with no entry
    /// (`linked` false), give the slot back.
    pub(crate) fn settle(&self, Claim(id, word): Claim, linked: bool) {
        if let Some(slot) = self.slot(id) {
            slot.store(if linked { word } else { 0 }, Release);
        }
        if linked {
            self.len.fetch_add(1, Relaxed);
            self.end.fetch_max(id.value() + 1, Relaxed);
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
}
