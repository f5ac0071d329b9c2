//! Generation-stamped PDP decision cache.
//!
//! Algorithm-1 traffic is heavily repetitive: the same consumer asks
//! for the same event class with the same purpose thousands of times
//! (one request per notification received). Matching, however, walks
//! every candidate policy and the actor hierarchy on every request.
//! This cache memoizes the evaluation result per
//! `(actor, event type, purpose)` key so the steady state is one hash
//! lookup.
//!
//! Two things can change a decision after it was computed:
//!
//! 1. **The policy set changes** — `install` / `remove` / `revoke`.
//!    The owning PDP bumps the [`Generation`] counter; every cached
//!    entry carries the generation it was computed under and a stale
//!    stamp is a miss. A revoked policy therefore denies on the very
//!    next request — there is no propagation window.
//! 2. **Time passes a validity boundary** — a policy expires or enters
//!    its window. Each entry stores the *stability interval* the
//!    decision holds on: the interval between the nearest validity
//!    boundaries of the candidate policies around the evaluation
//!    instant. A lookup outside the interval is a miss, so an expiring
//!    policy stops matching at exactly its boundary, cached or not.
//!
//! The cache never answers differently from a fresh evaluation; it only
//! skips re-deriving an answer that provably cannot have changed.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use css_types::Timestamp;

use crate::model::PrivacyPolicy;

/// Monotonic stamp of the policy-set version a decision was computed
/// under. Bumped wholesale on any install/remove/revoke.
#[derive(Debug, Default)]
pub struct Generation(AtomicU64);

impl Generation {
    /// Current generation.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Invalidate every decision computed so far.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }
}

/// The half-open interval `[from, until)` of instants a cached decision
/// is provably stable on, derived from candidate validity windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityInterval {
    from: Timestamp,
    until: Option<Timestamp>,
}

impl StabilityInterval {
    /// The interval containing `now`, narrowed by every validity
    /// boundary of `policies`. A decision evaluated at `now` holds for
    /// any instant in the returned interval: no candidate policy enters
    /// or leaves its validity window inside it.
    pub fn around<'a>(
        now: Timestamp,
        policies: impl IntoIterator<Item = &'a PrivacyPolicy>,
    ) -> Self {
        let mut from = Timestamp(0);
        let mut until: Option<Timestamp> = None;
        let mut narrow = |boundary: Timestamp| {
            if boundary <= now {
                if boundary > from {
                    from = boundary;
                }
            } else if until.is_none_or(|u| boundary < u) {
                until = Some(boundary);
            }
        };
        for policy in policies {
            // Revoked policies never match at any time: no boundary.
            if policy.revoked {
                continue;
            }
            if let Some(nb) = policy.validity.not_before {
                narrow(nb);
            }
            if let Some(na) = policy.validity.not_after {
                // The decision flips strictly after `not_after`.
                if let Some(b) = na.as_millis().checked_add(1) {
                    narrow(Timestamp(b));
                }
            }
        }
        StabilityInterval { from, until }
    }

    /// Whether `now` falls inside the interval.
    pub fn contains(&self, now: Timestamp) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }
}

struct Entry<K, V> {
    key: K,
    generation: u64,
    stable: StabilityInterval,
    value: V,
}

/// Hit/miss totals since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh evaluation.
    pub misses: u64,
}

/// How many independently locked segments a cache spreads its entries
/// over. Keys hash-partition across segments, so concurrent lookups
/// from different shards of the data plane contend only when they land
/// on the same segment, not on one global mutex.
const CACHE_SEGMENTS: usize = 8;

/// What a lookup is made with: the key's parts, borrowed. It hashes as
/// the key does and knows the key when it sees it, so a lookup builds
/// (allocates) no key; a key is its own probe.
pub trait Probe<K>: Hash {
    /// Whether `key` is the key these parts make up.
    fn is(&self, key: &K) -> bool;
}

impl<K: Hash + Eq> Probe<K> for K {
    fn is(&self, key: &K) -> bool {
        self == key
    }
}

/// The hasher of a map whose keys are hashes already.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Segment<K, V> = Mutex<HashMap<u64, Entry<K, V>, BuildHasherDefault<Prehashed>>>;

/// A keyed memo of decisions, validated against a [`Generation`] and a
/// per-entry [`StabilityInterval`].
///
/// Internally the map is split into [`CACHE_SEGMENTS`] segments, each
/// behind its own mutex — the sharded controller data plane hits the
/// cache from many threads at once, and a single map mutex would
/// re-serialize what the shards just parallelized. All segments share
/// the owning PDP's one [`Generation`] counter, so a revocation
/// invalidates every segment at the same instant. The PDP's evaluation
/// path stays `&self` so concurrent readers share one cache.
///
/// A lookup hashes its [`Probe`] once, under the cache's own randomly
/// keyed hasher: the hash picks the segment and is the segment map's
/// key, and the entry holds the owned key the probe is compared with.
/// Two keys with one 64-bit hash share a slot — the later evicts the
/// earlier, which then misses: a cache may forget, never confuse.
pub struct DecisionCache<K, V> {
    hasher: RandomState,
    segments: Vec<Segment<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for DecisionCache<K, V> {
    fn default() -> Self {
        DecisionCache {
            hasher: RandomState::new(),
            segments: (0..CACHE_SEGMENTS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> DecisionCache<K, V> {
    /// The segment a hash lives in. Taken from its middle bits: the
    /// segment's table indexes by the low ones and tags by the high.
    fn segment(&self, hash: u64) -> &Segment<K, V> {
        &self.segments[(hash >> 32) as usize % self.segments.len()]
    }

    /// The cached value for the key `probe` stands for, if it was
    /// computed under `generation` and its stability interval contains
    /// `now`.
    pub fn get(&self, probe: &impl Probe<K>, generation: u64, now: Timestamp) -> Option<V> {
        let hash = self.hasher.hash_one(probe);
        let entries = self.segment(hash).lock();
        let hit = entries
            .get(&hash)
            .filter(|e| probe.is(&e.key) && e.generation == generation && e.stable.contains(now))
            .map(|e| e.value.clone());
        drop(entries);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Memoize `value` for `key` under `generation`, stable on
    /// `stable`. An entry from an older generation is replaced.
    pub fn put(&self, key: K, generation: u64, stable: StabilityInterval, value: V) {
        let hash = self.hasher.hash_one(&key);
        self.segment(hash).lock().insert(
            hash,
            Entry {
                key,
                generation,
                stable,
                value,
            },
        );
    }

    /// Drop every entry (generation bumps make entries unreachable;
    /// this also frees their memory on explicit invalidation).
    pub fn clear(&self) {
        for segment in &self.segments {
            segment.lock().clear();
        }
    }

    /// Number of resident entries (any generation).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.lock().is_empty())
    }

    /// Hit/miss totals since creation.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ValidityWindow;
    use css_types::{ActorId, EventTypeId, PolicyId, Purpose};

    fn policy(window: ValidityWindow) -> PrivacyPolicy {
        PrivacyPolicy::new(
            PolicyId(1),
            ActorId(1),
            ActorId(2),
            EventTypeId::v1("e"),
            [Purpose::Audit],
            ["f".to_string()],
        )
        .valid(window)
    }

    #[test]
    fn unbounded_policies_give_unbounded_interval() {
        let p = policy(ValidityWindow::ALWAYS);
        let s = StabilityInterval::around(Timestamp(50), [&p]);
        assert!(s.contains(Timestamp(0)));
        assert!(s.contains(Timestamp(u64::MAX)));
    }

    #[test]
    fn interval_stops_at_expiry_boundary() {
        let p = policy(ValidityWindow::until(Timestamp(100)));
        let s = StabilityInterval::around(Timestamp(50), [&p]);
        assert!(s.contains(Timestamp(100)));
        assert!(!s.contains(Timestamp(101)));
    }

    #[test]
    fn interval_after_expiry_excludes_the_window() {
        let p = policy(ValidityWindow::between(Timestamp(10), Timestamp(100)));
        let s = StabilityInterval::around(Timestamp(200), [&p]);
        assert!(!s.contains(Timestamp(100)));
        assert!(s.contains(Timestamp(101)));
        assert!(s.contains(Timestamp(u64::MAX)));
    }

    #[test]
    fn interval_before_window_stops_at_entry() {
        let p = policy(ValidityWindow::between(Timestamp(10), Timestamp(100)));
        let s = StabilityInterval::around(Timestamp(5), [&p]);
        assert!(s.contains(Timestamp(0)));
        assert!(s.contains(Timestamp(9)));
        assert!(!s.contains(Timestamp(10)));
    }

    #[test]
    fn revoked_policies_contribute_no_boundary() {
        let mut p = policy(ValidityWindow::until(Timestamp(100)));
        p.revoke();
        let s = StabilityInterval::around(Timestamp(50), [&p]);
        assert!(s.contains(Timestamp(u64::MAX)));
    }

    #[test]
    fn generation_mismatch_is_a_miss() {
        let cache: DecisionCache<u8, u8> = DecisionCache::default();
        let stable = StabilityInterval::around(Timestamp(0), []);
        cache.put(1, 0, stable, 42);
        assert_eq!(cache.get(&1, 0, Timestamp(0)), Some(42));
        assert_eq!(cache.get(&1, 1, Timestamp(0)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn segmented_cache_round_trips_across_segments() {
        // More keys than segments: every segment ends up holding
        // entries, and get/len/clear see the union, not one segment.
        let cache: DecisionCache<u64, u64> = DecisionCache::default();
        let stable = StabilityInterval::around(Timestamp(0), []);
        for k in 0..64u64 {
            cache.put(k, 0, stable, k * 2);
        }
        assert_eq!(cache.len(), 64);
        for k in 0..64u64 {
            assert_eq!(cache.get(&k, 0, Timestamp(0)), Some(k * 2));
        }
        // A generation bump (as after revocation) misses on every
        // segment at once.
        for k in 0..64u64 {
            assert_eq!(cache.get(&k, 1, Timestamp(0)), None);
        }
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_sharing_a_hash_evict_and_never_answer_for_each_other() {
        #[derive(PartialEq, Eq)]
        struct Colliding(u8);
        impl Hash for Colliding {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u8(0);
            }
        }
        let cache: DecisionCache<Colliding, u8> = DecisionCache::default();
        let stable = StabilityInterval::around(Timestamp(0), []);
        cache.put(Colliding(1), 0, stable, 10);
        assert_eq!(cache.get(&Colliding(1), 0, Timestamp(0)), Some(10));
        assert_eq!(cache.get(&Colliding(2), 0, Timestamp(0)), None);
        cache.put(Colliding(2), 0, stable, 20);
        assert_eq!(cache.get(&Colliding(2), 0, Timestamp(0)), Some(20));
        assert_eq!(cache.get(&Colliding(1), 0, Timestamp(0)), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn out_of_interval_lookup_is_a_miss() {
        let cache: DecisionCache<u8, u8> = DecisionCache::default();
        let p = policy(ValidityWindow::until(Timestamp(100)));
        let stable = StabilityInterval::around(Timestamp(50), [&p]);
        cache.put(1, 0, stable, 42);
        assert_eq!(cache.get(&1, 0, Timestamp(100)), Some(42));
        assert_eq!(cache.get(&1, 0, Timestamp(101)), None);
    }
}
