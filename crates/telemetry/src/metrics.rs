//! The three instrument kinds: counters, gauges, histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell, so a component can cache its
/// handle while the registry retains another for snapshots.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events at once.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A level that moves in both directions, e.g. a queue depth.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lower by one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets; bucket 63 absorbs everything ≥ 2⁶² ns.
const BUCKETS: usize = 64;

/// A latency distribution over nanoseconds in log₂ buckets.
///
/// Recording is one `fetch_add` per bucket plus count/sum updates and a
/// CAS loop for the max — no allocation, no lock, no stored samples.
/// Quantiles are read from bucket boundaries, so a reported pXX is an
/// upper bound within a factor of two of the true value; that is
/// deliberate — the platform needs latency *shape*, not microsecond
/// exactness, on paths that run millions of times.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Most recent exemplar per bucket: the trace id (0 = none; trace
    /// ids are minted from a counter starting at 1, so a real id is
    /// never 0) and the platform-clock millisecond it was observed.
    /// Written only by [`Histogram::record_with_exemplar`] — plain
    /// `record` never touches these, so un-exemplared paths pay
    /// nothing. The id/timestamp pair is two relaxed stores; a racing
    /// writer can interleave them, which at worst pairs an exemplar id
    /// with a timestamp a few microseconds off — fine for a debugging
    /// breadcrumb.
    ex_trace: [AtomicU64; BUCKETS],
    ex_at_ms: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: [const { AtomicU64::new(0) }; BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                ex_trace: [const { AtomicU64::new(0) }; BUCKETS],
                ex_at_ms: [const { AtomicU64::new(0) }; BUCKETS],
            }),
        }
    }
}

/// Bucket index for a nanosecond value: 0 for 0, otherwise the bit
/// length, clamped to the last bucket.
fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, used as the quantile estimate.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation in nanoseconds.
    pub fn record(&self, ns: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(ns, Ordering::Relaxed);
        inner.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one observation from a [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one observation and remember `(trace_id, at_ms)` as the
    /// bucket's **exemplar** — the most recent trace that landed there.
    /// A later snapshot exposes the exemplar next to the bucket, so a
    /// p99 outlier links straight to the span tree that caused it.
    ///
    /// The trace id is a raw `u64` (the value of a `css-trace`
    /// `TraceId`) because this crate sits below the trace layer; ids of
    /// 0 are treated as "no exemplar" and recorded as a plain
    /// observation.
    pub fn record_with_exemplar(&self, ns: u64, trace_id: u64, at_ms: u64) {
        self.record(ns);
        if trace_id == 0 {
            return;
        }
        let idx = bucket_index(ns);
        self.inner.ex_trace[idx].store(trace_id, Ordering::Relaxed);
        self.inner.ex_at_ms[idx].store(at_ms, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far, nanoseconds — with
    /// [`count`](Histogram::count), the live pair behind a Prometheus
    /// histogram's `_sum`/`_count` series.
    pub fn sum_ns(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Freeze the current distribution into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive the count from the bucket sum so quantile ranks are
        // consistent even if a `record` is racing the snapshot.
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (idx, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper_bound(idx);
                }
            }
            bucket_upper_bound(BUCKETS - 1)
        };
        let max = inner.max.load(Ordering::Relaxed);
        let occupied = buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(idx, n)| (bucket_upper_bound(idx), *n))
            .collect();
        let exemplars = (0..BUCKETS)
            .filter_map(|idx| {
                let trace_id = inner.ex_trace[idx].load(Ordering::Relaxed);
                (trace_id != 0).then(|| Exemplar {
                    bucket_ns: bucket_upper_bound(idx),
                    trace_id,
                    at_ms: inner.ex_at_ms[idx].load(Ordering::Relaxed),
                })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum_ns: inner.sum.load(Ordering::Relaxed),
            max_ns: max,
            p50_ns: quantile(0.50).min(max),
            p90_ns: quantile(0.90).min(max),
            p99_ns: quantile(0.99).min(max),
            buckets: occupied,
            exemplars,
        }
    }
}

/// One bucket's most recent exemplar: which trace last observed a
/// latency in this bucket, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Inclusive upper bound of the bucket the observation landed in,
    /// nanoseconds (`u64::MAX` for the overflow bucket).
    pub bucket_ns: u64,
    /// Raw trace id (a `css-trace` `TraceId` value); never 0.
    pub trace_id: u64,
    /// Platform-clock milliseconds when the exemplar was recorded.
    pub at_ms: u64,
}

/// Plain-data summary of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, nanoseconds (exact, not bucketed).
    pub max_ns: u64,
    /// Median upper-bound estimate, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile upper-bound estimate, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile upper-bound estimate, nanoseconds.
    pub p99_ns: u64,
    /// Occupied log₂ buckets as `(inclusive upper bound, count)`, in
    /// ascending bound order; empty buckets are omitted.
    pub buckets: Vec<(u64, u64)>,
    /// Per-bucket most-recent exemplars, in ascending bound order;
    /// buckets that never saw an exemplared observation are omitted.
    /// Empty unless the workload records through
    /// [`Histogram::record_with_exemplar`].
    pub exemplars: Vec<Exemplar>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 43, "clones share state");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.dec();
        g.sub(4);
        assert_eq!(g.get(), 5);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        // 100 samples: 90 fast (~1µs), 10 slow (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max_ns, 1_000_000);
        // p50 lands in the fast bucket: within [1000, 2048).
        assert!((1_000..2_048).contains(&snap.p50_ns), "p50={}", snap.p50_ns);
        // p99 lands in the slow bucket: within [1e6, 2^20).
        assert!(snap.p99_ns >= 1_000_000, "p99={}", snap.p99_ns);
        assert!(snap.p99_ns < (1 << 21), "p99={}", snap.p99_ns);
        assert!(snap.p50_ns <= snap.p90_ns && snap.p90_ns <= snap.p99_ns);
        assert_eq!(snap.sum_ns, 90 * 1_000 + 10 * 1_000_000);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let h = Histogram::new();
        h.record(12_345);
        let snap = h.snapshot();
        assert_eq!(snap.max_ns, 12_345);
        assert_eq!(snap.p50_ns, snap.p99_ns);
        assert!(snap.p50_ns >= 12_345 && snap.p50_ns <= 16_383);
    }

    #[test]
    fn max_is_exact_and_caps_quantiles() {
        let h = Histogram::new();
        h.record(5);
        let snap = h.snapshot();
        // Bucket upper bound would say 7; the exact max caps it to 5.
        assert_eq!(snap.p99_ns, 5);
    }

    #[test]
    fn snapshot_exposes_occupied_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(5); // bucket le7
        h.record(5);
        h.record(1_000); // bucket le1023
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 1), (7, 2), (1023, 1)]);
        assert_eq!(snap.buckets.iter().map(|(_, n)| n).sum::<u64>(), snap.count);
    }

    #[test]
    fn record_duration_converts() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.snapshot().sum_ns, 3_000);
    }

    #[test]
    fn exemplar_lands_in_the_bucket_of_its_sample() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 0xAAAA, 100); // bucket le7
        h.record_with_exemplar(1_000, 0xBBBB, 200); // bucket le1023
        let snap = h.snapshot();
        assert_eq!(
            snap.exemplars,
            vec![
                Exemplar {
                    bucket_ns: 7,
                    trace_id: 0xAAAA,
                    at_ms: 100
                },
                Exemplar {
                    bucket_ns: 1023,
                    trace_id: 0xBBBB,
                    at_ms: 200
                },
            ]
        );
    }

    #[test]
    fn most_recent_exemplar_wins_within_a_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 0xAAAA, 100);
        h.record_with_exemplar(6, 0xBBBB, 200); // same le7 bucket
        let snap = h.snapshot();
        assert_eq!(snap.exemplars.len(), 1);
        assert_eq!(snap.exemplars[0].trace_id, 0xBBBB);
        assert_eq!(snap.exemplars[0].at_ms, 200);
    }

    #[test]
    fn zero_trace_id_records_the_sample_but_no_exemplar() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 0, 100);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.exemplars.is_empty());
    }

    #[test]
    fn plain_records_do_not_disturb_exemplars() {
        let h = Histogram::new();
        h.record_with_exemplar(5, 0xAAAA, 100);
        h.record(6); // same bucket, no exemplar: slot must survive
        let snap = h.snapshot();
        assert_eq!(snap.exemplars.len(), 1);
        assert_eq!(snap.exemplars[0].trace_id, 0xAAAA);
    }

    #[test]
    fn live_sum_and_count_match_snapshot() {
        let h = Histogram::new();
        h.record(100);
        h.record(250);
        assert_eq!(h.sum_ns(), 350);
        assert_eq!(h.count(), 2);
        let snap = h.snapshot();
        assert_eq!(snap.sum_ns, h.sum_ns());
        assert_eq!(snap.count, h.count());
    }
}
