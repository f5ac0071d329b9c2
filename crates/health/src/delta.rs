//! The one subtraction: what arrived between two cumulative snapshots.
//!
//! Every instrument in a [`TelemetrySnapshot`] is cumulative since the
//! platform was built. The plane keeps the previous tick's snapshot,
//! subtracts it from the current one **here, once**, and hands the
//! result to the SLO windows and the history rings — so the two can
//! never disagree about what a tick contained.

use std::collections::BTreeMap;

use css_telemetry::{HistogramSnapshot, TelemetrySnapshot};

/// New observations of one histogram between two ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HistogramDelta {
    /// Observations that arrived.
    pub count: u64,
    /// Their summed latency, nanoseconds.
    pub sum_ns: u64,
    /// The log₂ buckets that grew, ascending `(upper bound ns, new
    /// observations)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramDelta {
    /// What `h` holds beyond `before`: the grown buckets, count and
    /// sum. A histogram whose count went backwards — a restarted
    /// component — is a fresh baseline: everything it holds is new,
    /// never a negative delta.
    fn between(before: Option<&HistogramSnapshot>, h: &HistogramSnapshot) -> HistogramDelta {
        let empty = HistogramSnapshot::default();
        let before = before.filter(|b| h.count >= b.count).unwrap_or(&empty);
        let grown = |(bound, n): &(u64, u64)| {
            let was = before.buckets.iter().find(|(b, _)| b == bound);
            let was = was.map_or(0, |(_, n)| *n);
            (*n > was).then(|| (*bound, *n - was))
        };
        HistogramDelta {
            count: h.count - before.count,
            sum_ns: h.sum_ns.saturating_sub(before.sum_ns),
            buckets: h.buckets.iter().filter_map(grown).collect(),
        }
    }

    /// Add another tick's observations of the same histogram.
    pub(crate) fn merge(&mut self, other: &HistogramDelta) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.buckets = merge_buckets(&self.buckets, &other.buckets);
    }
}

/// What one tick added to the previous one.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotDelta {
    /// `(name, increase)` in name order — zero increases are omitted,
    /// so an idle platform yields an empty list.
    pub counters: Vec<(String, u64)>,
    /// Histograms that saw new observations.
    pub histograms: BTreeMap<String, HistogramDelta>,
}

impl SnapshotDelta {
    /// `cur − prev`. A counter or histogram absent from `prev` counts
    /// from zero (the first tick subtracts an empty snapshot); a
    /// counter that went backwards contributes nothing; a histogram
    /// that did is a fresh baseline ([`HistogramDelta::between`]).
    pub(crate) fn between(prev: &TelemetrySnapshot, cur: &TelemetrySnapshot) -> SnapshotDelta {
        let counters = cur
            .counters
            .iter()
            .filter_map(|(name, total)| {
                let increase = total.saturating_sub(prev.counter(name));
                (increase > 0).then(|| (name.clone(), increase))
            })
            .collect();
        let histograms = cur
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let delta = HistogramDelta::between(prev.histogram(name), h);
                (delta.count > 0 || !delta.buckets.is_empty()).then(|| (name.clone(), delta))
            })
            .collect();
        SnapshotDelta {
            counters,
            histograms,
        }
    }

    /// A counter's increase, 0 if it did not move.
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, increase)| *increase)
    }
}

/// Merge two ascending bucket lists, summing counts per bound.
pub(crate) fn merge_buckets(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut merged: BTreeMap<u64, u64> = a.iter().copied().collect();
    for (bound, n) in b {
        *merged.entry(*bound).or_default() += n;
    }
    merged.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::MetricsRegistry;

    #[test]
    fn first_tick_subtracts_an_empty_snapshot() {
        let work = MetricsRegistry::new();
        work.counter("controller.published").add(10);
        work.counter("controller.idle"); // registered, never moved
        work.histogram("stage.total").record(1_000);
        let delta = SnapshotDelta::between(&TelemetrySnapshot::default(), &work.snapshot());
        assert_eq!(
            delta.counters,
            vec![("controller.published".to_string(), 10)]
        );
        assert_eq!(delta.counter("controller.idle"), 0);
        let h = &delta.histograms["stage.total"];
        assert_eq!((h.count, h.sum_ns), (1, 1_000));
        assert_eq!(h.buckets, vec![(1_023, 1)]);
    }

    #[test]
    fn only_grown_buckets_and_moved_counters_survive() {
        let work = MetricsRegistry::new();
        work.counter("a").add(3);
        work.counter("b").add(3);
        work.histogram("lat").record(1_000);
        work.histogram("quiet").record(1_000);
        let prev = work.snapshot();
        work.counter("b").add(2);
        work.counter("c").add(1); // first appears mid-run
        work.histogram("lat").record(5_000_000);
        let delta = SnapshotDelta::between(&prev, &work.snapshot());
        assert_eq!(
            delta.counters,
            vec![("b".to_string(), 2), ("c".to_string(), 1)]
        );
        let h = &delta.histograms["lat"];
        assert_eq!((h.count, h.sum_ns), (1, 5_000_000));
        assert_eq!(h.buckets, vec![(8_388_607, 1)]);
        assert!(!delta.histograms.contains_key("quiet"));
    }

    #[test]
    fn a_histogram_that_went_backwards_is_a_fresh_baseline() {
        let work = MetricsRegistry::new();
        work.counter("n").add(9);
        for _ in 0..5 {
            work.histogram("lat").record(1_000);
        }
        let prev = work.snapshot();
        // A fresh registry with smaller cumulative values stands in
        // for a restarted component.
        let restarted = MetricsRegistry::new();
        restarted.counter("n").add(2);
        restarted.histogram("lat").record(1_000);
        restarted.histogram("lat").record(1_000);
        let delta = SnapshotDelta::between(&prev, &restarted.snapshot());
        assert_eq!(delta.counter("n"), 0, "a counter never goes negative");
        let h = &delta.histograms["lat"];
        assert_eq!((h.count, h.sum_ns), (2, 2_000));
        assert_eq!(h.buckets, vec![(1_023, 2)], "not 2 − 5 saturated to 0");
    }

    #[test]
    fn merged_deltas_add_up() {
        let mut a = HistogramDelta {
            count: 3,
            sum_ns: 30,
            buckets: vec![(7, 2), (1_023, 1)],
        };
        a.merge(&HistogramDelta {
            count: 6,
            sum_ns: 60,
            buckets: vec![(7, 1), (63, 5)],
        });
        assert_eq!((a.count, a.sum_ns), (9, 90));
        assert_eq!(a.buckets, vec![(7, 3), (63, 5), (1_023, 1)]);
    }

    #[test]
    fn merge_buckets_sums_shared_bounds() {
        assert_eq!(
            merge_buckets(&[(7, 2), (1023, 1)], &[(7, 1), (63, 5)]),
            vec![(7, 3), (63, 5), (1023, 1)]
        );
        assert_eq!(merge_buckets(&[], &[(1, 1)]), vec![(1, 1)]);
    }
}
