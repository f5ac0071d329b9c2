//! The time-series store: per-metric ring-of-rings retention with
//! downsampling.
//!
//! Every sampler tick appends one **raw** point per live metric; raw
//! points fold into **1-minute** aggregates as they arrive, and minute
//! aggregates fold into **1-hour** aggregates — three bounded rings per
//! metric (ring-of-rings), each dropping its oldest slot when full, so
//! the store's footprint is a fixed function of [`Retention`] no matter
//! how long the platform runs. Histogram points carry their merged
//! log₂ delta buckets through every tier, which is what makes
//! `quantile_over_time` answerable at raw, minute, *and* hour
//! resolution instead of only over the lifetime cumulative.

use std::collections::{BTreeMap, VecDeque};

use css_telemetry::{Counter, Gauge, MetricsRegistry, TelemetrySnapshot};
use css_types::Timestamp;
use parking_lot::Mutex;

use crate::delta::{merge_buckets, HistogramDelta, SnapshotDelta};

/// Width of a minute slot.
const MINUTE_MS: u64 = 60_000;
/// Width of an hour slot.
const HOUR_MS: u64 = 3_600_000;

/// Slots retained per tier, per metric. The store never allocates past
/// this: each tier is a drop-oldest ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retention {
    /// Raw sampler ticks kept (one slot per tick).
    pub raw: usize,
    /// One-minute aggregate slots kept.
    pub minutes: usize,
    /// One-hour aggregate slots kept.
    pub hours: usize,
}

impl Default for Retention {
    /// 960 raw ticks (4 minutes at the 250 ms production cadence),
    /// 180 minute slots (3 hours), 48 hour slots (2 days).
    fn default() -> Self {
        Retention {
            raw: 960,
            minutes: 180,
            hours: 48,
        }
    }
}

/// Which ring a query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// One slot per sampler tick.
    Raw,
    /// One slot per minute of platform-clock time.
    Minute,
    /// One slot per hour of platform-clock time.
    Hour,
}

impl Resolution {
    /// Stable label used in query params and JSON documents.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Resolution::Raw => "raw",
            Resolution::Minute => "minute",
            Resolution::Hour => "hour",
        }
    }

    /// Parse a query-param value.
    pub(crate) fn parse(s: &str) -> Option<Resolution> {
        match s {
            "raw" => Some(Resolution::Raw),
            "minute" | "1m" => Some(Resolution::Minute),
            "hour" | "1h" => Some(Resolution::Hour),
            _ => None,
        }
    }
}

/// The instrument kind a series was built from (drives which query
/// functions are meaningful: `rate` wants counters, quantiles want
/// histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonic total; points store the cumulative value.
    Counter,
    /// Level; points store the sampled level.
    Gauge,
    /// Latency distribution; points store per-tick deltas with merged
    /// log₂ buckets.
    Histogram,
}

impl MetricKind {
    /// Stable label used in JSON documents.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One retained slot: a single tick at raw resolution, a folded window
/// at minute/hour resolution. Scalar series use `sum/min/max/last` over
/// the sampled values; histogram series additionally carry the merged
/// delta buckets (nanosecond upper bound → observation count) so
/// quantiles stay answerable after downsampling.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Aggregate {
    /// Slot start (tick time at raw resolution, aligned slot start at
    /// minute/hour resolution).
    pub from_ms: u64,
    /// Time of the newest sample folded in.
    pub to_ms: u64,
    /// Samples folded in: ticks for scalars, histogram observations
    /// (delta counts) for histograms.
    pub count: u64,
    /// Sum of sampled values (scalars) or of delta `sum_ns` (histograms).
    pub sum: f64,
    /// Smallest folded value (scalars) / lowest occupied delta bucket
    /// bound (histograms).
    pub min: f64,
    /// Largest folded value (scalars) / highest occupied delta bucket
    /// bound (histograms).
    pub max: f64,
    /// Newest folded value: the cumulative total for counters, the
    /// level for gauges, the per-tick p99 estimate for histograms.
    pub last: f64,
    /// Merged log₂ delta buckets, ascending `(upper bound ns, count)`;
    /// empty for scalar series.
    pub buckets: Vec<(u64, u64)>,
}

impl Aggregate {
    fn point(at_ms: u64, value: f64) -> Aggregate {
        Aggregate {
            from_ms: at_ms,
            to_ms: at_ms,
            count: 1,
            sum: value,
            min: value,
            max: value,
            last: value,
            buckets: Vec::new(),
        }
    }

    /// Fold a newer slot into this one (chronological order assumed).
    fn fold(&mut self, other: &Aggregate) {
        self.to_ms = self.to_ms.max(other.to_ms);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.last = other.last;
        if !other.buckets.is_empty() {
            self.buckets = merge_buckets(&self.buckets, &other.buckets);
        }
    }

    /// Arithmetic mean of the folded values (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate over this slot's merged buckets, as the
    /// occupied bucket's inclusive upper bound (the same upper-bound
    /// convention `css-telemetry` histograms report). `None` for scalar
    /// slots (no distribution to rank).
    pub(crate) fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total: u64 = self.buckets.iter().map(|(_, n)| *n).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(*bound);
            }
        }
        self.buckets.last().map(|(bound, _)| *bound)
    }
}

/// One metric's three rings.
struct Series {
    kind: MetricKind,
    raw: VecDeque<Aggregate>,
    minutes: VecDeque<Aggregate>,
    hours: VecDeque<Aggregate>,
}

impl Series {
    fn new(kind: MetricKind) -> Series {
        Series {
            kind,
            raw: VecDeque::new(),
            minutes: VecDeque::new(),
            hours: VecDeque::new(),
        }
    }

    fn tier(&self, res: Resolution) -> &VecDeque<Aggregate> {
        match res {
            Resolution::Raw => &self.raw,
            Resolution::Minute => &self.minutes,
            Resolution::Hour => &self.hours,
        }
    }

    fn len(&self) -> usize {
        self.raw.len() + self.minutes.len() + self.hours.len()
    }

    /// Append one raw point and fold it down the tiers.
    fn push(&mut self, point: Aggregate, retention: &Retention) {
        fold_into_slot(&mut self.minutes, &point, MINUTE_MS, retention.minutes);
        fold_into_slot(&mut self.hours, &point, HOUR_MS, retention.hours);
        if self.raw.len() >= retention.raw {
            self.raw.pop_front();
        }
        self.raw.push_back(point);
    }
}

/// Fold a raw point into its aligned slot in a downsampled tier,
/// opening a new slot (and dropping the oldest past `keep`) when the
/// point crosses a slot boundary.
fn fold_into_slot(tier: &mut VecDeque<Aggregate>, point: &Aggregate, width_ms: u64, keep: usize) {
    let slot_start = point.from_ms - point.from_ms % width_ms;
    if let Some(open) = tier.back_mut() {
        if open.from_ms == slot_start {
            open.fold(point);
            return;
        }
    }
    if tier.len() >= keep {
        tier.pop_front();
    }
    let mut slot = point.clone();
    slot.from_ms = slot_start;
    tier.push_back(slot);
}

#[derive(Default)]
struct StoreState {
    series: BTreeMap<String, Series>,
    /// Newest append time, once there is one: appends must not run
    /// backwards.
    last_at_ms: Option<u64>,
    /// Histogram observations of refused ticks, waiting for the next
    /// accepted point: the plane's baseline moves on every tick, so
    /// what a refused tick saw would otherwise belong to no point.
    refused: BTreeMap<String, HistogramDelta>,
}

/// The embedded metrics-history store. `&self` everywhere: the
/// plane's tick writes, the ops query endpoints read.
pub(crate) struct Chronicle {
    retention: Retention,
    state: Mutex<StoreState>,
    appends: Counter,
    appends_skipped: Counter,
    points: Gauge,
}

impl Chronicle {
    /// A store with the given retention, reporting itself through
    /// `registry` (`chronicle.appends`, `chronicle.appends_skipped`,
    /// `chronicle.points`).
    pub(crate) fn new(retention: Retention, registry: &MetricsRegistry) -> Chronicle {
        Chronicle {
            // Every tier needs at least two slots for a delta/rate to
            // exist.
            retention: Retention {
                raw: retention.raw.max(2),
                minutes: retention.minutes.max(2),
                hours: retention.hours.max(2),
            },
            state: Mutex::default(),
            appends: registry.counter("chronicle.appends"),
            appends_skipped: registry.counter("chronicle.appends_skipped"),
            points: registry.gauge("chronicle.points"),
        }
    }

    /// Append one sampler tick: every counter and gauge becomes a raw
    /// point holding its sampled value; every histogram becomes a raw
    /// point holding the tick's *delta* (zero-delta histogram ticks
    /// append nothing). A tick stamped *earlier* than the newest
    /// retained point is refused whole — a stalled or non-monotonic
    /// platform clock must never corrupt the rings
    /// (`chronicle.appends_skipped` counts the refusals) — and its
    /// histogram observations ride into the next accepted point.
    pub(crate) fn append(
        &self,
        snapshot: &TelemetrySnapshot,
        delta: &SnapshotDelta,
        at: Timestamp,
    ) {
        let at_ms = at.0;
        let mut state = self.state.lock();
        if state.last_at_ms.is_some_and(|last| at_ms < last) {
            for (name, d) in &delta.histograms {
                state.refused.entry(name.clone()).or_default().merge(d);
            }
            drop(state);
            self.appends_skipped.inc();
            return;
        }
        state.last_at_ms = Some(at_ms);
        for (name, value) in &snapshot.counters {
            let series = state
                .series
                .entry(name.clone())
                .or_insert_with(|| Series::new(MetricKind::Counter));
            series.push(Aggregate::point(at_ms, *value as f64), &self.retention);
        }
        for (name, value) in &snapshot.gauges {
            let series = state
                .series
                .entry(name.clone())
                .or_insert_with(|| Series::new(MetricKind::Gauge));
            series.push(Aggregate::point(at_ms, *value as f64), &self.retention);
        }
        for name in snapshot.histograms.keys() {
            let mut fresh = state.refused.remove(name).unwrap_or_default();
            if let Some(d) = delta.histograms.get(name) {
                fresh.merge(d);
            }
            let series = state
                .series
                .entry(name.clone())
                .or_insert_with(|| Series::new(MetricKind::Histogram));
            if let Some(point) = histogram_point(fresh, at_ms) {
                series.push(point, &self.retention);
            }
        }
        let total: usize = state.series.values().map(Series::len).sum();
        drop(state);
        self.points.set(total as i64);
        self.appends.inc();
    }

    /// Every retained metric with its kind, in name order.
    pub(crate) fn series_names(&self) -> Vec<(String, MetricKind)> {
        self.state
            .lock()
            .series
            .iter()
            .map(|(name, s)| (name.clone(), s.kind))
            .collect()
    }

    /// The metric's kind, if retained.
    pub(crate) fn kind(&self, metric: &str) -> Option<MetricKind> {
        self.state.lock().series.get(metric).map(|s| s.kind)
    }

    /// The newest raw point of a metric.
    pub(crate) fn latest(&self, metric: &str) -> Option<Aggregate> {
        self.state.lock().series.get(metric)?.raw.back().cloned()
    }

    /// The slots of `metric` at `res` overlapping `[from_ms, to_ms]`,
    /// oldest first.
    pub(crate) fn window(
        &self,
        metric: &str,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Vec<Aggregate> {
        let state = self.state.lock();
        let Some(series) = state.series.get(metric) else {
            return Vec::new();
        };
        series
            .tier(res)
            .iter()
            .filter(|a| a.to_ms >= from_ms && a.from_ms <= to_ms)
            .cloned()
            .collect()
    }

    /// The coarsest-to-finest resolution whose retained window still
    /// covers `from_ms`: raw when the raw ring reaches back that far,
    /// else minute, else hour.
    pub(crate) fn auto_resolution(&self, metric: &str, from_ms: u64) -> Resolution {
        let state = self.state.lock();
        let Some(series) = state.series.get(metric) else {
            return Resolution::Raw;
        };
        let covers = |tier: &VecDeque<Aggregate>| {
            tier.front().is_some_and(|oldest| oldest.from_ms <= from_ms)
        };
        if covers(&series.raw) {
            Resolution::Raw
        } else if covers(&series.minutes) {
            Resolution::Minute
        } else {
            Resolution::Hour
        }
    }

    /// All slots in the window folded into one (None when the window is
    /// empty).
    pub(crate) fn merged(
        &self,
        metric: &str,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<Aggregate> {
        let slots = self.window(metric, res, from_ms, to_ms);
        let mut iter = slots.into_iter();
        let mut merged = iter.next()?;
        for slot in iter {
            merged.fold(&slot);
        }
        Some(merged)
    }

    /// `quantile_over_time`: the q-quantile of every histogram
    /// observation in the window, from the merged delta buckets. `None`
    /// for scalar metrics or empty windows.
    pub(crate) fn quantile_over_time(
        &self,
        metric: &str,
        q: f64,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<u64> {
        self.merged(metric, res, from_ms, to_ms)?.quantile_ns(q)
    }

    /// `delta`: how much the metric moved across the window — cumulative
    /// difference for counters and gauges (newest `last` minus oldest
    /// first value), total observations for histograms.
    pub(crate) fn delta(
        &self,
        metric: &str,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<f64> {
        let kind = self.kind(metric)?;
        let slots = self.window(metric, res, from_ms, to_ms);
        let (first, last) = (slots.first()?, slots.last()?);
        Some(match kind {
            MetricKind::Counter | MetricKind::Gauge => last.last - first.min,
            MetricKind::Histogram => slots.iter().map(|a| a.count).sum::<u64>() as f64,
        })
    }

    /// `rate`: [`delta`](Chronicle::delta) per second of covered window.
    /// `None` when the window is empty **or zero-width** — a stalled
    /// clock must not divide by zero.
    pub(crate) fn rate(
        &self,
        metric: &str,
        res: Resolution,
        from_ms: u64,
        to_ms: u64,
    ) -> Option<f64> {
        let slots = self.window(metric, res, from_ms, to_ms);
        let (first, last) = (slots.first()?, slots.last()?);
        let span_ms = last.to_ms.saturating_sub(first.from_ms);
        if span_ms == 0 {
            return None;
        }
        let delta = self.delta(metric, res, from_ms, to_ms)?;
        Some(delta * 1_000.0 / span_ms as f64)
    }
}

/// The raw point for one histogram's tick delta. `None` when no new
/// observation arrived.
fn histogram_point(delta: HistogramDelta, at_ms: u64) -> Option<Aggregate> {
    if delta.count == 0 {
        return None;
    }
    let buckets = delta.buckets;
    let min = buckets.first().map(|(b, _)| *b as f64).unwrap_or(0.0);
    let max = buckets.last().map(|(b, _)| *b as f64).unwrap_or(0.0);
    let mut point = Aggregate {
        from_ms: at_ms,
        to_ms: at_ms,
        count: delta.count,
        sum: delta.sum_ns as f64,
        min,
        max,
        last: 0.0,
        buckets,
    };
    point.last = point.quantile_ns(0.99).unwrap_or(0) as f64;
    Some(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_telemetry::MetricsRegistry;

    /// A store fed the way the plane feeds it: each tick's snapshot
    /// with its delta against the previous one.
    struct Fed {
        chronicle: Chronicle,
        prev: std::cell::RefCell<TelemetrySnapshot>,
    }

    impl std::ops::Deref for Fed {
        type Target = Chronicle;
        fn deref(&self) -> &Chronicle {
            &self.chronicle
        }
    }

    fn store(retention: Retention) -> (Fed, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let fed = Fed {
            chronicle: Chronicle::new(retention, &registry),
            prev: Default::default(),
        };
        (fed, registry)
    }

    fn tick(fed: &Fed, work: &MetricsRegistry, at_ms: u64) {
        let cur = work.snapshot();
        let delta = SnapshotDelta::between(&fed.prev.borrow(), &cur);
        fed.append(&cur, &delta, Timestamp(at_ms));
        fed.prev.replace(cur);
    }

    #[test]
    fn counters_retain_cumulative_points_and_rates() {
        let (chronicle, _) = store(Retention::default());
        let work = MetricsRegistry::new();
        for i in 1..=10u64 {
            work.counter("bus.published").add(5);
            tick(&chronicle, &work, i * 1_000);
        }
        let latest = chronicle.latest("bus.published").expect("retained");
        assert_eq!(latest.last, 50.0);
        assert_eq!(chronicle.kind("bus.published"), Some(MetricKind::Counter));
        // 45 events over 9 covered seconds (first point at 5).
        let rate = chronicle
            .rate("bus.published", Resolution::Raw, 0, 20_000)
            .expect("rate");
        assert!((rate - 5.0).abs() < 1e-9, "rate={rate}");
        let delta = chronicle
            .delta("bus.published", Resolution::Raw, 0, 20_000)
            .expect("delta");
        assert!((delta - 45.0).abs() < 1e-9, "delta={delta}");
    }

    #[test]
    fn raw_ring_is_bounded_and_drops_oldest() {
        let (chronicle, registry) = store(Retention {
            raw: 4,
            minutes: 2,
            hours: 2,
        });
        let work = MetricsRegistry::new();
        for i in 1..=10u64 {
            work.gauge("bus.queue_depth").set(i as i64);
            tick(&chronicle, &work, i * 1_000);
        }
        let window = chronicle.window("bus.queue_depth", Resolution::Raw, 0, u64::MAX);
        assert_eq!(window.len(), 4);
        assert_eq!(window[0].last, 7.0, "oldest retained is tick 7");
        assert_eq!(window[3].last, 10.0);
        assert!(registry.snapshot().gauges["chronicle.points"] > 0);
    }

    #[test]
    fn histogram_points_are_per_tick_deltas_with_buckets() {
        let (chronicle, _) = store(Retention::default());
        let work = MetricsRegistry::new();
        work.histogram("stage.total").record(1_000);
        work.histogram("stage.total").record(1_000);
        tick(&chronicle, &work, 1_000);
        work.histogram("stage.total").record(5_000_000);
        tick(&chronicle, &work, 2_000);
        // Zero-delta tick: nothing appended.
        tick(&chronicle, &work, 3_000);
        let window = chronicle.window("stage.total", Resolution::Raw, 0, u64::MAX);
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].count, 2);
        assert_eq!(window[1].count, 1);
        assert!(window[1].last >= 5_000_000.0, "per-tick p99 rode along");
        // Merged over the window: 3 observations, p99 in the slow bucket.
        let p99 = chronicle
            .quantile_over_time("stage.total", 0.99, Resolution::Raw, 0, u64::MAX)
            .expect("quantile");
        assert!(p99 >= 5_000_000, "p99={p99}");
        let p50 = chronicle
            .quantile_over_time("stage.total", 0.50, Resolution::Raw, 0, u64::MAX)
            .expect("quantile");
        assert!(p50 < 5_000_000, "p50={p50}");
    }

    #[test]
    fn minute_and_hour_tiers_downsample_with_merged_buckets() {
        let (chronicle, _) = store(Retention::default());
        let work = MetricsRegistry::new();
        // Two minutes of ticks, 10 s apart: fast first minute, slow second.
        for i in 0..12u64 {
            let ns = if i < 6 { 1_000 } else { 5_000_000 };
            work.histogram("stage.total").record(ns);
            tick(&chronicle, &work, i * 10_000);
        }
        let minutes = chronicle.window("stage.total", Resolution::Minute, 0, u64::MAX);
        assert_eq!(minutes.len(), 2, "two minute slots");
        assert_eq!(minutes[0].from_ms, 0);
        assert_eq!(minutes[1].from_ms, 60_000);
        assert_eq!(minutes[0].count, 6);
        assert_eq!(minutes[1].count, 6);
        let fast_p99 = minutes[0].quantile_ns(0.99).unwrap();
        let slow_p99 = minutes[1].quantile_ns(0.99).unwrap();
        assert!(fast_p99 < 3_000, "fast minute p99={fast_p99}");
        assert!(slow_p99 >= 5_000_000, "slow minute p99={slow_p99}");
        let hours = chronicle.window("stage.total", Resolution::Hour, 0, u64::MAX);
        assert_eq!(hours.len(), 1, "both minutes fold into one hour slot");
        assert_eq!(hours[0].count, 12);
    }

    #[test]
    fn non_monotonic_appends_are_skipped_not_corrupting() {
        let (chronicle, registry) = store(Retention::default());
        let work = MetricsRegistry::new();
        work.counter("bus.published").add(1);
        work.histogram("lat").record(1_000);
        tick(&chronicle, &work, 10_000);
        work.counter("bus.published").add(1);
        work.histogram("lat").record(5_000_000);
        // The clock ran backwards: the whole tick is refused.
        tick(&chronicle, &work, 5_000);
        let window = chronicle.window("bus.published", Resolution::Raw, 0, u64::MAX);
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].to_ms, 10_000);
        assert_eq!(
            chronicle.window("lat", Resolution::Raw, 0, u64::MAX).len(),
            1
        );
        assert_eq!(registry.snapshot().counters["chronicle.appends_skipped"], 1);
        // A stalled clock (same instant) is allowed and folds forward,
        // and what the refused tick observed lands in this point.
        work.counter("bus.published").add(1);
        work.histogram("lat").record(1_000);
        tick(&chronicle, &work, 10_000);
        let window = chronicle.window("bus.published", Resolution::Raw, 0, u64::MAX);
        assert_eq!(window.len(), 2, "zero-width tick still appends");
        let lat = chronicle.window("lat", Resolution::Raw, 0, u64::MAX);
        assert_eq!(lat.len(), 2);
        assert_eq!(lat[1].count, 2, "the refused observation is not lost");
        assert_eq!(lat[1].buckets, vec![(1_023, 1), (8_388_607, 1)]);
        assert_eq!(lat[1].sum, 5_001_000.0);
    }

    #[test]
    fn zero_width_window_rate_is_none() {
        let (chronicle, _) = store(Retention::default());
        let work = MetricsRegistry::new();
        work.counter("bus.published").add(3);
        tick(&chronicle, &work, 1_000);
        work.counter("bus.published").add(3);
        tick(&chronicle, &work, 1_000); // stalled clock: same instant
        assert_eq!(
            chronicle.rate("bus.published", Resolution::Raw, 0, u64::MAX),
            None,
            "zero-width window must not divide by zero"
        );
        // delta still answers (no division involved).
        assert!(chronicle
            .delta("bus.published", Resolution::Raw, 0, u64::MAX)
            .is_some());
    }

    #[test]
    fn histogram_reset_restarts_the_baseline() {
        let (chronicle, _) = store(Retention::default());
        let work = MetricsRegistry::new();
        work.histogram("lat").record(1_000);
        work.histogram("lat").record(1_000);
        tick(&chronicle, &work, 1_000);
        // A fresh registry with a smaller cumulative count stands in
        // for a restarted component.
        let restarted = MetricsRegistry::new();
        restarted.histogram("lat").record(2_000);
        tick(&chronicle, &restarted, 2_000);
        let window = chronicle.window("lat", Resolution::Raw, 0, u64::MAX);
        assert_eq!(window.len(), 2);
        assert_eq!(window[1].count, 1, "reset becomes a fresh baseline");
    }

    #[test]
    fn auto_resolution_falls_back_as_raw_ages_out() {
        let (chronicle, _) = store(Retention {
            raw: 3,
            minutes: 600,
            hours: 48,
        });
        let work = MetricsRegistry::new();
        for i in 0..20u64 {
            work.gauge("g").set(i as i64);
            tick(&chronicle, &work, i * 60_000);
        }
        // Raw holds only the last 3 ticks; earlier times need minutes.
        assert_eq!(chronicle.auto_resolution("g", 19 * 60_000), Resolution::Raw);
        assert_eq!(chronicle.auto_resolution("g", 0), Resolution::Minute);
    }
}
