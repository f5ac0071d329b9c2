//! Named instrument registry and point-in-time snapshots.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// A shared, named collection of instruments.
///
/// Cloning is cheap and shares state, so one registry can thread
/// through every subsystem of a platform instance. The internal locks
/// guard only the name → handle maps: components resolve their
/// handles once (get-or-create) and then record lock-free. A lookup
/// that finds its name takes the read side and allocates nothing; only
/// the first use of a name takes the write side and copies the name.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[derive(Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// The handle registered under `name`, created on first use.
///
/// The name-map locks do not poison (the lock shim recovers them): the
/// maps hold only name → handle entries, and an insert that panicked
/// mid-way leaves the map valid — so observability keeps working even
/// after a panic elsewhere took a registry lock down with it.
fn get_or_create<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(handle) = map.read().get(name) {
        return handle.clone();
    }
    map.write().entry(name.to_string()).or_default().clone()
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.inner.counters, name)
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.inner.gauges, name)
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.inner.histograms, name)
    }

    /// Freeze every instrument into plain data.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Every instrument's value at one instant, in stable name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// A counter's total, 0 if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's level, 0 if it was never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's summary, if it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Line-oriented text exposition:
    ///
    /// ```text
    /// counter bus.published 42
    /// gauge bus.queue_depth 3
    /// histogram stage.consent count=42 mean_ns=810 p50_ns=1023 p90_ns=2047 p99_ns=4095 max_ns=3891 buckets=le1023:30,le2047:8,le4095:4
    /// ```
    ///
    /// One instrument per line, keys in stable order (the maps are
    /// `BTreeMap`s, so two snapshots of the same state render
    /// byte-identically) — greppable and diffable, which is the point.
    /// Each occupied log₂ bucket prints as `le{bound}:{count}`; the
    /// overflow bucket (bound `u64::MAX`) prints as `leinf`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} mean_ns={} p50_ns={} p90_ns={} p99_ns={} max_ns={}",
                h.count,
                h.mean_ns(),
                h.p50_ns,
                h.p90_ns,
                h.p99_ns,
                h.max_ns,
            ));
            if !h.buckets.is_empty() {
                let rendered: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(bound, n)| {
                        if *bound == u64::MAX {
                            format!("leinf:{n}")
                        } else {
                            format!("le{bound}:{n}")
                        }
                    })
                    .collect();
                out.push_str(&format!(" buckets={}", rendered.join(",")));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("hits").get(), 2);

        let g = reg.gauge("depth");
        g.add(7);
        assert_eq!(reg.gauge("depth").get(), 7);

        reg.histogram("lat").record(100);
        assert_eq!(reg.histogram("lat").count(), 1);
    }

    #[test]
    fn cloned_registry_shares_instruments() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.counter("hits").add(3);
        assert_eq!(reg.snapshot().counter("hits"), 3);
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(5);
        reg.gauge("b.depth").set(-2);
        reg.histogram("c.lat").record(1_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), 5);
        assert_eq!(snap.gauge("b.depth"), -2);
        assert_eq!(snap.histogram("c.lat").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn text_exposition_is_stable_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.gauge("depth").set(4);
        reg.histogram("lat").record(10);
        let text = reg.snapshot().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter a.first 1");
        assert_eq!(lines[1], "counter z.last 1");
        assert_eq!(lines[2], "gauge depth 4");
        assert!(lines[3].starts_with("histogram lat count=1 "));
        assert_eq!(reg.snapshot().to_string(), text);
    }

    #[test]
    fn text_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.counter("bus.published").add(42);
        reg.gauge("bus.queue_depth").set(3);
        let h = reg.histogram("stage.consent");
        h.record(500); // bucket le511
        h.record(500);
        h.record(900); // bucket le1023
        assert_eq!(
            reg.snapshot().to_text(),
            "counter bus.published 42\n\
             gauge bus.queue_depth 3\n\
             histogram stage.consent count=3 mean_ns=633 p50_ns=511 p90_ns=900 \
             p99_ns=900 max_ns=900 buckets=le511:2,le1023:1\n"
        );
        // Deterministic: the same state renders byte-identically.
        assert_eq!(reg.snapshot().to_text(), reg.snapshot().to_text());
    }

    /// A panic while holding a registry lock must not take the ops
    /// plane down with it: the maps stay valid (get-or-create inserts
    /// are atomic from the map's perspective), so the registry recovers
    /// the poisoned lock and keeps serving instruments and snapshots.
    #[test]
    fn poisoned_lock_still_registers_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.counter("before.poison").add(5);
        // Poison all three name-map locks by panicking while each is
        // held (a handle resolution is in flight when the panic hits).
        let clone = reg.clone();
        std::thread::spawn(move || {
            let _counters = clone.inner.counters.write();
            let _gauges = clone.inner.gauges.write();
            let _histograms = clone.inner.histograms.write();
            panic!("poison the telemetry locks");
        })
        .join()
        .unwrap_err();

        // Every operation still works.
        reg.counter("before.poison").inc();
        reg.counter("after.poison").add(2);
        reg.gauge("depth").set(3);
        reg.histogram("lat").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("before.poison"), 6);
        assert_eq!(snap.counter("after.poison"), 2);
        assert_eq!(snap.gauge("depth"), 3);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn text_exposition_renders_overflow_bucket_as_inf() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat").record(u64::MAX);
        let text = reg.snapshot().to_text();
        assert!(text.contains("buckets=leinf:1"), "{text}");
    }
}
