//! Bounded drop-oldest span storage.

use std::sync::atomic::{AtomicU64, Ordering};

use css_telemetry::{Counter, MetricsRegistry};
use parking_lot::Mutex;

use crate::span::Span;

/// One ring slot. `seq` holds `claim + 1` of the span currently stored
/// (0 = empty), so a snapshot can tell a slot from the current lap
/// apart from a stale one.
struct Slot {
    seq: AtomicU64,
    span: Mutex<Option<Span>>,
}

/// A bounded ring buffer of finished spans.
///
/// Writers claim a slot with a single `fetch_add` on the head counter —
/// the claim path is lock-free and never blocks on other writers. The
/// claimed slot's payload swap goes through a per-slot mutex (spans own
/// heap data, so they cannot be stored atomically); two writers only
/// ever contend on the *same* slot when the buffer has lapped, which
/// makes the lock effectively uncontended in practice.
///
/// When the buffer is full the **oldest** span is overwritten
/// (drop-oldest): recent causality is worth more than ancient history,
/// the same call the broker makes for monitoring-grade queues. Drops
/// are counted and, when the collector is built over a
/// [`MetricsRegistry`], exported as `trace.spans_dropped` next to
/// `trace.spans_recorded`.
pub struct SpanCollector {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
    recorded_metric: Option<Counter>,
    dropped_metric: Option<Counter>,
}

impl SpanCollector {
    /// A collector holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None, None)
    }

    /// A collector that also exports `trace.spans_recorded` and
    /// `trace.spans_dropped` counters into `registry`.
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> Self {
        Self::build(
            capacity,
            Some(registry.counter("trace.spans_recorded")),
            Some(registry.counter("trace.spans_dropped")),
        )
    }

    fn build(capacity: usize, recorded: Option<Counter>, dropped: Option<Counter>) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                span: Mutex::new(None),
            })
            .collect();
        SpanCollector {
            slots,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            recorded_metric: recorded,
            dropped_metric: dropped,
        }
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store one finished span, overwriting the oldest when full.
    pub fn record(&self, span: Span) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim as usize) % self.slots.len()];
        let mut cell = slot.span.lock();
        if cell.replace(span).is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.dropped_metric {
                c.inc();
            }
        }
        slot.seq.store(claim + 1, Ordering::Release);
        drop(cell);
        if let Some(c) = &self.recorded_metric {
            c.inc();
        }
    }

    /// Spans recorded over the collector's lifetime (including dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans overwritten before anyone read them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the retained spans, oldest first.
    ///
    /// Concurrent writers may lap a slot mid-snapshot; the per-slot
    /// sequence check skips any slot that no longer holds the claim the
    /// snapshot expects, so the result is always a consistent suffix of
    /// the record stream.
    pub fn snapshot(&self) -> Vec<Span> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        let start = head.saturating_sub(capacity);
        let mut out = Vec::with_capacity((head - start) as usize);
        for claim in start..head {
            let slot = &self.slots[(claim as usize) % self.slots.len()];
            if slot.seq.load(Ordering::Acquire) != claim + 1 {
                continue;
            }
            let cell = slot.span.lock();
            // Re-check under the lock: a writer may have re-claimed the
            // slot between the seq check and the lock.
            if slot.seq.load(Ordering::Acquire) == claim + 1 {
                if let Some(span) = cell.as_ref() {
                    out.push(span.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{SpanId, TraceId};
    use crate::span::SpanStatus;

    fn span(n: u64, name: &'static str) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(n),
            parent: None,
            name,
            start_ns: n,
            end_ns: n + 1,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let c = SpanCollector::new(8);
        for i in 0..5 {
            c.record(span(i, "s"));
        }
        let got = c.snapshot();
        assert_eq!(got.len(), 5);
        assert_eq!(
            got.iter().map(|s| s.id.value()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.recorded(), 5);
    }

    #[test]
    fn overflow_drops_oldest_not_newest() {
        let c = SpanCollector::new(4);
        for i in 0..6 {
            c.record(span(i, "s"));
        }
        let got = c.snapshot();
        // The two *oldest* spans (0, 1) were overwritten; the newest
        // four survive in order.
        assert_eq!(
            got.iter().map(|s| s.id.value()).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(c.dropped(), 2);
        assert_eq!(c.recorded(), 6);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = SpanCollector::new(0);
        c.record(span(1, "only"));
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.snapshot().len(), 1);
    }

    #[test]
    fn metrics_exported_through_registry() {
        let registry = MetricsRegistry::new();
        let c = SpanCollector::with_metrics(2, &registry);
        for i in 0..5 {
            c.record(span(i, "s"));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("trace.spans_recorded"), 5);
        assert_eq!(snap.counter("trace.spans_dropped"), 3);
    }

    /// Writers lapping a tiny ring while a reader snapshots
    /// concurrently: every exported span must be internally coherent
    /// (never a tear mixing two spans' fields), and once the writers
    /// quiesce the accounting must close — every attempt is either
    /// retained or counted as dropped.
    #[test]
    fn concurrent_overrun_never_tears_spans_and_accounts_every_attempt() {
        const CAPACITY: usize = 8;
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2_000;

        // Correlated fields: a span for value n has id=n, start=2n,
        // end=2n+1 — any cross-span tear breaks the correlation.
        fn coherent(s: &Span) -> bool {
            s.start_ns == s.id.value() * 2 && s.end_ns == s.start_ns + 1
        }

        let c = std::sync::Arc::new(SpanCollector::new(CAPACITY));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));

        let reader = {
            let c = c.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                loop {
                    let done = stop.load(Ordering::Relaxed) != 0;
                    for s in c.snapshot() {
                        assert!(
                            coherent(&s),
                            "torn span: id={} start={} end={}",
                            s.id.value(),
                            s.start_ns,
                            s.end_ns
                        );
                        seen += 1;
                    }
                    if done {
                        break;
                    }
                }
                seen
            })
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let n = t * PER_WRITER + i;
                        c.record(Span {
                            trace: TraceId(1),
                            id: SpanId(n),
                            parent: None,
                            name: "w",
                            start_ns: n * 2,
                            end_ns: n * 2 + 1,
                            status: SpanStatus::Ok,
                            attrs: Vec::new(),
                        });
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        let seen = reader.join().unwrap();
        assert!(seen > 0, "reader must have observed live snapshots");

        // Quiesced accounting: every attempt was either retained in the
        // ring or counted as an overwrite drop.
        let attempted = WRITERS * PER_WRITER;
        assert_eq!(c.recorded(), attempted);
        let retained = c.snapshot();
        assert!(retained.len() <= CAPACITY);
        assert!(retained.iter().all(coherent));
        assert_eq!(c.dropped(), attempted - retained.len() as u64);
    }

    #[test]
    fn concurrent_recording_loses_nothing_below_capacity() {
        let c = std::sync::Arc::new(SpanCollector::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..256 {
                    c.record(span(t * 1000 + i, "w"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.recorded(), 1024);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.snapshot().len(), 1024);
    }
}
