//! Telemetry wrapper for [`LogBackend`] implementations.

use css_telemetry::{Counter, Histogram, MetricsRegistry};

use crate::backend::LogBackend;
use css_types::CssResult;
use std::time::Instant;

/// Decorates any [`LogBackend`] with counters and a sync histogram
/// under `storage.*` names:
///
/// - `storage.appended_bytes` / `storage.read_bytes` counters, and
///   `storage.reads`, one per `read_at` call;
/// - the `storage.sync` latency histogram.
///
/// Appends and reads are not timed here: on the request paths they run
/// inside what their callers already time (a publish's `publish.index`
/// and `publish.audit`, a persist's `gateway.persist`, Algorithm 1's
/// `stage.gateway_retrieve`), so a clock read here would time the same
/// nanoseconds twice.
///
/// Several stores can share one registry: the instruments are shared
/// handles, so the metrics aggregate across every wrapped backend.
#[derive(Debug)]
pub struct InstrumentedBackend<B> {
    inner: B,
    sync_latency: Histogram,
    appended_bytes: Counter,
    reads: Counter,
    read_bytes: Counter,
}

impl<B: LogBackend> InstrumentedBackend<B> {
    /// Wrap `inner`, recording into `registry`.
    pub fn new(inner: B, registry: &MetricsRegistry) -> Self {
        InstrumentedBackend {
            inner,
            sync_latency: registry.histogram("storage.sync"),
            appended_bytes: registry.counter("storage.appended_bytes"),
            reads: registry.counter("storage.reads"),
            read_bytes: registry.counter("storage.read_bytes"),
        }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: LogBackend> LogBackend for InstrumentedBackend<B> {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let out = self.inner.append(data);
        if out.is_ok() {
            self.appended_bytes.add(data.len() as u64);
        }
        out
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.reads.inc();
        let out = self.inner.read_at(offset, len);
        if out.is_ok() {
            self.read_bytes.add(len as u64);
        }
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&mut self) -> CssResult<()> {
        let started = Instant::now();
        let out = self.inner.sync();
        self.sync_latency.record_duration(started.elapsed());
        out
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn records_latencies_and_byte_counts() {
        let registry = MetricsRegistry::new();
        let mut b = InstrumentedBackend::new(MemBackend::new(), &registry);
        b.append(b"hello").unwrap();
        b.append(b" world").unwrap();
        b.sync().unwrap();
        assert_eq!(b.read_at(0, 5).unwrap(), b"hello");

        let snap = registry.snapshot();
        assert_eq!(snap.histogram("storage.sync").unwrap().count, 1);
        assert_eq!(snap.counter("storage.reads"), 1);
        assert_eq!(snap.counter("storage.appended_bytes"), 11);
        assert_eq!(snap.counter("storage.read_bytes"), 5);
    }

    #[test]
    fn failed_operations_do_not_count_bytes() {
        let registry = MetricsRegistry::new();
        let b = InstrumentedBackend::new(MemBackend::new(), &registry);
        assert!(b.read_at(10, 5).is_err());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.read_bytes"), 0);
        // The attempt itself is still counted.
        assert_eq!(snap.counter("storage.reads"), 1);
    }

    #[test]
    fn passes_the_backend_contract_through() {
        let registry = MetricsRegistry::new();
        let mut b = InstrumentedBackend::new(MemBackend::new(), &registry);
        assert!(b.is_empty());
        b.append(b"abcdef").unwrap();
        assert_eq!(b.len(), 6);
        b.truncate(3).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.into_inner().len(), 3);
    }

    #[test]
    fn shared_registry_aggregates_across_stores() {
        let registry = MetricsRegistry::new();
        let mut a = InstrumentedBackend::new(MemBackend::new(), &registry);
        let mut b = InstrumentedBackend::new(MemBackend::new(), &registry);
        a.append(b"xx").unwrap();
        b.append(b"yyy").unwrap();
        assert_eq!(registry.snapshot().counter("storage.appended_bytes"), 5);
    }
}
