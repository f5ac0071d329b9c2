//! Tracing from outside the program: spans recorded by the benchmark
//! around platform calls (operation spans) and inside benchmark-owned
//! wrappers on the public storage seam (`BackendProvider` /
//! `LogBackend`). Spans stay in memory and are written as Chrome
//! `trace_event` JSON (opens in Perfetto) when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use css_core::BackendProvider;
use css_storage::LogBackend;
use css_types::CssResult;

/// Which platform component a storage backend belongs to, from the
/// name the platform opens it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// `audit`, `audit-<n>`.
    Audit,
    /// `events-index`, `events-index-<n>`.
    Index,
    /// `gateway-<producer>`.
    Gateway,
    /// `policies`.
    Policies,
}

impl Component {
    fn of(name: &str) -> Component {
        if name.starts_with("audit") {
            Component::Audit
        } else if name.starts_with("events-index") {
            Component::Index
        } else if name.starts_with("gateway-") {
            Component::Gateway
        } else {
            Component::Policies
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A platform call the generator made (`op` names which).
    Op(&'static str),
    /// A storage append of `bytes`.
    Append(Component),
    /// A storage read of `bytes`.
    Read(Component),
    /// A storage sync.
    Sync(Component),
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Start and end, nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The operation this span belongs to (operation spans: their own
    /// id; seam spans: the operation current on the thread; 0 = none,
    /// i.e. set-up).
    pub op: u32,
    /// Payload bytes for storage spans.
    pub bytes: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink shared by the executor and the storage wrappers.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// The operation span open on the (single) traced thread.
    current_op: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current_op: AtomicU32::new(0),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Mark operation `op` as current: seam spans recorded until the
    /// next call are its children (0 = outside any operation).
    pub fn enter(&self, op: u32) {
        self.current_op.store(op, Ordering::Relaxed);
    }

    /// Record a finished span.
    pub fn record(&self, kind: SpanKind, start_ns: u64, op: u32, bytes: u32) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(Span {
                kind,
                start_ns,
                end_ns,
                op,
                bytes,
            });
    }

    fn seam(&self, kind: SpanKind, start_ns: u64, bytes: usize) {
        self.record(
            kind,
            start_ns,
            self.current_op.load(Ordering::Relaxed),
            bytes as u32,
        );
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Write spans as Chrome `trace_event` JSON: one complete (`"ph":"X"`)
/// event per span, operation spans on track 1 and storage spans on
/// track 2, with the operation id and payload bytes in `args`.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let (name, tid) = match s.kind {
            SpanKind::Op(name) => (name.to_string(), 1),
            SpanKind::Append(c) => (format!("storage.append {c:?}"), 2),
            SpanKind::Read(c) => (format!("storage.read {c:?}"), 2),
            SpanKind::Sync(c) => (format!("storage.sync {c:?}"), 2),
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"bytes\":{}}}}}{sep}",
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.op,
            s.bytes
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

/// A [`BackendProvider`] whose backends record a span per storage call
/// and stay reachable after the platform took them, so the run can
/// image them to disk for the recovery measurement.
pub struct TimedProvider<P: BackendProvider> {
    inner: P,
    recorder: Arc<Recorder>,
    opened: Opened<P::Backend>,
}

type Opened<B> = Arc<Mutex<Vec<(String, Arc<Mutex<B>>)>>>;

impl<P: BackendProvider> TimedProvider<P> {
    /// Wrap `inner`, recording into `recorder`.
    pub fn new(inner: P, recorder: Arc<Recorder>) -> Self {
        TimedProvider {
            inner,
            recorder,
            opened: Arc::default(),
        }
    }

    /// A handle on the list of opened backends that outlives the
    /// provider's move into the platform.
    pub fn opened(&self) -> OpenedBackends<P::Backend> {
        OpenedBackends(self.opened.clone())
    }
}

impl<P: BackendProvider> BackendProvider for TimedProvider<P> {
    type Backend = TimedBackend<P::Backend>;

    fn backend(&self, name: &str) -> CssResult<Self::Backend> {
        let inner = Arc::new(Mutex::new(self.inner.backend(name)?));
        self.opened
            .lock()
            .expect("backend list poisoned")
            .push((name.to_string(), inner.clone()));
        Ok(TimedBackend {
            inner,
            component: Component::of(name),
            recorder: self.recorder.clone(),
        })
    }
}

/// The backends a [`TimedProvider`] handed out, by component name.
pub struct OpenedBackends<B>(Opened<B>);

impl<B: LogBackend> OpenedBackends<B> {
    /// Total bytes held across every backend.
    pub fn total_bytes(&self) -> u64 {
        self.0
            .lock()
            .expect("backend list poisoned")
            .iter()
            .map(|(_, b)| b.lock().expect("backend poisoned").len())
            .sum()
    }

    /// Write every backend's bytes to `<dir>/<name>.log` — the layout
    /// `DirProvider` reopens (component names are already file-safe).
    pub fn image_to(&self, dir: &Path) -> CssResult<()> {
        std::fs::create_dir_all(dir)?;
        for (name, backend) in self.0.lock().expect("backend list poisoned").iter() {
            let backend = backend.lock().expect("backend poisoned");
            let bytes = backend.read_at(0, backend.len() as usize)?;
            std::fs::write(dir.join(format!("{name}.log")), bytes)?;
        }
        Ok(())
    }
}

/// A [`LogBackend`] that records one span per append, read and sync.
pub struct TimedBackend<B> {
    inner: Arc<Mutex<B>>,
    component: Component,
    recorder: Arc<Recorder>,
}

impl<B: LogBackend> TimedBackend<B> {
    fn inner(&self) -> std::sync::MutexGuard<'_, B> {
        self.inner.lock().expect("backend poisoned")
    }
}

impl<B: LogBackend> LogBackend for TimedBackend<B> {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let start = self.recorder.now_ns();
        let out = self.inner().append(data);
        self.recorder
            .seam(SpanKind::Append(self.component), start, data.len());
        out
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        let start = self.recorder.now_ns();
        let out = self.inner().read_at(offset, len);
        self.recorder
            .seam(SpanKind::Read(self.component), start, len);
        out
    }

    fn len(&self) -> u64 {
        self.inner().len()
    }

    fn sync(&mut self) -> CssResult<()> {
        let start = self.recorder.now_ns();
        let out = self.inner().sync();
        self.recorder.seam(SpanKind::Sync(self.component), start, 0);
        out
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner().truncate(len)
    }
}
