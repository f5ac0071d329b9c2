//! Telemetry for the CSS platform, on std and the lock shim.
//!
//! Hot paths — broker publish/deliver, Algorithm 1 stages in the
//! policy enforcement point, gateway persistence, storage appends —
//! record into lock-free atomic instruments; aggregation only happens
//! when a snapshot is requested.
//!
//! Three instrument kinds, all `Clone`-shares-state handles:
//!
//! - [`Counter`] — monotonically increasing `u64`.
//! - [`Gauge`] — signed level that moves both ways (queue depths).
//! - [`Histogram`] — log₂-bucketed latency distribution over
//!   nanoseconds, answering p50/p90/p99/max without storing samples.
//!
//! Instruments live in a [`MetricsRegistry`]; the registry's only lock
//! is taken at get-or-create time, never on the record path. Handles
//! are meant to be resolved once and cached by the instrumented
//! component. [`StageTimer`] breaks a multi-stage pipeline into
//! per-stage histograms with one clock read per boundary; a
//! [`StageTable`] holds a pipeline's stage handles for it.
//!
//! [`MetricsRegistry::snapshot`] renders everything into a plain-data
//! [`TelemetrySnapshot`]. Its one text exposition is the Prometheus
//! body `css-health` renders for `GET /metrics`.

mod json;
mod metrics;
mod registry;
mod timer;

pub use json::JsonBuf;
pub use metrics::{Counter, Exemplar, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricsRegistry, TelemetrySnapshot};
pub use timer::{StageTable, StageTimer};
