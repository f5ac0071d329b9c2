//! Observation frames: what the ring remembers between incidents.
//!
//! Frames are plain data: the SLO and health variants hold the
//! plane's own [`SloStatus`] and [`ComponentHealth`] values as they
//! were evaluated at the tick.

use crate::slo::SloStatus;
use crate::status::ComponentHealth;

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Periodic telemetry sample: counter deltas since the previous
    /// sample plus summary stats for every histogram.
    Telemetry(TelemetryFrame),
    /// Periodic SLO burn-rate sample (the whole alert table).
    Slo { at_ms: u64, samples: Vec<SloStatus> },
    /// A component health transition (recorded on change only): the
    /// status code it left and the status it entered.
    Health {
        at_ms: u64,
        from: &'static str,
        to: ComponentHealth,
    },
    /// A recently finished root span (one whole request/publish pass).
    SpanRoot(SpanRootFrame),
}

impl Frame {
    /// The frame's discriminator as it appears in bundle JSON.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Frame::Telemetry(_) => "telemetry",
            Frame::Slo { .. } => "slo",
            Frame::Health { .. } => "health",
            Frame::SpanRoot(_) => "span_root",
        }
    }

    /// Sample time (platform clock, milliseconds).
    pub(crate) fn at_ms(&self) -> u64 {
        match self {
            Frame::Telemetry(f) => f.at_ms,
            Frame::Slo { at_ms, .. } => *at_ms,
            Frame::Health { at_ms, .. } => *at_ms,
            Frame::SpanRoot(f) => f.at_ms,
        }
    }
}

/// Counter deltas and histogram summaries for one sampler tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct TelemetryFrame {
    pub at_ms: u64,
    /// `(name, increase since the previous telemetry frame)` — zero
    /// deltas are omitted, so an idle platform records tiny frames.
    pub counter_deltas: Vec<(String, u64)>,
    /// Cumulative summary per histogram at this tick.
    pub histograms: Vec<HistogramStat>,
}

/// The summary a frame keeps per histogram (cumulative, not delta).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HistogramStat {
    pub name: String,
    pub count: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A finished root span: the whole-pass summary the ring keeps so a
/// bundle shows what traffic looked like just before the trigger.
#[derive(Debug, Clone)]
pub(crate) struct SpanRootFrame {
    pub at_ms: u64,
    pub trace_id: u64,
    pub name: String,
    pub duration_ns: u64,
    /// `SpanStatus::code()`: "ok" / "denied" / "error".
    pub status: &'static str,
}
