//! The live ops plane: default health checks, default SLOs, and the
//! exposition server assembly behind
//! [`CssPlatformBuilder::ops_server`](crate::CssPlatformBuilder::ops_server).
//!
//! The plane itself — the tick, the stores, the server — is
//! `css-health`'s; this module keeps what is the platform's to decide:
//! thresholds, the default checks and SLOs, the storage probe and the
//! snapshot source.
//!
//! Everything served is an aggregate — counters, gauges, histogram
//! buckets, span timings. What is handed to [`css_health::OpsPlane`]
//! is built exclusively from the platform's telemetry registry and its
//! trace spans; event payloads, decrypted identifiers and citizens'
//! care processes are not reachable from here, and `css-lint`'s
//! detail-confinement rule keeps it that way.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use css_health::{Check, HealthStatus, OpsHandle, OpsPlane, OpsServer, Sampler, Slo};
use css_storage::LogBackend;
use css_telemetry::MetricsRegistry;
use css_trace::Tracer;
use css_types::{Clock, CssResult, Timestamp};
use parking_lot::Mutex;

use crate::platform::{refresh_platform_gauges, SharedController, SharedPending};
use crate::provider::BackendProvider;

// ---- default thresholds ---------------------------------------------------
//
// Chosen for the paper's regional-deployment scale (tens of
// organizations, thousands of events/day).

/// Bus backlog that merits operator attention.
const BUS_QUEUE_DEPTH_DEGRADED: i64 = 10_000;
/// Unacked in-flight deliveries past which consumers are stalling:
/// messages are being handed out but neither acked nor nacked, and a
/// held delivery waits until its holder acks, nacks or leaves.
const BUS_INFLIGHT_DEGRADED: i64 = 1_000;
/// p99 delivery lag over the ops plane's slow window (its last 60
/// ticks) past which the bus is degraded.
const BUS_DELIVER_P99_CEILING_NS: u64 = 5_000_000; // 5 ms
/// PDP decision-cache hit-rate floor over the slow window (after
/// warmup).
const PDP_HIT_RATE_FLOOR: f64 = 0.5;
/// Lookups in the slow window before the PDP cache check judges it.
const PDP_MIN_LOOKUPS: u64 = 10_000;
/// Pending detail requests that suggest producers are not keeping up.
const GATEWAY_PENDING_DEGRADED: i64 = 1_000;
/// Span drop rate over the slow window past which the trace ring is
/// undersized.
const TRACE_DROP_CEILING: f64 = 0.25;
/// Spans in the slow window before the trace drop-rate check judges it.
const TRACE_MIN_SPANS: u64 = 1_000;
/// Percent by which the busiest index shard may exceed the mean shard
/// load before the plane counts as degraded (200% = one shard carrying
/// 3× its fair share — the citizen-hash routing has gone skewed).
const SHARD_IMBALANCE_DEGRADED: i64 = 200;

/// Detail-request p99 target (paper §7 reports sub-millisecond
/// enforcement; 200 µs holds comfortably on the E15 workload).
const DETAIL_P99_TARGET_NS: u64 = 200_000;
/// Publish error budget: at most 0.1 % of publishes denied.
const PUBLISH_ERROR_BUDGET: f64 = 0.001;

/// Frame drop rate past which the flight-recorder ring is undersized
/// for the incident window it is supposed to preserve (same convention
/// as the trace ring: the ratio over the slow window, judged only once
/// the window holds enough frames).
const BLACKBOX_DROP_CEILING: f64 = 0.25;
/// Frames in the slow window before the blackbox drop-rate check
/// judges it.
const BLACKBOX_MIN_FRAMES: u64 = 1_000;
/// Where incident bundles land unless `.incident_dir()` overrides it.
const DEFAULT_INCIDENT_DIR: &str = "target/incidents";

/// Ops-plane knobs accumulated by the builder.
pub(crate) struct OpsConfig {
    pub addr: String,
    pub interval: StdDuration,
    /// Incident bundle directory (default `target/incidents`).
    pub incident_dir: Option<PathBuf>,
    /// When the platform was built (uptime zero point).
    pub boot: Timestamp,
}

/// Append a probe marker, read it back, and truncate it away again —
/// the storage health check's active round-trip. Kept bounded: the
/// probe log never retains more than one marker.
fn storage_probe(backend: &mut impl LogBackend) -> HealthStatus {
    const MARKER: &[u8] = b"css-health-probe";
    let offset = match backend.append(MARKER) {
        Ok(offset) => offset,
        Err(e) => return HealthStatus::unhealthy(format!("probe append failed: {e}")),
    };
    match backend.read_at(offset, MARKER.len()) {
        Ok(read) if read == MARKER => {}
        Ok(_) => return HealthStatus::unhealthy("probe read returned different bytes"),
        Err(e) => return HealthStatus::unhealthy(format!("probe read failed: {e}")),
    }
    match backend.truncate(offset) {
        Ok(()) => HealthStatus::Healthy,
        Err(e) => HealthStatus::degraded(format!("probe truncate failed: {e}")),
    }
}

/// The component checks every platform gets: storage round-trip, bus
/// backlog and delivery lag, PDP cache hit rate, gateway pending
/// backlog, trace-ring drop rate, index-shard balance, flight-recorder
/// drop rate. (The plane appends its own drift check.)
fn default_checks<B: LogBackend + 'static>(probe_backend: B) -> Vec<Check> {
    let probe = Mutex::new(probe_backend);
    vec![
        Check::new("storage", move |_| storage_probe(&mut *probe.lock())),
        Check::gauge_above(
            "bus-queue",
            "bus.queue_depth",
            BUS_QUEUE_DEPTH_DEGRADED,
            Some(BUS_QUEUE_DEPTH_DEGRADED * 10),
        ),
        Check::gauge_above(
            "bus-inflight",
            "bus.inflight",
            BUS_INFLIGHT_DEGRADED,
            Some(BUS_INFLIGHT_DEGRADED * 10),
        ),
        Check::p99_above("bus-delivery", "bus.deliver", BUS_DELIVER_P99_CEILING_NS),
        Check::hit_rate_below(
            "policy",
            "pdp.cache_hit",
            "pdp.cache_miss",
            PDP_HIT_RATE_FLOOR,
            PDP_MIN_LOOKUPS,
        ),
        Check::gauge_above(
            "gateway",
            "platform.pending_requests",
            GATEWAY_PENDING_DEGRADED,
            None,
        ),
        Check::drop_rate_above(
            "trace",
            "trace.spans_dropped",
            "trace.spans_recorded",
            TRACE_DROP_CEILING,
            TRACE_MIN_SPANS,
        ),
        Check::gauge_above(
            "shard-balance",
            "shard.imbalance_pct",
            SHARD_IMBALANCE_DEGRADED,
            None,
        ),
        Check::drop_rate_above(
            "blackbox",
            "blackbox.frames_dropped",
            "blackbox.frames_recorded",
            BLACKBOX_DROP_CEILING,
            BLACKBOX_MIN_FRAMES,
        ),
    ]
}

/// The SLOs every platform gets: detail-request enforcement p99 and
/// the publish error ratio.
fn default_slos() -> Vec<Slo> {
    vec![
        Slo::latency_p99("detail_request_p99", "stage.total", DETAIL_P99_TARGET_NS),
        Slo::error_ratio(
            "publish_errors",
            "controller.publish_denied",
            &["controller.published", "controller.publish_denied"],
            PUBLISH_ERROR_BUDGET,
        ),
    ]
}

/// Assemble and start the ops plane: hand `css-health` the platform's
/// checks, SLOs and snapshot source, bind the server, spawn the
/// sampler. Dropping the pair (with the platform) stops the sampler and
/// shuts the server down gracefully.
pub(crate) fn start_ops<P: BackendProvider>(
    config: OpsConfig,
    provider: &P,
    registry: &MetricsRegistry,
    clock: &Arc<dyn Clock>,
    tracer: &Tracer,
    controller: &SharedController<P>,
    pending: &SharedPending,
) -> CssResult<(OpsHandle, Sampler)> {
    // The snapshot source: refresh the platform.* gauges (the same
    // path `CssPlatform::telemetry` takes), then snapshot — so the
    // tick, `/metrics` and the health checks see identical, current
    // numbers.
    let source = {
        let (controller, pending) = (controller.clone(), pending.clone());
        let (registry, clock, boot) = (registry.clone(), clock.clone(), config.boot);
        move || {
            refresh_platform_gauges(&controller, &pending, &registry, clock.as_ref(), boot);
            registry.snapshot()
        }
    };
    let plane = Arc::new(OpsPlane::new(
        source,
        clock.clone(),
        tracer.clone(),
        registry,
        default_checks(provider.backend("health-probe")?),
        default_slos(),
        config
            .incident_dir
            .unwrap_or_else(|| PathBuf::from(DEFAULT_INCIDENT_DIR)),
    ));
    let handle = OpsServer::bind(config.addr.as_str(), plane.clone())?;
    Ok((handle, Sampler::spawn(plane, config.interval)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_storage::MemBackend;

    #[test]
    fn storage_probe_round_trips_and_stays_bounded() {
        let mut backend = MemBackend::new();
        for _ in 0..100 {
            assert_eq!(storage_probe(&mut backend), HealthStatus::Healthy);
        }
        assert!(backend.is_empty(), "probe must truncate its marker away");
    }
}
