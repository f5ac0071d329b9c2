//! # css-health — the live ops plane
//!
//! The paper's data controller is the component "everyone must trust"
//! (§4): operators and auditors need to see, *live*, that routing, the
//! encrypted index, policy enforcement, and the gateways are actually
//! healthy — and, when something regressed, *why*. This crate turns
//! the in-process telemetry (`css-telemetry`) and traces (`css-trace`)
//! into an externally observable surface, on std and the lock shim
//! alone. It is one object, [`OpsPlane`], with
//! one [`tick`](OpsPlane::tick): take a snapshot, append it to the
//! metrics history — the plane's one memory of ticks, which subtracts
//! the previous tick **once** — and judge what the history holds:
//!
//! 1. **Metrics history**: an embedded time-series store — per metric
//!    a ring of rings (raw ticks → 1-minute → 1-hour slots, merged
//!    log₂ delta buckets all the way down, so `quantile_over_time` is
//!    honest at every resolution) behind `GET /query` and
//!    `GET /range`, plus an EWMA+MAD drift detector whose baselines
//!    freeze while anomalous.
//! 2. **SLO table** ([`Slo`]): declarative objectives
//!    (`detail_request p99 < 200µs`, `publish error ratio < 0.1%`)
//!    evaluated over the history's last ticks as multi-window
//!    error-budget **burn rates** (fast 5-tick / slow 60-tick) with
//!    `ok`/`warning`/`critical` alerts, served on `GET /slo`.
//! 3. **Component health** ([`Check`], [`HealthStatus`]): probes — a
//!    storage write/read round-trip, bus queue-depth and delivery-lag
//!    thresholds, the PDP cache hit-rate floor, the gateway's pending
//!    backlog, the trace ring's drop rate, the drift detector — each
//!    yielding `Healthy`/`Degraded{reason}`/`Unhealthy{reason}`, rolled
//!    up into the `GET /health` document. Gauges and probes read the
//!    fresh snapshot; latency and ratio checks judge the SLO table's
//!    slow window, never the platform's lifetime.
//! 4. **Flight recorder**: a bounded drop-oldest ring of what the
//!    history cannot hold — recent root spans, SLO burn samples, health
//!    transitions — each frame rendered to JSON once, when observed.
//!    On the *edge* into a bad state (an SLO
//!    reaches Critical, a check goes Unhealthy, the detector flags
//!    drift) or on `POST /debug/capture`, the ring is frozen into an
//!    **incident bundle** (schema `css-blackbox/1`): trigger, the
//!    history's raw ticks of the request path's `stage.*`/`shard.*`
//!    series that moved over the last four minutes, frame history, histogram
//!    **exemplars** joining a p99 bucket to the trace that landed in
//!    it, those traces' span trees, and the `stage.*`/`shard.*`
//!    percentiles over the same four minutes — written to disk, listed
//!    on `GET /debug/incidents` and returned by the POST.
//! 5. **Exposition** ([`OpsServer`], [`OpsHandle`], [`Sampler`]): a
//!    hand-rolled HTTP/1.0 listener on `std::net::TcpListener` serving
//!    the nine routes, and the one background thread that ticks. The
//!    routes are the only way to read the plane.

//! ## Redaction argument
//!
//! Everything exposed — HTTP body or bundle file — is an aggregate
//! number, a privacy-safe span attribute, or a check's reason string;
//! never an event payload, fiscal code, or person name. That is
//! enforced structurally, not by convention: this crate sits at layer
//! 3 of the lint-checked DAG (it can name `css-types`,
//! `css-telemetry`, `css-trace` only), the `detail-confinement` rule
//! makes payload types unnameable here, span attributes come from the
//! closed `SpanAttr` constructor set, and the identity-taint rule
//! treats the plane's `capture` as a sink so an identifying value
//! cannot flow into a bundle unsanitized. One crate with one path from
//! snapshot to body is one thing for those rules to guard.

mod anomaly;
mod bundle;
mod checks;
mod history;
mod plane;
mod prometheus;
mod query;
mod recorder;
mod sampler;
mod server;
mod slo;
mod status;

pub use checks::Check;
pub use plane::OpsPlane;
pub use prometheus::render_prometheus;
pub use sampler::Sampler;
pub use server::{OpsHandle, OpsServer};
pub use slo::Slo;
pub use status::HealthStatus;
