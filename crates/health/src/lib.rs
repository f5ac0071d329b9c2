//! # css-health — the live ops plane
//!
//! The paper's data controller is the component "everyone must trust"
//! (§4): operators and auditors need to see, *live*, that routing, the
//! encrypted index, policy enforcement, and the gateways are actually
//! healthy — and, when something regressed, *why*. This crate turns
//! the in-process telemetry (`css-telemetry`) and traces (`css-trace`)
//! into an externally observable surface, on std and the lock shim
//! alone. It is one object, [`OpsPlane`], with
//! one [`tick`](OpsPlane::tick): take a snapshot, subtract the previous
//! one **once**, and hand that one delta to everything that remembers:
//!
//! 1. **SLO engine** ([`Slo`], [`SloStatus`]): declarative objectives
//!    (`detail_request p99 < 200µs`, `publish error ratio < 0.1%`)
//!    evaluated over sliding windows of tick deltas as multi-window
//!    error-budget **burn rates** (fast 5-sample / slow 60-sample) with
//!    `Ok`/`Warning`/`Critical` alerts.
//! 2. **Metrics history**: an embedded time-series store — per metric
//!    a ring of rings (raw ticks → 1-minute → 1-hour slots, merged
//!    log₂ delta buckets all the way down, so `quantile_over_time` is
//!    honest at every [`Resolution`]) behind `GET /query` and
//!    `GET /range`, plus an EWMA+MAD drift detector
//!    ([`AnomalyStatus`]) whose baselines freeze while anomalous.
//! 3. **Component health** ([`Check`], [`HealthReport`]): probes — a
//!    storage write/read round-trip, bus queue-depth and delivery-lag
//!    thresholds, the PDP cache hit-rate floor, the gateway's pending
//!    backlog, the trace ring's drop rate, the drift detector — each
//!    yielding `Healthy`/`Degraded{reason}`/`Unhealthy{reason}`, rolled
//!    up into one report.
//! 4. **Flight recorder** ([`Trigger`], [`CaptureOutcome`],
//!    [`IncidentRef`]): a bounded drop-oldest ring of observation
//!    frames — telemetry deltas, recent root spans, SLO burn samples,
//!    health transitions. On the *edge* into a bad state (an SLO
//!    reaches Critical, a check goes Unhealthy, the detector flags
//!    drift) or on `POST /debug/capture`, the ring is frozen into an
//!    **incident bundle** (schema `css-blackbox/1`): trigger, frame
//!    history, histogram **exemplars** joining a p99 bucket to the
//!    trace that landed in it, those traces' span trees, and
//!    `stage.*`/`shard.*` percentiles — written to disk and served.
//! 5. **Exposition** ([`OpsServer`], [`OpsHandle`], [`Sampler`]): a
//!    hand-rolled HTTP/1.0 listener on `std::net::TcpListener` serving
//!    the ten routes, and the one background thread that ticks.
//!
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
//! treats [`OpsPlane::capture`] as a sink so an identifying value
//! cannot flow into a bundle unsanitized. One crate with one path from
//! snapshot to body is one thing for those rules to guard.

mod anomaly;
mod bundle;
mod checks;
mod delta;
mod frame;
mod history;
mod plane;
mod prometheus;
mod query;
mod recorder;
mod sampler;
mod server;
mod slo;
mod status;

pub use anomaly::AnomalyStatus;
pub use checks::Check;
pub use history::Resolution;
pub use plane::OpsPlane;
pub use prometheus::render_prometheus;
pub use recorder::{CaptureOutcome, IncidentRef, Trigger};
pub use sampler::Sampler;
pub use server::{OpsHandle, OpsServer};
pub use slo::{AlertLevel, Slo, SloObjective, SloStatus};
pub use status::{ComponentHealth, HealthReport, HealthStatus};
