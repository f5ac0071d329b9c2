//! `css-lint` — a workspace-aware static analysis pass enforcing the
//! paper's privacy architecture as machine-checked invariants.
//!
//! The guarantees of *Privacy Preserving Event Driven Integration for
//! Interoperating Social and Health Systems* are architectural: detail
//! messages stay behind the producer's gateway until an authorized
//! request arrives, release decisions are deny-by-default (Definitions
//! 3–4), and every release is traceable for the Privacy Requirements
//! Analysis. Every such invariant has exactly one enforcer, the
//! strongest that can express it. Three are held by the toolchain:
//! `Decision::Permit` is `#[non_exhaustive]` (rustc refuses a permit
//! built outside css-policy), `SpanAttr`'s fields and value type are
//! private (rustc refuses a free-form span attribute outside
//! css-trace), and the request-path crates deny clippy's
//! `unwrap_used` / `expect_used` / `panic` / `unreachable` outside
//! tests. What needs a dataflow, a call graph or the manifest graph is
//! held here, as named, gating rules over the whole workspace:
//!
//! | rule                   | invariant                                            |
//! |------------------------|------------------------------------------------------|
//! | `detail-confinement`   | detail-payload types unnameable in controller/bus/registry |
//! | `audit-before-release` | releases append an audit record, directly or via a same-crate callee |
//! | `identity-taint`       | identity-derived values never flow into bus/health/telemetry sinks |
//! | `lock-across-io`       | no lock guard held across unrelated storage writes   |
//! | `shard-lock-order`     | shard locks nest only in ascending index order       |
//! | `unchecked-backpressure` | pending-queue filings handle `CssError::Backpressure` |
//! | `dom-free-read-path`   | at-rest records decoded from tokens or the gateway's record decoder, never via `css_xml::parse` |
//! | `layering`             | crate dependencies point strictly down the stack     |
//!
//! Rules run in three phases: per-file (token walk over one parsed
//! source), per-project (over [`callgraph::FnSummary`] facts and
//! the cross-file call graph), and per-workspace (manifests). Every run
//! parses every file (a quarter of a second on this workspace).
//!
//! One dependency, css-telemetry's `JsonBuf` (the workspace's JSON
//! writer); the rest is a hand-rolled token scanner (comment-,
//! string- and raw-string-aware) plus a minimal Cargo manifest reader
//! and JSON value parser. Findings can be suppressed inline with
//! `// css-lint: allow(<rule>): <reason>` — the reason is mandatory and
//! carried into the report, so waivers stay as reviewable as the audit
//! trail the platform itself keeps. The committed `lint-baseline.json`
//! ratchets the waiver budget — new waivers fail CI until the baseline
//! is deliberately regenerated — and each crate's production size: a
//! line or public-item count only rises with a recorded reason.

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod flow;
pub mod json;
pub mod locks;
pub mod manifest;
pub mod rules;
pub mod scanner;
pub mod source;
pub mod waiver;

pub use diag::{Finding, Severity};
pub use engine::{lint_file_source, lint_workspace, render_text, Report, Timing};
pub use json::render_json;
pub use source::FileRole;
