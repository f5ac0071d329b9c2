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
//! tests. A queue-full signal cannot be dropped: the pending queue is
//! crate-private to css-core, its one public filing path returns a
//! `#[must_use]` `Result`, and css-core denies clippy's
//! `let_underscore_must_use` / `unused_result_ok`. Lock order and
//! storage writes under a lock are held by the lock shim itself
//! (`compat/parking_lot`), which sees every acquisition in debug
//! builds. That every release is audited is held by behaviour:
//! `crates/controller/tests/release_audit.rs` fails the audit writes and
//! checks that each release path then hands out nothing. What needs a
//! token walk, a dataflow or the manifest graph is held here, as named,
//! gating rules over the whole workspace:
//!
//! | rule                   | invariant                                            |
//! |------------------------|------------------------------------------------------|
//! | `detail-confinement`   | the detail payload type unnameable in controller/bus/registry/health |
//! | `identity-taint`       | identity-derived values never flow into bus/health/telemetry sinks |
//! | `dom-free-read-path`   | at-rest records, policies and messages decoded from tokens or the gateway's record decoder, never via `css_xml::parse` |
//! | `layering`             | crate dependencies point strictly down the stack     |
//!
//! The gateway's detail store is held by rustc instead: its module is
//! private to css-gateway, so no other crate can name it.
//!
//! Rules run in two phases: per-file (token walk over one parsed
//! source) and per-workspace (manifests). Every run parses every file
//! (a quarter of a second on this workspace).
//!
//! Every finding is an error, and nothing suppresses one: a comment is
//! only a comment. One output, a text line per finding. One
//! dependency, css-telemetry's `JsonBuf` (the workspace's JSON writer),
//! which writes the baseline; the rest is a hand-rolled token scanner
//! (comment-, string- and raw-string-aware) plus a minimal Cargo
//! manifest reader and JSON value parser. The committed
//! `lint-baseline.json` ratchets each crate's production size: a line
//! or public-item count only rises with a recorded reason.

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod flow;
pub mod json;
pub mod manifest;
pub mod rules;
pub mod scanner;
pub mod source;

pub use diag::Finding;
pub use engine::{lint_file_source, lint_workspace, render_text, Report};
pub use source::FileRole;
