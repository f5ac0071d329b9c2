//! Event-based privacy policies — the paper's core contribution.
//!
//! Section 5 defines the model this crate implements:
//!
//! - **Definition 2**: a privacy policy `p = {A, e_j, S, F}` names an
//!   actor `A`, an event-details type `e_j`, a set of purposes `S`, and
//!   the subset of fields `F ⊆ e_j` that may be released —
//!   [`PrivacyPolicy`].
//! - **Definition 3**: a policy *matches* a request `r = {A_r, τ_e, S_r}`
//!   iff `e_j = τ_e ∧ A_r = A ∧ S_r ∈ S` — [`matching`], extended with
//!   the organizational hierarchy of Section 5.1 (a policy for
//!   `Hospital S. Maria` covers its `Laboratory`) and the validity
//!   window of the elicitation tool (Fig. 7).
//! - **Definition 4** (privacy safety) lives with the event model:
//!   `css_event::EventDetails::is_privacy_safe`.
//! - The **deny-by-default** semantics: "unless permitted by some
//!   privacy policy an Event Details cannot be accessed by any subject"
//!   — [`pdp::PolicyDecisionPoint`].
//!
//! Policies serialize to the XACML subset of Fig. 8 ([`xacml`]) and are
//! persisted by the [`repository::PolicyRepository`], which is the
//! "certificated repository of the privacy policies" held by the data
//! controller.

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod cache;
pub mod decision;
pub mod matching;
pub mod model;
pub mod pdp;
pub mod repository;
pub mod request;
pub mod xacml;

pub use cache::CacheStats;
pub use decision::Decision;
pub use matching::{matches, MatchOutcome};
pub use model::{PrivacyPolicy, ValidityWindow};
pub use pdp::PolicyDecisionPoint;
pub use repository::PolicyRepository;
pub use request::DetailRequest;
