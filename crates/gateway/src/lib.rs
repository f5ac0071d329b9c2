//! The Local Cooperation Gateway.
//!
//! "These functionalities are encapsulated in the *local cooperation
//! gateway* provided as part of the CSS platform to further facilitate
//! the connection with the existing source systems. This module persists
//! each detail message notified so that they can be retrieved even when
//! the source systems are un-accessible." (Section 4)
//!
//! The gateway is deployed **at the producer** and is the only component
//! that touches full event details during enforcement. It implements
//! Algorithm 2 (`getResponse(src_eID, F)`): retrieve the details from
//! its durable store, then blank every field outside the allowed set
//! `F` before anything crosses the boundary — so "it is never the case
//! that data not accessible by a certain data consumer leaves the data
//! producer".

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod gateway;
// Private: the store holds unfiltered details, so no other crate can
// name it (`css_controller::gateway_client`'s doctest, DESIGN §9).
mod store;

pub use gateway::LocalCooperationGateway;
