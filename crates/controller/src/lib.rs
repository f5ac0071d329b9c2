//! The Data Controller — "the central rooting node of the CSS platform".
//!
//! Per Section 4, the data controller:
//!
//! - maintains the **events index** (all notification messages, with the
//!   identifying information of the person stored **encrypted**) and the
//!   **event catalog**;
//! - supports producers and consumers in **joining** the platform
//!   (contracts) and consumers in **subscribing** to classes of events —
//!   rejected unless a privacy policy authorizes them (deny-by-default);
//! - **routes** notifications to subscribers over the service bus;
//! - resolves **requests for details** by enforcing the privacy policies
//!   (the PEP/PIP/PDP pipeline of Fig. 4 / Algorithm 1) and retrieving
//!   from the source only what the consumer may see;
//! - resolves **events index inquiries**;
//! - maintains **audit logs** of every request;
//! - checks data-subject **consent** (opt-in / opt-out) collected at the
//!   source.
//!
//! The [`controller::DataController`] ties these together; the
//! individual responsibilities live in their own modules.

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod consent;
pub mod contract;
pub mod controller;
pub mod gateway_client;
pub mod identity;
pub mod index;
mod journal;
mod owners;
mod pep;
pub mod shards;

pub use consent::{ConsentDecision, ConsentRegistry, ConsentScope};
pub use contract::{ContractRegistry, ParticipantContract, ParticipantRole};
pub use controller::{ControllerConfig, DataController, PublishReceipt};
pub use gateway_client::{GatewayClient, SharedGateway};
pub use identity::{Credential, IdentityManager};
pub use index::{DetailResolution, EventsIndex, IndexEntry, Notified};
pub use shards::IndexShards;
