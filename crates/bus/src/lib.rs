//! The event bus — the platform's Enterprise Service Bus substitute.
//!
//! The paper routes notification messages through an ESB ("in the
//! current prototype we customized the open source ESB ServiceMix") with
//! a publish/subscribe model so "many entities can subscribe to the same
//! type of event" (Section 3). This crate reproduces the integration
//! semantics that matter to the platform, behind a pluggable driver
//! contract:
//!
//! - the [`BusDriver`] trait — the broker contract (sync, std-only,
//!   payload-blind), eight verbs: `create_topic`, `attach`, `detach`,
//!   `publish_opts`, `poll(id, wait)`, `ack`, `nack`, and `snapshot`
//!   (the one read-only call: counters, topics, dead letters, a
//!   member's group). The in-memory [`Broker`], the
//!   [`RecordingDriver`] wrapper, or a future networked multi-site
//!   driver implement those and nothing more; the platform holds a
//!   [`Bus`] facade over `Arc<dyn BusDriver>`, and every other name
//!   callers use ([`Bus::stats`], [`SubscriberHandle::backlog`], ..)
//!   is a one-line read of the snapshot,
//! - named **topics** (one per class of events),
//! - **delivery groups** with explicit acknowledgement: a private group
//!   per subscriber gives classic fan-out, while N members of a named
//!   group *compete* — each message is delivered to exactly one member,
//!   load-balanced by pull,
//! - **bounded redelivery**: a nack, an expired visibility timeout, or
//!   a member detach puts the message back at the head of the queue for
//!   another attempt, up to `max_attempts`, then the **dead-letter
//!   queue** — with the original publish trace preserved,
//! - publish **dedup keys** (a bounded per-topic idempotency window)
//!   and **bounded queues** per group: a publish that finds one full is
//!   rejected for every group (all-or-nothing back-pressure),
//! - three per-group options ([`SubscriptionConfig`]): `capacity`,
//!   `max_attempts`, `visibility_timeout`,
//! - per-group and broker-wide **statistics** used by experiments
//!   E1/E2/E18.
//!
//! The broker is generic over the message type; the data controller
//! instantiates it with notification messages. Delivery is pull-based,
//! which keeps integration tests deterministic: `poll` with a zero wait
//! never blocks, and the same call with a wait parks on a condvar for
//! threaded consumers. Pushing is the caller's loop — a dozen lines of
//! `poll_for` / `ack` / `nack` on its own thread (E18,
//! `tests/consumer_groups.rs`).

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod broker;
pub mod driver;
pub mod recording;
pub mod stats;
pub mod subscription;

pub use broker::{Broker, SubscriptionConfig};
pub use driver::{Bus, BusDriver, BusSnapshot, GroupSnapshot, PublishOptions, PublishOutcome};
pub use recording::{BusOp, RecordingDriver};
pub use stats::{BrokerStats, SubscriptionStats};
pub use subscription::{DeadLetter, Delivery, SubscriberHandle};
