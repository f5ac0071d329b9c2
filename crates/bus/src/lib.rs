//! The event bus — the platform's Enterprise Service Bus substitute.
//!
//! The paper routes notification messages through an ESB ("in the
//! current prototype we customized the open source ESB ServiceMix") with
//! a publish/subscribe model so "many entities can subscribe to the same
//! type of event" (Section 3). This crate reproduces the integration
//! semantics that matter to the platform in one in-memory broker,
//! [`Bus`]: a cloneable handle over the shared state, whose clones are
//! the one broker.
//!
//! - the verbs are methods of the handles: [`Bus`] declares topics
//!   (`create_topic`), attaches members (`subscribe`,
//!   `subscribe_group`), closes a member's group to later publishes
//!   (`close`) and admits a publish (`admit`), whose [`Admission`]
//!   enqueues it (`send`) or, dropped unsent, gives its slots back
//!   (`publish_opts` is the two in one call); a [`SubscriberHandle`]
//!   takes and holds (`poll`, `poll_for`), acknowledges (`ack`,
//!   `nack`), takes and acknowledges in one visit (`take`,
//!   `take_for`), reads its group (`backlog`, `in_flight`, `stats`)
//!   and leaves (`unsubscribe`); [`Bus::stats`] reads the broker's
//!   counters and [`Bus::dead_letters`] alone copies the dead-letter
//!   queue,
//! - named **topics** (one per class of events),
//! - **delivery groups** with explicit acknowledgement: a private group
//!   per subscriber gives classic fan-out, while N members of a named
//!   group *compete* — each message is delivered to exactly one member,
//!   load-balanced by pull,
//! - **bounded redelivery**: a nack or a member detach puts the message
//!   back at the head of the queue for another attempt; the nack of its
//!   [`MAX_ATTEMPTS`]th delivery moves it to the **dead-letter queue**,
//!   with the original publish trace preserved,
//! - **bounded queues** per group ([`QUEUE_CAPACITY`] messages, the
//!   slots of admitted publishes included): an admission that finds one
//!   full is refused for every group (all-or-nothing back-pressure),
//! - per-group and broker-wide **statistics** used by experiments
//!   E1/E2/E18.
//!
//! Every group has the same two limits, constants rather than options;
//! [`SubscriptionConfig`] has no field.
//!
//! The broker is generic over the message type; the data controller
//! instantiates it with notification messages. Delivery is pull-based,
//! which keeps integration tests deterministic: `poll` never blocks,
//! and `poll_for` parks on a condvar for threaded consumers. Pushing is
//! the caller's loop — a dozen lines of `poll_for` / `ack` / `nack` on
//! its own thread (E18, `tests/consumer_groups.rs`).

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod broker;
pub mod driver;
pub mod stats;
pub mod subscription;

pub use broker::{
    Admission, Bus, SubscriberHandle, SubscriptionConfig, MAX_ATTEMPTS, QUEUE_CAPACITY,
};
pub use driver::PublishOptions;
pub use stats::{BrokerStats, SubscriptionStats};
pub use subscription::{DeadLetter, Delivery};
