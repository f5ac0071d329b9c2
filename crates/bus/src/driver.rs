//! The [`Bus`] facade over the one broker, and what a publish passes
//! and gets back.
//!
//! The broker ([`crate::broker`]) does its work in nine methods:
//!
//! | verb | what it does |
//! |---|---|
//! | `create_topic` | declare a topic (idempotent) |
//! | `attach` / `detach` | join / leave a delivery group |
//! | `close` | route no later publish to a member's group |
//! | `publish_opts` | route one message to every group of a topic |
//! | `poll(id, wait)` | take the next delivery, waiting up to `wait` |
//! | `ack` / `nack` | retire a delivery / send it round again |
//! | `snapshot` | the counters introspection reads, at one instant |
//!
//! Everything else callers see — [`Bus::stats`], a handle's `backlog`,
//! the controller's `bus_dead_letters` — is a one-line read of the
//! snapshot, or of the dead-letter queue, written once here. Every
//! method is a plain blocking call: no async runtime enters the
//! platform.
//!
//! Delivery follows the competing-consumer model: a subscription
//! attaches to a *delivery group* (solo by default, shared when a group
//! name is given), each message is delivered to exactly one member of
//! each group, and an unacknowledged delivery returns to the queue —
//! via nack, visibility timeout, or member detach — until its attempt
//! budget is spent and it dead-letters.

use std::sync::Arc;

use css_trace::TraceContext;
use css_types::{CssResult, SubscriptionId};

use crate::broker::{Broker, SubscriptionConfig};
use crate::stats::{BrokerStats, SubscriptionStats};
use crate::subscription::{DeadLetter, SubscriberHandle};

/// Per-publish options: an idempotency key and an optional trace.
///
/// Borrowed and `Copy`, so hot paths build one on the stack per call.
#[derive(Default, Clone, Copy)]
pub struct PublishOptions<'a> {
    /// Producer-chosen idempotency key. A publish whose key was already
    /// seen within the topic's dedup window is dropped, not routed.
    pub dedup_key: Option<&'a str>,
    /// Trace to continue: routing and delivery record spans under it.
    pub trace: Option<&'a TraceContext>,
}

impl<'a> PublishOptions<'a> {
    /// Options with no dedup key and no trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an idempotency key.
    pub fn dedup_key(mut self, key: &'a str) -> Self {
        self.dedup_key = Some(key);
        self
    }

    /// Continue `ctx`'s trace through routing and delivery.
    pub fn traced(mut self, ctx: &'a TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }
}

/// What happened to a publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// Enqueued for this many delivery groups (0 = no subscribers).
    Routed(usize),
    /// Dropped: the dedup key was already seen in the topic's window.
    DuplicateDropped,
}

impl PublishOutcome {
    /// Delivery groups the message was enqueued for (0 for a duplicate).
    pub fn routed(&self) -> usize {
        match self {
            PublishOutcome::Routed(n) => *n,
            PublishOutcome::DuplicateDropped => 0,
        }
    }

    /// Whether the publish was dropped as a duplicate.
    pub fn is_duplicate(&self) -> bool {
        matches!(self, PublishOutcome::DuplicateDropped)
    }
}

/// The broker's counters and topics at one instant ([`Bus::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusSnapshot {
    /// Broker-wide counters.
    pub stats: BrokerStats,
    /// Declared topics, sorted, each with its active member
    /// subscriptions across all of its groups.
    pub topics: Vec<(String, usize)>,
    /// The asked-for member's delivery group; `None` when no member
    /// was named or the subscription is gone.
    pub group: Option<GroupSnapshot>,
}

impl BusSnapshot {
    /// Active member subscriptions of `topic`; `None` if undeclared.
    pub fn members_of(&self, topic: &str) -> Option<usize> {
        let found = self.topics.iter().find(|(name, _)| name == topic);
        found.map(|(_, members)| *members)
    }
}

/// One delivery group as a member sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// Messages queued for the group (excluding in-flight).
    pub queued: usize,
    /// Deliveries currently awaiting ack/nack.
    pub in_flight: usize,
    /// The group's counters, shared by all its members.
    pub stats: SubscriptionStats,
}

/// Handle to the platform's broker.
///
/// This is what the platform wires through: cheap to clone, every clone
/// sharing the one in-memory broker. It hands out typed
/// [`SubscriberHandle`]s, convenience publish methods and one-line
/// reads of the broker's snapshot.
///
/// Subscriptions attach to **delivery groups**. [`Bus::subscribe`]
/// creates a private group (classic fan-out: every such subscription
/// sees every message); [`Bus::subscribe_group`] joins the named group
/// on that topic, whose members *compete*: each message goes to exactly
/// one member, load-balanced by pull.
///
/// Delivery state machine, per message and group:
///
/// ```text
///   queued --poll--> in-flight --ack-----------------> done
///                        |
///                        +--nack (attempts left)-----> queued (at the head)
///                        +--visibility timeout-------> queued (at the head)
///                        +--member detach------------> queued (at the head)
///                        +--nack/timeout, no attempts
///                               left ----------------> dead-letter queue
/// ```
///
/// Deliveries that return to the queue together (a detach, the
/// timeouts one poll finds expired) keep their publish order: the
/// oldest is at the head.
pub struct Bus<M: Clone + Send + 'static> {
    pub(crate) broker: Arc<Broker<M>>,
}

impl<M: Clone + Send + 'static> Clone for Bus<M> {
    fn clone(&self) -> Self {
        Bus {
            broker: Arc::clone(&self.broker),
        }
    }
}

impl<M: Clone + Send + 'static> Bus<M> {
    /// A bus over a broker recording into instruments of its own.
    pub fn in_memory() -> Self {
        Bus {
            broker: Arc::new(Broker::new()),
        }
    }

    /// A bus recording `bus.*` telemetry into `registry`.
    pub fn in_memory_with_telemetry(registry: &css_telemetry::MetricsRegistry) -> Self {
        Bus {
            broker: Arc::new(Broker::with_telemetry(registry)),
        }
    }

    /// Declare a topic. Idempotent.
    pub fn create_topic(&self, name: &str) {
        self.broker.create_topic(name);
    }

    /// Subscribe to a topic in a private delivery group (fan-out).
    pub fn subscribe(
        &self,
        topic: &str,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        let id = self.broker.attach(topic, None, config)?;
        Ok(SubscriberHandle::new(Arc::clone(&self.broker), id))
    }

    /// Join the named competing-consumer group on `topic`.
    pub fn subscribe_group(
        &self,
        topic: &str,
        group: &str,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        let id = self.broker.attach(topic, Some(group), config)?;
        Ok(SubscriberHandle::new(Arc::clone(&self.broker), id))
    }

    /// Route no later publish to this subscription's delivery group.
    /// What the group already holds stays with it: its members still
    /// poll, ack and nack it, and [`SubscriberHandle::unsubscribe`]
    /// still removes them. A named group gives its name up: the next
    /// member to join that name starts a fresh group. Idempotent, and a
    /// detached subscription is already closed. (How a subscription
    /// whose authorisation ended stops receiving without losing what
    /// was published to it while it held one.)
    pub fn close(&self, id: SubscriptionId) -> CssResult<()> {
        self.broker.close(id)
    }

    /// Publish a message to every delivery group of `topic`, with full
    /// options (dedup key, trace).
    ///
    /// A single full group queue fails the whole publish *before* any
    /// enqueue (all-or-nothing back-pressure); a rejected publish does
    /// not consume its dedup key.
    pub fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome> {
        self.broker.publish_opts(topic, message, opts)
    }

    /// Publish a message, returning the number of delivery groups it
    /// was enqueued for. Optionally continues `ctx`'s trace.
    pub fn publish(&self, topic: &str, message: M, ctx: Option<&TraceContext>) -> CssResult<usize> {
        let opts = PublishOptions {
            trace: ctx,
            ..PublishOptions::new()
        };
        self.publish_opts(topic, message, opts).map(|o| o.routed())
    }

    /// Counters and topics at one instant.
    pub fn snapshot(&self) -> BusSnapshot {
        self.broker.snapshot(None)
    }

    /// Broker-wide statistics.
    pub fn stats(&self) -> BrokerStats {
        self.snapshot().stats
    }

    /// A copy of the dead-letter queue, in the order messages were
    /// given up on.
    pub fn dead_letters(&self) -> Vec<DeadLetter<M>> {
        self.broker.dead_letters()
    }

    /// Active member subscriptions across all groups of a topic.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.snapshot().members_of(topic).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_options_builder_composes() {
        let opts = PublishOptions::new().dedup_key("k");
        assert_eq!(opts.dedup_key, Some("k"));
        assert!(opts.trace.is_none());
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(PublishOutcome::Routed(3).routed(), 3);
        assert!(!PublishOutcome::Routed(3).is_duplicate());
        assert_eq!(PublishOutcome::DuplicateDropped.routed(), 0);
        assert!(PublishOutcome::DuplicateDropped.is_duplicate());
    }

    #[test]
    fn bus_facade_routes_through_the_driver() {
        let bus: Bus<u32> = Bus::in_memory();
        bus.create_topic("t");
        assert_eq!(bus.snapshot().members_of("t"), Some(0));
        assert_eq!(bus.snapshot().members_of("u"), None);
        let sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        assert_eq!(bus.publish("t", 7, None).unwrap(), 1);
        assert_eq!(bus.subscriber_count("t"), 1);
        let d = sub.poll().unwrap().unwrap();
        assert_eq!(d.message, 7);
        sub.ack(d.delivery_id).unwrap();
        assert_eq!(bus.stats().published, 1);
    }

    #[test]
    fn group_subscribers_compete() {
        let bus: Bus<u32> = Bus::in_memory();
        bus.create_topic("t");
        let a = bus
            .subscribe_group("t", "workers", SubscriptionConfig::default())
            .unwrap();
        let b = bus
            .subscribe_group("t", "workers", SubscriptionConfig::default())
            .unwrap();
        // One group → each message routed once, delivered to one member.
        assert_eq!(bus.publish("t", 1, None).unwrap(), 1);
        assert_eq!(bus.publish("t", 2, None).unwrap(), 1);
        let da = a.poll().unwrap().unwrap();
        let db = b.poll().unwrap().unwrap();
        assert_ne!(da.message, db.message);
        assert!(a.poll().unwrap().is_none());
        a.ack(da.delivery_id).unwrap();
        b.ack(db.delivery_id).unwrap();
    }
}
