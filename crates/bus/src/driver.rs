//! The pluggable broker contract: [`BusDriver`] and the [`Bus`] facade.
//!
//! The platform's delivery substrate is defined as a trait so the
//! in-memory broker, a recording wrapper, or (later) a networked
//! multi-site driver can slot in behind the same surface. A transport
//! implements eight verbs and nothing else:
//!
//! | verb | what it does |
//! |---|---|
//! | `create_topic` | declare a topic (idempotent) |
//! | `attach` / `detach` | join / leave a delivery group |
//! | `publish_opts` | route one message to every group of a topic |
//! | `poll(id, wait)` | take the next delivery, waiting up to `wait` |
//! | `ack` / `nack` | retire a delivery / send it round again |
//! | `snapshot` | everything introspection reads, at one instant |
//!
//! Everything else callers see — [`Bus::stats`], a handle's `backlog`,
//! the controller's `bus_dead_letters` — is a one-line read of the
//! snapshot, written once here and not once per driver. Two rules shape
//! the contract:
//!
//! - **sync / std-only**: every method is a plain blocking call, so a
//!   driver can be backed by a mutex, a socket, or a file without
//!   dragging an async runtime into the platform;
//! - **payload-blind**: the trait is generic over the message type `M`
//!   and a driver can only clone and move payloads — it has no way to
//!   name `DetailMessage` or any other concrete event type, so detail
//!   confinement holds by construction (enforced by css-lint's
//!   `detail-confinement` rule over this crate).
//!
//! Delivery follows the competing-consumer model: a subscription
//! attaches to a *delivery group* (solo by default, shared when a group
//! name is given), each message is delivered to exactly one member of
//! each group, and an unacknowledged delivery returns to the queue —
//! via nack, visibility timeout, or member detach — until its attempt
//! budget is spent and it dead-letters.

use std::sync::Arc;
use std::time::Duration;

use css_trace::TraceContext;
use css_types::{CssResult, SubscriptionId};

use crate::broker::{Broker, SubscriptionConfig};
use crate::stats::{BrokerStats, SubscriptionStats};
use crate::subscription::{DeadLetter, Delivery, SubscriberHandle};

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

/// The broker contract every delivery substrate implements: eight verbs.
///
/// Object-safe and generic over the payload `M`: implementors move
/// opaque values around and can never inspect or name event types. All
/// methods are synchronous; the only one that may block is
/// [`BusDriver::poll`] with a non-zero `wait`.
///
/// Subscriptions attach to **delivery groups**. `attach(topic, None,
/// ..)` creates a private group (classic fan-out: every such
/// subscription sees every message); `attach(topic, Some("workers"),
/// ..)` joins the named group on that topic, whose members *compete*:
/// each message goes to exactly one member, load-balanced by pull.
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
pub trait BusDriver<M: Clone + Send + 'static>: Send + Sync {
    /// Declare a topic. Idempotent.
    fn create_topic(&self, name: &str);

    /// Attach a subscription to `topic`, joining the named delivery
    /// `group` (or a private group when `None`). The first member's
    /// `config` fixes the group's queueing behaviour; later members
    /// share it.
    fn attach(
        &self,
        topic: &str,
        group: Option<&str>,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriptionId>;

    /// Remove a subscription. Its in-flight deliveries return to the
    /// queue for the remaining group members; when the last member
    /// leaves, the group and its queue are discarded.
    fn detach(&self, id: SubscriptionId) -> CssResult<()>;

    /// Publish a message to every delivery group of `topic`.
    ///
    /// A single full group queue fails the whole publish *before* any
    /// enqueue (all-or-nothing back-pressure); a rejected publish does
    /// not consume its dedup key.
    fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome>;

    /// Take the next available message for this member, waiting up to
    /// `wait` for one to arrive or a visibility timeout to return one;
    /// [`Duration::ZERO`] never blocks. Each call first requeues (or
    /// dead-letters) the group's deliveries whose visibility timeout
    /// has expired — the only sweep there is.
    fn poll(&self, id: SubscriptionId, wait: Duration) -> CssResult<Option<Delivery<M>>>;

    /// Acknowledge a delivery held by this member, retiring it.
    fn ack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()>;

    /// Negatively acknowledge a delivery held by this member: back to
    /// the head of the queue for another attempt, or dead-letter once
    /// attempts are exhausted.
    fn nack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()>;

    /// Everything introspection reads, taken at one instant: broker
    /// counters, topics with their member counts, the dead-letter
    /// queue, and — when `member` is a live subscription — its
    /// delivery group's depth and counters.
    fn snapshot(&self, member: Option<SubscriptionId>) -> BusSnapshot<M>;
}

/// What [`BusDriver::snapshot`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusSnapshot<M> {
    /// Broker-wide counters.
    pub stats: BrokerStats,
    /// Declared topics, sorted, each with its active member
    /// subscriptions across all of its groups.
    pub topics: Vec<(String, usize)>,
    /// The dead-letter queue, in the order messages were given up on.
    pub dead_letters: Vec<DeadLetter<M>>,
    /// The asked-for member's delivery group; `None` when no member
    /// was named or the subscription is gone.
    pub group: Option<GroupSnapshot>,
}

impl<M> BusSnapshot<M> {
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

/// Handle to a broker behind some [`BusDriver`].
///
/// This is what the platform wires through: cheap to clone, driver
/// chosen at construction ([`Bus::in_memory`] by default, anything else
/// via [`Bus::from_driver`]). It adds the ergonomic layer the trait
/// deliberately lacks: typed [`SubscriberHandle`]s, convenience publish
/// methods and one-line reads of [`BusDriver::snapshot`].
pub struct Bus<M: Clone + Send + 'static> {
    driver: Arc<dyn BusDriver<M>>,
}

impl<M: Clone + Send + 'static> Clone for Bus<M> {
    fn clone(&self) -> Self {
        Bus {
            driver: Arc::clone(&self.driver),
        }
    }
}

impl<M: Clone + Send + 'static> Bus<M> {
    /// A bus over the built-in in-memory driver ([`Broker`]).
    pub fn in_memory() -> Self {
        Self::from_driver(Arc::new(Broker::new()))
    }

    /// An in-memory bus recording `bus.*` telemetry into `registry`.
    pub fn in_memory_with_telemetry(registry: &css_telemetry::MetricsRegistry) -> Self {
        Self::from_driver(Arc::new(Broker::with_telemetry(registry)))
    }

    /// A bus over a caller-supplied driver.
    pub fn from_driver(driver: Arc<dyn BusDriver<M>>) -> Self {
        Bus { driver }
    }

    /// Declare a topic. Idempotent.
    pub fn create_topic(&self, name: &str) {
        self.driver.create_topic(name);
    }

    /// Subscribe to a topic in a private delivery group (fan-out).
    pub fn subscribe(
        &self,
        topic: &str,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        let id = self.driver.attach(topic, None, config)?;
        Ok(SubscriberHandle::new(Arc::clone(&self.driver), id))
    }

    /// Join the named competing-consumer group on `topic`.
    pub fn subscribe_group(
        &self,
        topic: &str,
        group: &str,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        let id = self.driver.attach(topic, Some(group), config)?;
        Ok(SubscriberHandle::new(Arc::clone(&self.driver), id))
    }

    /// Publish with full options (dedup key, trace).
    pub fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome> {
        self.driver.publish_opts(topic, message, opts)
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

    /// Counters, topics and dead letters at one instant.
    pub fn snapshot(&self) -> BusSnapshot<M> {
        self.driver.snapshot(None)
    }

    /// Broker-wide statistics.
    pub fn stats(&self) -> BrokerStats {
        self.snapshot().stats
    }

    /// Snapshot of the dead-letter queue.
    pub fn dead_letters(&self) -> Vec<DeadLetter<M>> {
        self.snapshot().dead_letters
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
