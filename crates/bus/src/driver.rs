//! What a publish passes and gets back ([`PublishOptions`],
//! [`PublishOutcome`]) and what a member reads of its delivery group
//! ([`GroupSnapshot`]). The verbs themselves are [`crate::Bus`]'s and
//! [`crate::SubscriberHandle`]'s own methods, over the one broker state;
//! every method is a plain blocking call: no async runtime enters the
//! platform.

use css_trace::TraceContext;

use crate::stats::SubscriptionStats;

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

/// One delivery group as a member sees it
/// ([`crate::SubscriberHandle::group`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// Messages queued for the group (excluding in-flight).
    pub queued: usize,
    /// Deliveries currently awaiting ack/nack.
    pub in_flight: usize,
    /// The group's counters, shared by all its members.
    pub stats: SubscriptionStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::send;
    use crate::{Bus, SubscriptionConfig};

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
    fn a_bus_routes_a_publish_to_its_subscriber() {
        let bus: Bus<u32> = Bus::in_memory();
        bus.create_topic("t");
        assert_eq!(send(&bus, "t", 6).unwrap(), 0);
        assert!(send(&bus, "u", 6).is_err());
        let sub = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        assert_eq!(send(&bus, "t", 7).unwrap(), 1);
        let d = sub.poll().unwrap().unwrap();
        assert_eq!(d.message, 7);
        sub.ack(d.delivery_id).unwrap();
        assert_eq!(bus.stats().published, 2);
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
        assert_eq!(send(&bus, "t", 1).unwrap(), 1);
        assert_eq!(send(&bus, "t", 2).unwrap(), 1);
        let da = a.poll().unwrap().unwrap();
        let db = b.poll().unwrap().unwrap();
        assert_ne!(da.message, db.message);
        assert!(a.poll().unwrap().is_none());
        a.ack(da.delivery_id).unwrap();
        b.ack(db.delivery_id).unwrap();
    }
}
