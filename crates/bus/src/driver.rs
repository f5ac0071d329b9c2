//! What a publish passes ([`PublishOptions`]). The verbs themselves
//! are [`crate::Bus`]'s, [`crate::Admission`]'s and
//! [`crate::SubscriberHandle`]'s own methods, over the one broker
//! state; every method is a plain blocking call: no async runtime
//! enters the platform.

use css_trace::TraceContext;

/// Per-publish options: an optional trace, and a key the broker ignores.
///
/// Borrowed and `Copy`, so hot paths build one on the stack per call.
#[derive(Default, Clone, Copy)]
pub struct PublishOptions<'a> {
    /// Ignored: no key deduplicates a publish. The events index's claim
    /// of each source event is the platform's idempotence check. The
    /// field is kept only because the frozen E23 macrobench
    /// (`crates/bench/examples/macrobench`) passes a key.
    pub dedup_key: Option<&'a str>,
    /// Trace to continue: routing and delivery record spans under it.
    pub trace: Option<&'a TraceContext>,
}

impl<'a> PublishOptions<'a> {
    /// Options with no key and no trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a key, which the broker ignores (see
    /// [`PublishOptions::dedup_key`]).
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
