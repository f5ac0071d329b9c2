//! Bus statistics, used by the integration-cost experiments.

/// Counters for one delivery group (shared by all its members).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Messages enqueued for this group.
    pub enqueued: u64,
    /// Deliveries handed to members (including redeliveries).
    pub delivered: u64,
    /// Messages acknowledged.
    pub acked: u64,
    /// Redeliveries after a nack, visibility timeout, or member detach.
    pub redelivered: u64,
    /// Messages moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// In-flight deliveries returned to the queue by a visibility
    /// timeout.
    pub timed_out: u64,
}

/// Broker-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Publish calls accepted.
    pub published: u64,
    /// Publish calls rejected (no such topic, or a full group queue).
    pub rejected: u64,
    /// Publishes dropped because their dedup key was already seen.
    pub dedup_dropped: u64,
    /// Total fan-out: message copies enqueued across delivery groups.
    pub fanned_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = SubscriptionStats::default();
        assert_eq!(s.enqueued + s.delivered + s.acked + s.timed_out, 0);
        let b = BrokerStats::default();
        assert_eq!(b.published + b.rejected + b.fanned_out + b.dedup_dropped, 0);
    }
}
