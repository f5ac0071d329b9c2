//! Subscriber-facing types: deliveries, handles, dead letters.

use std::sync::Arc;
use std::time::Duration;

use css_trace::TraceId;
use css_types::{CssError, CssResult, SubscriptionId};

use crate::broker::Broker;
use crate::driver::GroupSnapshot;
use crate::stats::SubscriptionStats;

/// The error every operation on a detached subscription returns.
pub(crate) fn unknown_sub(id: SubscriptionId) -> CssError {
    CssError::Bus(format!("unknown subscription {id}"))
}

/// One delivery of a message to a group member. The message stays owned
/// by the group until [`SubscriberHandle::ack`]'d.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Identifier to pass back to `ack` / `nack`.
    pub delivery_id: u64,
    /// 1-based delivery attempt for this message.
    pub attempt: u32,
    /// Publish order within the group: assigned at enqueue, stable
    /// across redeliveries.
    pub offset: u64,
    /// The causal trace of the publish that enqueued this message, if
    /// it was traced — lets the consumer continue the publisher's tree.
    pub trace: Option<TraceId>,
    /// The message payload.
    pub message: M,
}

/// A message that exhausted its delivery attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter<M> {
    /// The member that last held the message before it was given up on.
    pub subscription: SubscriptionId,
    /// Topic it was published on.
    pub topic: String,
    /// Delivery group it was queued for (`None` for a private group).
    pub group: Option<String>,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The original publish trace, preserved so a dead letter can be
    /// joined back to its causal record.
    pub trace: Option<TraceId>,
    /// The message payload.
    pub message: M,
}

/// Consumer-side handle to one group-member subscription.
///
/// Dropping the handle does **not** unsubscribe — subscriptions are
/// durable, mirroring how a consumer's queue on the ESB outlives any one
/// connection. Call [`SubscriberHandle::unsubscribe`] to remove it.
pub struct SubscriberHandle<M: Clone + Send + 'static> {
    broker: Arc<Broker<M>>,
    id: SubscriptionId,
}

impl<M: Clone + Send + 'static> std::fmt::Debug for SubscriberHandle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubscriberHandle({})", self.id)
    }
}

impl<M: Clone + Send + 'static> Clone for SubscriberHandle<M> {
    fn clone(&self) -> Self {
        SubscriberHandle {
            broker: Arc::clone(&self.broker),
            id: self.id,
        }
    }
}

impl<M: Clone + Send + 'static> SubscriberHandle<M> {
    /// A handle binding subscription `id` to `broker`.
    pub(crate) fn new(broker: Arc<Broker<M>>, id: SubscriptionId) -> Self {
        SubscriberHandle { broker, id }
    }

    /// The subscription's identifier.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Take the next message, if one is available. Non-blocking.
    pub fn poll(&self) -> CssResult<Option<Delivery<M>>> {
        self.poll_for(Duration::ZERO)
    }

    /// Take the next message, waiting up to `wait` for one to arrive
    /// (or a visibility timeout to return one).
    pub fn poll_for(&self, wait: Duration) -> CssResult<Option<Delivery<M>>> {
        self.broker.poll(self.id, wait)
    }

    /// Acknowledge a delivery, removing the message for good.
    pub fn ack(&self, delivery_id: u64) -> CssResult<()> {
        self.broker.ack(self.id, delivery_id)
    }

    /// Negatively acknowledge a delivery. The message returns to the
    /// head of the queue for redelivery (to any group member), or moves
    /// to the dead-letter queue once its attempts are exhausted.
    pub fn nack(&self, delivery_id: u64) -> CssResult<()> {
        self.broker.nack(self.id, delivery_id)
    }

    /// This subscription's delivery group at one instant: queued and
    /// in-flight counts and the group's counters. Errors once the
    /// subscription is gone.
    pub fn group(&self) -> CssResult<GroupSnapshot> {
        let group = self.broker.snapshot(Some(self.id)).group;
        group.ok_or_else(|| unknown_sub(self.id))
    }

    /// Messages currently queued for the group (not counting in-flight
    /// deliveries).
    pub fn backlog(&self) -> CssResult<usize> {
        self.group().map(|g| g.queued)
    }

    /// Deliveries of the group currently awaiting ack/nack.
    pub fn in_flight(&self) -> CssResult<usize> {
        self.group().map(|g| g.in_flight)
    }

    /// Statistics for this subscription's delivery group.
    pub fn stats(&self) -> CssResult<SubscriptionStats> {
        self.group().map(|g| g.stats)
    }

    /// Remove this member. Its in-flight deliveries requeue for the
    /// remaining group members; the last member leaving discards the
    /// group's queue.
    pub fn unsubscribe(self) -> CssResult<()> {
        self.broker.detach(self.id)
    }

    /// Drain every queued message, acking each — convenience for tests
    /// and simulations that consume eagerly.
    pub fn drain(&self) -> CssResult<Vec<M>> {
        let mut out = Vec::new();
        while let Some(d) = self.poll()? {
            self.ack(d.delivery_id)?;
            out.push(d.message);
        }
        Ok(out)
    }
}
