//! What a subscriber is handed: deliveries and dead letters.

use css_trace::TraceId;
use css_types::{CssError, SubscriptionId};

/// The error every operation on a detached subscription returns.
pub(crate) fn unknown_sub(id: SubscriptionId) -> CssError {
    CssError::Bus(format!("unknown subscription {id}"))
}

/// One delivery of a message to a group member. The message stays owned
/// by the group until [`crate::SubscriberHandle::ack`]'d.
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
