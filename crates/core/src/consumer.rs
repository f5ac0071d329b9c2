//! The consumer-side handle.

use std::sync::Arc;

use css_bus::SubscriberHandle;
use css_event::{NotificationMessage, PrivacyAwareEvent};
use css_trace::TraceId;
use css_types::{ActorId, CssResult, EventTypeId, GlobalEventId, PersonId, Purpose, Timestamp};

use crate::pending::AccessRequestStatus;
use crate::platform::{SharedController, SharedPending};
use crate::provider::BackendProvider;

/// One notification taken off a subscription, with its delivery
/// metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The notification payload: the one allocation the publish built,
    /// shared with every other consumer it was delivered to
    /// (`d.message.global_id` reads through the pointer).
    pub message: Arc<NotificationMessage>,
    /// The causal trace of the publish that routed the notification
    /// (present when the producer published under an enabled tracer) —
    /// hand it to `ProcessMonitor::feed_traced` to join monitoring KPIs
    /// back to span trees and audit records.
    pub trace: Option<TraceId>,
    /// 1-based delivery attempt (greater than one after a nack,
    /// visibility timeout, or worker detach redelivered the message).
    pub attempt: u32,
    /// Publish order within the delivery group (stable across
    /// redeliveries).
    pub offset: u64,
}

impl Delivered {
    fn from_bus(d: css_bus::Delivery<Arc<NotificationMessage>>) -> Self {
        Delivered {
            message: d.message,
            trace: d.trace,
            attempt: d.attempt,
            offset: d.offset,
        }
    }
}

/// A live subscription to a class of events, yielding notification
/// messages.
pub struct Subscription {
    inner: SubscriberHandle<Arc<NotificationMessage>>,
    event_type: EventTypeId,
}

impl Subscription {
    /// The class subscribed to.
    pub fn event_type(&self) -> &EventTypeId {
        &self.event_type
    }

    /// Next notification, if one is queued (acknowledged on receipt).
    pub fn next(&self) -> CssResult<Option<Delivered>> {
        match self.inner.poll()? {
            None => Ok(None),
            Some(delivery) => {
                self.inner.ack(delivery.delivery_id)?;
                Ok(Some(Delivered::from_bus(delivery)))
            }
        }
    }

    /// Next notification, waiting up to `timeout` for one to arrive
    /// (acknowledged on receipt). For threaded consumers.
    pub fn next_wait(&self, timeout: std::time::Duration) -> CssResult<Option<Delivered>> {
        match self.inner.poll_for(timeout)? {
            None => Ok(None),
            Some(delivery) => {
                self.inner.ack(delivery.delivery_id)?;
                Ok(Some(Delivered::from_bus(delivery)))
            }
        }
    }

    /// Next delivery **without** acknowledging it. Pair with
    /// [`Subscription::ack`] on success or [`Subscription::nack`] to
    /// hand the notification to another worker of the group (bounded by
    /// the subscription's `max_attempts`, then dead-lettered).
    pub fn next_unacked(&self) -> CssResult<Option<css_bus::Delivery<Arc<NotificationMessage>>>> {
        self.inner.poll()
    }

    /// Acknowledge a delivery taken with [`Subscription::next_unacked`].
    pub fn ack(&self, delivery_id: u64) -> CssResult<()> {
        self.inner.ack(delivery_id)
    }

    /// Negatively acknowledge a delivery: it returns to the head of the
    /// group's queue for another worker, or dead-letters once attempts
    /// are exhausted.
    pub fn nack(&self, delivery_id: u64) -> CssResult<()> {
        self.inner.nack(delivery_id)
    }

    /// Drain every queued notification.
    pub fn drain(&self) -> CssResult<Vec<Arc<NotificationMessage>>> {
        self.inner.drain()
    }

    /// Queued (undelivered) notification count.
    pub fn backlog(&self) -> CssResult<usize> {
        self.inner.backlog()
    }

    /// Deliveries currently awaiting ack/nack.
    pub fn in_flight(&self) -> CssResult<usize> {
        self.inner.in_flight()
    }
}

/// What a data consumer programs against: subscribe, inquire, request
/// details, ask for access.
pub struct ConsumerHandle<P: BackendProvider> {
    controller: SharedController<P>,
    pending: SharedPending,
    actor: ActorId,
}

impl<P: BackendProvider> ConsumerHandle<P> {
    pub(crate) fn new(
        controller: SharedController<P>,
        pending: SharedPending,
        actor: ActorId,
    ) -> Self {
        ConsumerHandle {
            controller,
            pending,
            actor,
        }
    }

    /// This consumer's actor id.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Browse the catalog: every declared event class.
    pub fn browse_catalog(&self) -> Vec<EventTypeId> {
        self.controller.catalog().all_types()
    }

    /// Browse the catalog restricted to a care-domain node (e.g.
    /// `"health"` or `"social/home-care"`).
    pub fn browse_by_domain(&self, domain: &str) -> Vec<EventTypeId> {
        self.controller.catalog().by_domain(domain)
    }

    /// The published structure (schema) of a declared event class — the
    /// catalog "is visible to any candidate data consumer" (§5).
    pub fn class_schema(&self, event_type: &EventTypeId) -> CssResult<css_event::EventSchema> {
        self.controller.catalog().schema(event_type)
    }

    /// Subscribe to a class of events (policy-gated, deny-by-default).
    pub fn subscribe(&self, event_type: &EventTypeId) -> CssResult<Subscription> {
        let handle = self.controller.subscribe(self.actor, event_type)?;
        Ok(Subscription {
            inner: handle,
            event_type: event_type.clone(),
        })
    }

    /// Subscribe a worker to a named competing-consumer group: every
    /// subscription this consumer takes with the same `group` name
    /// splits the notification stream instead of duplicating it. Same
    /// policy gate as [`ConsumerHandle::subscribe`].
    pub fn subscribe_grouped(
        &self,
        event_type: &EventTypeId,
        group: &str,
    ) -> CssResult<Subscription> {
        let handle = self
            .controller
            .subscribe_grouped(self.actor, event_type, group)?;
        Ok(Subscription {
            inner: handle,
            event_type: event_type.clone(),
        })
    }

    /// Query the events index for notifications about one person.
    pub fn inquire_by_person(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        self.controller.inquire_by_person(self.actor, person)
    }

    /// Query the events index for notifications of one class.
    pub fn inquire_by_type(&self, event_type: &EventTypeId) -> CssResult<Vec<NotificationMessage>> {
        self.controller.inquire_by_type(self.actor, event_type)
    }

    /// Query the events index for notifications in a time window,
    /// across every class this consumer is authorized for.
    pub fn inquire_between(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> CssResult<Vec<NotificationMessage>> {
        self.controller.inquire_between(self.actor, from, to)
    }

    /// Request the details of a notified event, stating a purpose
    /// (phase 2 of the two-phase protocol, Algorithm 1).
    pub fn request_details(
        &self,
        notification: &NotificationMessage,
        purpose: Purpose,
    ) -> CssResult<PrivacyAwareEvent> {
        self.request_details_by_id(
            notification.event_type.clone(),
            notification.global_id,
            purpose,
        )
    }

    /// Request details by explicit event type and id.
    pub fn request_details_by_id(
        &self,
        event_type: EventTypeId,
        event_id: GlobalEventId,
        purpose: Purpose,
    ) -> CssResult<PrivacyAwareEvent> {
        self.controller
            .request_details(self.actor, event_type, event_id, purpose)
    }

    /// File an access request for a class this consumer has no policy
    /// for; the producer sees it in its pending queue. Rejected with
    /// [`css_types::CssError::Backpressure`] when the queue of
    /// undecided requests is at its high-water mark.
    pub fn request_access(
        &self,
        event_type: EventTypeId,
        purposes: Vec<Purpose>,
        note: impl Into<String>,
        at: Timestamp,
    ) -> CssResult<u64> {
        self.pending
            .file(self.actor, event_type, purposes, note.into(), at)
    }

    /// Status of one of this consumer's access requests.
    pub fn access_request_status(&self, id: u64) -> Option<AccessRequestStatus> {
        self.pending.status_of(id, self.actor)
    }
}
