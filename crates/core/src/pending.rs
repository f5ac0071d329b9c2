//! Pending access requests.
//!
//! "If there is not already a privacy policy defined for that particular
//! data consumer the data producer ... is notified of the pending access
//! request and it is guided by the Privacy Requirements Elicitation Tool
//! to define a privacy policy." (Section 5)
//!
//! `PendingQueue` is the platform-wide queue of those requests, private
//! to this crate: a consumer files through
//! [`ConsumerHandle::request_access`](crate::ConsumerHandle::request_access),
//! whose `Result` its caller must use. The queue is
//! **bounded**: once the number of requests still awaiting a producer
//! decision reaches the configured high-water mark, new filings are
//! rejected with [`CssError::Backpressure`] instead of growing the
//! queue without limit (a stalled producer must not let consumer
//! filings consume the controller's memory). The current backlog is
//! exported as the `core.pending_depth` gauge.

use parking_lot::Mutex;

use css_telemetry::{Gauge, MetricsRegistry};
use css_types::{ActorId, CssError, CssResult, EventTypeId, Purpose, Timestamp};

/// Lifecycle of an access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessRequestStatus {
    /// Waiting for the producer's decision.
    Pending,
    /// Granted — a policy was authored through the wizard.
    Granted,
    /// Denied by the producer.
    Denied,
}

/// A consumer's request for access to a class of events it has no
/// policy for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRequest {
    /// Queue-unique identifier.
    pub id: u64,
    /// The requesting consumer.
    pub consumer: ActorId,
    /// The class of events the consumer wants.
    pub event_type: EventTypeId,
    /// The purposes the consumer intends.
    pub purposes: Vec<Purpose>,
    /// Free-form motivation shown to the producer.
    pub note: String,
    /// When the request was filed.
    pub requested_at: Timestamp,
    /// Current status.
    pub status: AccessRequestStatus,
}

/// Default high-water mark for undecided requests.
pub const DEFAULT_PENDING_CAPACITY: usize = 1_024;

/// The bounded platform-wide queue of access requests.
pub(crate) struct PendingQueue {
    requests: Mutex<Vec<AccessRequest>>,
    capacity: usize,
    depth: Gauge,
}

impl PendingQueue {
    /// A queue rejecting new filings once `capacity` requests await a
    /// decision (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        PendingQueue {
            requests: Mutex::ranked("pending queue", css_types::lock_order::PENDING, Vec::new()),
            capacity: capacity.max(1),
            depth: Gauge::new(),
        }
    }

    /// Export the backlog as the registry's `core.pending_depth` gauge.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.depth = registry.gauge("core.pending_depth");
    }

    /// File a new request. Returns its queue-unique id, or
    /// [`CssError::Backpressure`] when the undecided backlog is at the
    /// high-water mark.
    pub fn file(
        &self,
        consumer: ActorId,
        event_type: EventTypeId,
        purposes: Vec<Purpose>,
        note: String,
        at: Timestamp,
    ) -> CssResult<u64> {
        let mut requests = self.requests.lock();
        let backlog = requests
            .iter()
            .filter(|r| r.status == AccessRequestStatus::Pending)
            .count();
        if backlog >= self.capacity {
            return Err(CssError::Backpressure(format!(
                "pending access-request queue is full ({backlog}/{} undecided); \
                 retry once producers work the backlog",
                self.capacity
            )));
        }
        let id = requests.len() as u64 + 1;
        requests.push(AccessRequest {
            id,
            consumer,
            event_type,
            purposes,
            note,
            requested_at: at,
            status: AccessRequestStatus::Pending,
        });
        self.depth.set(backlog as i64 + 1);
        Ok(id)
    }

    /// Status of one consumer's request.
    pub fn status_of(&self, id: u64, consumer: ActorId) -> Option<AccessRequestStatus> {
        self.requests
            .lock()
            .iter()
            .find(|r| r.id == id && r.consumer == consumer)
            .map(|r| r.status)
    }

    /// Every request ever filed (any status, any producer).
    pub fn all(&self) -> Vec<AccessRequest> {
        self.requests.lock().clone()
    }

    /// Requests still awaiting a decision.
    pub fn pending_count(&self) -> usize {
        let n = self
            .requests
            .lock()
            .iter()
            .filter(|r| r.status == AccessRequestStatus::Pending)
            .count();
        self.depth.set(n as i64);
        n
    }

    /// Undecided requests targeting one of the given event classes (a
    /// producer's view of its inbox).
    pub fn pending_for(&self, types: &[EventTypeId]) -> Vec<AccessRequest> {
        self.requests
            .lock()
            .iter()
            .filter(|r| r.status == AccessRequestStatus::Pending && types.contains(&r.event_type))
            .cloned()
            .collect()
    }

    /// Decide a pending request: `check` sees the request first (e.g.
    /// the producer-ownership validation) and may veto with an error;
    /// on `Ok` the status flips to `new_status` and the decided request
    /// is returned.
    pub fn decide(
        &self,
        request_id: u64,
        new_status: AccessRequestStatus,
        check: impl FnOnce(&AccessRequest) -> CssResult<()>,
    ) -> CssResult<AccessRequest> {
        let mut requests = self.requests.lock();
        let request = requests
            .iter_mut()
            .find(|r| r.id == request_id && r.status == AccessRequestStatus::Pending)
            .ok_or_else(|| CssError::NotFound(format!("no pending request {request_id}")))?;
        check(request)?;
        request.status = new_status;
        let decided = request.clone();
        let backlog = requests
            .iter()
            .filter(|r| r.status == AccessRequestStatus::Pending)
            .count();
        self.depth.set(backlog as i64);
        Ok(decided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_one(q: &PendingQueue, i: u64) -> CssResult<u64> {
        q.file(
            ActorId(3),
            EventTypeId::v1("blood-test"),
            vec![Purpose::HealthcareTreatment],
            format!("request {i}"),
            Timestamp(i),
        )
    }

    #[test]
    fn construction() {
        let r = AccessRequest {
            id: 1,
            consumer: ActorId(3),
            event_type: EventTypeId::v1("blood-test"),
            purposes: vec![Purpose::HealthcareTreatment],
            note: "need results for treatment".into(),
            requested_at: Timestamp(10),
            status: AccessRequestStatus::Pending,
        };
        assert_eq!(r.status, AccessRequestStatus::Pending);
    }

    #[test]
    fn queue_rejects_past_high_water_mark() {
        let q = PendingQueue::new(2);
        assert_eq!(file_one(&q, 1).unwrap(), 1);
        assert_eq!(file_one(&q, 2).unwrap(), 2);
        let err = file_one(&q, 3).unwrap_err();
        assert!(matches!(err, CssError::Backpressure(_)), "{err}");
        // Deciding one frees a slot.
        q.decide(1, AccessRequestStatus::Denied, |_| Ok(()))
            .unwrap();
        assert_eq!(file_one(&q, 4).unwrap(), 3);
    }

    #[test]
    fn depth_gauge_tracks_backlog() {
        let registry = MetricsRegistry::new();
        let mut q = PendingQueue::new(8);
        q.instrument(&registry);
        file_one(&q, 1).unwrap();
        file_one(&q, 2).unwrap();
        assert_eq!(registry.gauge("core.pending_depth").get(), 2);
        q.decide(2, AccessRequestStatus::Granted, |_| Ok(()))
            .unwrap();
        assert_eq!(registry.gauge("core.pending_depth").get(), 1);
    }

    #[test]
    fn decide_veto_leaves_request_pending() {
        let q = PendingQueue::new(8);
        file_one(&q, 1).unwrap();
        let err = q
            .decide(1, AccessRequestStatus::Granted, |_| {
                Err(CssError::Invalid("not yours".into()))
            })
            .unwrap_err();
        assert!(matches!(err, CssError::Invalid(_)));
        assert_eq!(
            q.status_of(1, ActorId(3)),
            Some(AccessRequestStatus::Pending)
        );
    }
}
