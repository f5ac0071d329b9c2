//! The producer-side handle.

use std::sync::Arc;

use css_controller::{PublishReceipt, SharedGateway};
use css_event::{DetailMessage, EventDetails, EventSchema};
use css_types::{
    ActorId, CssResult, EventTypeId, IdGenerator, PersonIdentity, PolicyId, SourceEventId,
    Timestamp,
};

use crate::elicitation::PolicyWizard;
use crate::pending::{AccessRequest, AccessRequestStatus};
use crate::platform::{PlatformBackend, SharedController, SharedPending, SharedRepo};
use crate::provider::BackendProvider;

/// What a data source system programs against: declare classes, publish
/// events (details stay local, notifications go out), author policies.
pub struct ProducerHandle<P: BackendProvider> {
    controller: SharedController<P>,
    policy_repo: SharedRepo<P>,
    pending: SharedPending,
    gateway: SharedGateway<PlatformBackend<P>>,
    src_gen: Arc<IdGenerator>,
    actor: ActorId,
}

impl<P: BackendProvider> ProducerHandle<P> {
    pub(crate) fn new(
        controller: SharedController<P>,
        policy_repo: SharedRepo<P>,
        pending: SharedPending,
        gateway: SharedGateway<PlatformBackend<P>>,
        src_gen: Arc<IdGenerator>,
        actor: ActorId,
    ) -> Self {
        ProducerHandle {
            controller,
            policy_repo,
            pending,
            gateway,
            src_gen,
            actor,
        }
    }

    /// This producer's actor id.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Declare a class of event details in the catalog (and register the
    /// schema at the local gateway).
    pub fn declare(&self, schema: &EventSchema, domain: Option<&str>) -> CssResult<()> {
        self.gateway.lock().register_schema(schema.clone())?;
        self.controller.declare_event_class(schema, domain)
    }

    /// Publish an event: the full details are persisted at the local
    /// gateway (they never leave it unfiltered), then the notification is
    /// routed through the data controller.
    pub fn publish(
        &self,
        person: PersonIdentity,
        description: impl Into<String>,
        details: EventDetails,
        occurred_at: Timestamp,
    ) -> CssResult<PublishReceipt> {
        let src_event_id: SourceEventId = self.src_gen.next_id();
        let event_type = details.event_type.clone();
        self.gateway.lock().persist(&DetailMessage {
            src_event_id,
            producer: self.actor,
            details,
        })?;
        self.controller.publish(
            self.actor,
            person,
            description.into(),
            event_type,
            occurred_at,
            src_event_id,
        )
    }

    /// Open the elicitation wizard for one of this producer's classes.
    pub fn policy_wizard(&self, event_type: &EventTypeId) -> CssResult<PolicyWizard<P>> {
        let schema = self.controller.catalog().schema(event_type)?;
        if schema.producer != self.actor {
            return Err(css_types::CssError::Invalid(format!(
                "event class {event_type} belongs to {}, not to {}",
                schema.producer, self.actor
            )));
        }
        Ok(PolicyWizard::new(
            self.controller.clone(),
            self.policy_repo.clone(),
            self.actor,
            schema,
        ))
    }

    /// Revoke one of this producer's policies.
    pub fn revoke_policy(&self, id: PolicyId) -> CssResult<()> {
        self.controller.revoke_policy(self.actor, id)?;
        self.policy_repo.lock().revoke(id)?;
        Ok(())
    }

    /// Pending access requests targeting this producer's event classes.
    pub fn pending_requests(&self) -> Vec<AccessRequest> {
        let mine: Vec<EventTypeId> = self.controller.catalog().by_producer(self.actor);
        self.pending.pending_for(&mine)
    }

    /// Grant a pending request: returns a wizard prefilled with the
    /// requesting consumer and its stated purposes. Saving the wizard
    /// completes the grant.
    pub fn grant_request(&self, request_id: u64) -> CssResult<PolicyWizard<P>> {
        let request = self.take_request(request_id, AccessRequestStatus::Granted)?;
        let wizard = self
            .policy_wizard(&request.event_type)?
            .grant_to([request.consumer])
            .map_err(css_types::CssError::from)?
            .for_purposes(request.purposes.iter().cloned());
        Ok(wizard)
    }

    /// Deny a pending request.
    pub fn deny_request(&self, request_id: u64) -> CssResult<()> {
        self.take_request(request_id, AccessRequestStatus::Denied)?;
        Ok(())
    }

    fn take_request(
        &self,
        request_id: u64,
        new_status: AccessRequestStatus,
    ) -> CssResult<AccessRequest> {
        self.pending.decide(request_id, new_status, |request| {
            // Ownership check: the class must be this producer's.
            if self.controller.catalog().owner(&request.event_type)? != self.actor {
                return Err(css_types::CssError::Invalid(format!(
                    "request {request_id} targets another producer's class"
                )));
            }
            Ok(())
        })
    }

    /// Number of detail messages persisted at this producer's gateway.
    pub fn gateway_stored_count(&self) -> usize {
        self.gateway.lock().stored_count()
    }
}
