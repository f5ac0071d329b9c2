//! The controller-side view of a producer's gateway.
//!
//! In the deployed system the data controller reaches each Local
//! Cooperation Gateway through a web-service invocation; here the
//! boundary is a trait so the controller never holds producer data
//! structures directly — only the narrow `getResponse` interface of
//! Algorithm 2 crosses it.

use std::collections::BTreeSet;
use std::sync::Arc;

use css_event::EventDetails;
use css_gateway::LocalCooperationGateway;
use css_storage::LogBackend;
use css_trace::TraceContext;
use css_types::{CssResult, SourceEventId};
use parking_lot::Mutex;

/// What the data controller may ask of a producer's gateway.
///
/// `Send + Sync` because the controller shares registered gateways
/// across its data-plane threads (an `Arc<dyn GatewayClient>` is
/// cloned out of the registry before the unlocked network call).
pub trait GatewayClient: Send + Sync {
    /// Algorithm 2: the field-filtered details of one event. When `ctx`
    /// is given the endpoint continues the caller's trace; an endpoint
    /// that cannot carry spans may ignore it.
    fn get_response(
        &self,
        src_event_id: SourceEventId,
        allowed: &BTreeSet<String>,
        ctx: Option<&TraceContext>,
    ) -> CssResult<EventDetails>;
}

/// A shareable in-process gateway endpoint.
pub type SharedGateway<B> = Arc<Mutex<LocalCooperationGateway<B>>>;

impl<B: LogBackend> GatewayClient for SharedGateway<B> {
    fn get_response(
        &self,
        src_event_id: SourceEventId,
        allowed: &BTreeSet<String>,
        ctx: Option<&TraceContext>,
    ) -> CssResult<EventDetails> {
        self.lock().get_response(src_event_id, allowed, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_event::{DetailMessage, EventSchema, FieldDef, FieldKind, FieldValue};
    use css_storage::MemBackend;
    use css_types::{ActorId, EventTypeId};

    #[test]
    fn shared_gateway_implements_client() {
        let mut gw = LocalCooperationGateway::open(ActorId(1), MemBackend::new()).unwrap();
        let schema = EventSchema::new(EventTypeId::v1("x"), "X", ActorId(1))
            .field(FieldDef::required("A", FieldKind::Text))
            .field(FieldDef::required("B", FieldKind::Text));
        gw.register_schema(schema).unwrap();
        gw.persist(&DetailMessage {
            src_event_id: SourceEventId(1),
            producer: ActorId(1),
            details: css_event::EventDetails::new(EventTypeId::v1("x"))
                .with("A", FieldValue::Text("visible".into()))
                .with("B", FieldValue::Text("hidden".into())),
        })
        .unwrap();
        let shared: SharedGateway<MemBackend> = Arc::new(Mutex::new(gw));
        let client: &dyn GatewayClient = &shared;
        let allowed: BTreeSet<String> = ["A".to_string()].into_iter().collect();
        let details = client
            .get_response(SourceEventId(1), &allowed, None)
            .unwrap();
        assert_eq!(
            details.get("A").unwrap(),
            &FieldValue::Text("visible".into())
        );
        assert_eq!(details.get("B").unwrap(), &FieldValue::Empty);
    }
}
