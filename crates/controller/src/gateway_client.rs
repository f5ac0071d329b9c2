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
use parking_lot::RwLock;

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

/// A shareable in-process gateway endpoint. Read-shared: requests for
/// one producer's details read its store side by side
/// ([`LocalCooperationGateway::get_response`] takes `&self`); a persist
/// or a schema registration takes the write side.
pub type SharedGateway<B> = Arc<RwLock<LocalCooperationGateway<B>>>;

impl<B: LogBackend> GatewayClient for SharedGateway<B> {
    fn get_response(
        &self,
        src_event_id: SourceEventId,
        allowed: &BTreeSet<String>,
        ctx: Option<&TraceContext>,
    ) -> CssResult<EventDetails> {
        self.read().get_response(src_event_id, allowed, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_event::{DetailMessage, EventSchema, FieldDef, FieldKind, FieldValue};
    use css_storage::{FileBackend, MemBackend};
    use css_types::{ActorId, EventTypeId};
    use std::sync::Barrier;

    /// A gateway over `backend` holding events `1..=events`, event `i`
    /// with `A = "visible"` (`"visible-{i}"` past the first) and `B`
    /// hidden.
    fn gateway_over<B: LogBackend>(backend: B, events: u64) -> SharedGateway<B> {
        let mut gw = LocalCooperationGateway::open(ActorId(1), backend).unwrap();
        let schema = EventSchema::new(EventTypeId::v1("x"), "X", ActorId(1))
            .field(FieldDef::required("A", FieldKind::Text))
            .field(FieldDef::required("B", FieldKind::Text));
        gw.register_schema(schema).unwrap();
        for i in 1..=events {
            gw.persist(&DetailMessage {
                src_event_id: SourceEventId(i),
                producer: ActorId(1),
                details: css_event::EventDetails::new(EventTypeId::v1("x"))
                    .with("A", FieldValue::Text(visible(i)))
                    .with("B", FieldValue::Text("hidden".into())),
            })
            .unwrap();
        }
        Arc::new(RwLock::new(gw))
    }

    fn visible(i: u64) -> String {
        match i {
            1 => "visible".into(),
            _ => format!("visible-{i}"),
        }
    }

    fn shared_gateway() -> SharedGateway<MemBackend> {
        gateway_over(MemBackend::new(), 1)
    }

    #[test]
    fn shared_gateway_implements_client() {
        let shared = shared_gateway();
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

    /// Two requests for one producer's details read its store side by
    /// side: one completes while another thread holds the read side.
    #[test]
    fn a_request_reads_beside_another_reader() {
        let shared = shared_gateway();
        let (held, answered) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let guard = shared.read();
                held.wait();
                answered.wait();
                drop(guard);
            });
            held.wait();
            let allowed: BTreeSet<String> = ["A".to_string()].into_iter().collect();
            let details = shared.get_response(SourceEventId(1), &allowed, None);
            answered.wait();
            assert_eq!(
                details.unwrap().get("A"),
                Some(&FieldValue::Text("visible".into()))
            );
        });
    }

    /// Readers of a disk-backed gateway share its file: concurrent
    /// requests each read their own record, never one another's bytes.
    #[test]
    fn concurrent_requests_on_a_file_backed_gateway_each_decode() {
        let dir = std::env::temp_dir().join(format!("css-gw-client-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.log");
        let _ = std::fs::remove_file(&path);
        let shared = gateway_over(FileBackend::open(&path).unwrap(), 32);
        let allowed: BTreeSet<String> = ["A".to_string()].into_iter().collect();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (shared, allowed) = (&shared, &allowed);
                scope.spawn(move || {
                    for round in 0..100u64 {
                        let i = (t * 8 + round) % 32 + 1;
                        let details = shared
                            .get_response(SourceEventId(i), allowed, None)
                            .unwrap();
                        assert_eq!(details.get("A"), Some(&FieldValue::Text(visible(i))));
                    }
                });
            }
        });
        let _ = std::fs::remove_file(&path);
    }
}
