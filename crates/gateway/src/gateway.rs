//! The gateway proper: schema registry + detail store + Algorithm 2.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use css_event::{DetailMessage, EventDetails, EventSchema};
use css_storage::LogBackend;
use css_telemetry::{Counter, Histogram, MetricsRegistry};
use css_trace::{SpanStatus, TraceContext};
use css_types::{ActorId, CssError, CssResult, EventTypeId, SourceEventId};

use crate::store::{stored_type, DetailStore};

/// Cached telemetry handles for the gateway's Algorithm 2 path.
struct GatewayInstruments {
    /// `gateway.persist` — schema validation + store append.
    persist_latency: Histogram,
    /// `gateway.retrieve` — repository lookup + record load.
    retrieve_latency: Histogram,
    /// `gateway.filter` — field filtering into the privacy-aware view.
    filter_latency: Histogram,
    /// `gateway.persisted` — detail messages stored.
    persisted: Counter,
    /// `gateway.responses` — successful `getResponse` answers.
    responses: Counter,
}

impl GatewayInstruments {
    fn resolve(registry: &MetricsRegistry) -> Self {
        GatewayInstruments {
            persist_latency: registry.histogram("gateway.persist"),
            retrieve_latency: registry.histogram("gateway.retrieve"),
            filter_latency: registry.histogram("gateway.filter"),
            persisted: registry.counter("gateway.persisted"),
            responses: registry.counter("gateway.responses"),
        }
    }
}

/// The producer-side gateway.
///
/// Holds the producer's declared schemas, persists every detail message
/// at notification time, and answers the data controller's
/// `getResponse(src_eID, F)` calls with field-filtered details —
/// independently of whether the source system behind it is reachable.
pub struct LocalCooperationGateway<B: LogBackend> {
    producer: ActorId,
    schemas: HashMap<EventTypeId, EventSchema>,
    store: DetailStore<B>,
    /// Whether the legacy source system behind the gateway is reachable.
    /// The gateway itself keeps answering when this is `false`; the flag
    /// exists so simulations can show the contrast with direct queries.
    source_online: bool,
    telemetry: Option<GatewayInstruments>,
}

impl<B: LogBackend> LocalCooperationGateway<B> {
    /// Open a gateway for `producer` over a storage backend.
    pub fn open(producer: ActorId, backend: B) -> CssResult<Self> {
        Ok(LocalCooperationGateway {
            producer,
            schemas: HashMap::new(),
            store: DetailStore::open(backend)?,
            source_online: true,
            telemetry: None,
        })
    }

    /// Record persist/retrieve/filter latencies and throughput counters
    /// into `registry` under `gateway.*` names. Several gateways may
    /// share one registry; their metrics aggregate.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.telemetry = Some(GatewayInstruments::resolve(registry));
    }

    /// The producer this gateway serves.
    pub fn producer(&self) -> ActorId {
        self.producer
    }

    /// Register (or replace) a schema the producer declared.
    pub fn register_schema(&mut self, schema: EventSchema) -> CssResult<()> {
        if schema.producer != self.producer {
            return Err(CssError::Invalid(format!(
                "schema {} belongs to {}, not to this gateway's producer {}",
                schema.id, schema.producer, self.producer
            )));
        }
        self.schemas.insert(schema.id.clone(), schema);
        Ok(())
    }

    /// Schema for an event type, if registered.
    pub fn schema(&self, ty: &EventTypeId) -> Option<&EventSchema> {
        self.schemas.get(ty)
    }

    /// Persist a detail message at notification time. Validates the
    /// payload against the registered schema first.
    pub fn persist(&mut self, message: &DetailMessage) -> CssResult<()> {
        if message.producer != self.producer {
            return Err(CssError::Invalid(format!(
                "detail message from {} routed to gateway of {}",
                message.producer, self.producer
            )));
        }
        let schema = self
            .schemas
            .get(&message.details.event_type)
            .ok_or_else(|| {
                CssError::NotFound(format!(
                    "no schema registered for {}",
                    message.details.event_type
                ))
            })?;
        schema.validate(&message.details)?;
        let started = Instant::now();
        let out = self.store.persist(schema, message);
        if let Some(t) = &self.telemetry {
            t.persist_latency.record_duration(started.elapsed());
            if out.is_ok() {
                t.persisted.inc();
            }
        }
        out
    }

    /// Algorithm 2 — `getResponse(src_eID, F)`:
    ///
    /// 1. retrieve the Event Details from the internal events repository;
    /// 2. parse them to filter out the values of the fields not allowed,
    ///    producing the privacy-aware event to be sent back.
    ///
    /// The returned details are guaranteed privacy-safe for `F`
    /// (Definition 4); this postcondition is asserted.
    ///
    /// When `ctx` is given the call continues the caller's trace with
    /// one child span per Algorithm 2 stage: `gateway.retrieve`
    /// (the one read of the stored document), `gateway.parse`
    /// (type/schema resolution + decoding that same document),
    /// `gateway.filter` (field filtering + privacy postcondition).
    pub fn get_response(
        &self,
        src_event_id: SourceEventId,
        allowed: &BTreeSet<String>,
        ctx: Option<&TraceContext>,
    ) -> CssResult<EventDetails> {
        let started = Instant::now();
        let mut retrieve = TraceContext::child_opt(ctx, "gateway.retrieve");
        let doc = self.store.document(src_event_id)?;
        let ty_text = doc.as_ref().and_then(stored_type);
        let (Some(doc), Some(ty_text)) = (&doc, ty_text) else {
            retrieve.set_status(SpanStatus::Error);
            return Err(CssError::NotFound(format!("no details for {src_event_id}")));
        };
        retrieve.finish();
        let mut parse = TraceContext::child_opt(ctx, "gateway.parse");
        let decoded = self
            .schema_named(ty_text)
            .and_then(|schema| DetailMessage::from_xml(schema, doc));
        let message = match decoded {
            Ok(m) => m,
            Err(e) => {
                parse.set_status(SpanStatus::Error);
                return Err(e);
            }
        };
        parse.finish();
        let retrieved = Instant::now();
        let filter = TraceContext::child_opt(ctx, "gateway.filter");
        let filtered = message.details.filtered_to(allowed);
        assert!(
            filtered.is_privacy_safe(allowed),
            "gateway postcondition: response must be privacy safe"
        );
        filter.finish();
        if let Some(t) = &self.telemetry {
            t.retrieve_latency
                .record_duration(retrieved.duration_since(started));
            t.filter_latency.record_duration(retrieved.elapsed());
            t.responses.inc();
        }
        Ok(filtered)
    }

    /// Simulate the legacy source system going offline. Gateway answers
    /// are unaffected.
    pub fn set_source_online(&mut self, online: bool) {
        self.source_online = online;
    }

    /// A *direct* query to the legacy source system, bypassing the
    /// gateway store — fails when the source is offline. Exists to
    /// demonstrate (tests, experiment E12) why the gateway's local
    /// persistence is necessary.
    pub fn query_source_directly(&self, src_event_id: SourceEventId) -> CssResult<EventDetails> {
        if !self.source_online {
            return Err(CssError::Storage("source system unreachable".into()));
        }
        // When online, the source holds the same data the gateway does.
        // css-lint: allow(audit-before-release): E12 demo of the legacy source path; real releases audit at the PEP
        self.get_response(src_event_id, &self.all_fields_of(src_event_id)?, None)
    }

    fn all_fields_of(&self, src_event_id: SourceEventId) -> CssResult<BTreeSet<String>> {
        let doc = self.store.document(src_event_id)?;
        let ty_text = doc
            .as_ref()
            .and_then(stored_type)
            .ok_or_else(|| CssError::NotFound(format!("no details for {src_event_id}")))?;
        let schema = self.schema_named(ty_text)?;
        Ok(schema.field_names().map(str::to_string).collect())
    }

    /// The registered schema a stored type string names.
    fn schema_named(&self, ty_text: &str) -> CssResult<&EventSchema> {
        let ty: EventTypeId = ty_text
            .parse()
            .map_err(|e| CssError::Serialization(format!("stored type malformed: {e}")))?;
        self.schemas
            .get(&ty)
            .ok_or_else(|| CssError::NotFound(format!("no schema registered for {ty}")))
    }

    /// Highest source event id persisted, if any (restart support).
    pub fn max_src_id(&self) -> Option<SourceEventId> {
        self.store.max_src_id()
    }

    /// Number of persisted detail messages.
    pub fn stored_count(&self) -> usize {
        self.store.len()
    }

    /// Bytes occupied by the detail store's log.
    pub fn store_bytes(&self) -> u64 {
        self.store.log_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_event::{FieldDef, FieldKind, FieldValue};
    use css_storage::{FileBackend, MemBackend};

    fn schema() -> EventSchema {
        EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", ActorId(1))
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::required("Result", FieldKind::Text).sensitive())
            .field(FieldDef::optional("Notes", FieldKind::Text).sensitive())
    }

    fn gateway() -> LocalCooperationGateway<MemBackend> {
        let mut gw = LocalCooperationGateway::open(ActorId(1), MemBackend::new()).unwrap();
        gw.register_schema(schema()).unwrap();
        gw
    }

    fn message(src: u64) -> DetailMessage {
        DetailMessage {
            src_event_id: SourceEventId(src),
            producer: ActorId(1),
            details: css_event::EventDetails::new(EventTypeId::v1("blood-test"))
                .with("PatientId", FieldValue::Integer(42))
                .with("Result", FieldValue::Text("negative".into()))
                .with("Notes", FieldValue::Text("fasting sample".into())),
        }
    }

    fn allowed(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn persist_then_get_response_filters() {
        let mut gw = gateway();
        gw.persist(&message(1)).unwrap();
        let resp = gw
            .get_response(SourceEventId(1), &allowed(&["PatientId"]), None)
            .unwrap();
        assert_eq!(resp.get("PatientId").unwrap(), &FieldValue::Integer(42));
        assert_eq!(resp.get("Result").unwrap(), &FieldValue::Empty);
        assert_eq!(resp.get("Notes").unwrap(), &FieldValue::Empty);
    }

    #[test]
    fn response_is_privacy_safe_even_with_foreign_allowed_names() {
        let mut gw = gateway();
        gw.persist(&message(1)).unwrap();
        // Allowed set naming fields that don't exist: nothing leaks.
        let resp = gw
            .get_response(SourceEventId(1), &allowed(&["DoesNotExist"]), None)
            .unwrap();
        assert_eq!(resp.exposed_bytes(), 0);
    }

    #[test]
    fn unknown_event_not_found() {
        let gw = gateway();
        assert!(matches!(
            gw.get_response(SourceEventId(404), &allowed(&["PatientId"]), None),
            Err(CssError::NotFound(_))
        ));
    }

    #[test]
    fn persist_validates_schema() {
        let mut gw = gateway();
        let mut bad = message(1);
        bad.details.remove("Result"); // required field missing
        assert!(matches!(gw.persist(&bad), Err(CssError::Invalid(_))));
    }

    #[test]
    fn persist_rejects_foreign_producer() {
        let mut gw = gateway();
        let mut foreign = message(1);
        foreign.producer = ActorId(2);
        assert!(gw.persist(&foreign).is_err());
    }

    #[test]
    fn register_schema_rejects_foreign_producer() {
        let mut gw = LocalCooperationGateway::open(ActorId(2), MemBackend::new()).unwrap();
        assert!(gw.register_schema(schema()).is_err());
    }

    #[test]
    fn persist_requires_registered_schema() {
        let mut gw = LocalCooperationGateway::open(ActorId(1), MemBackend::new()).unwrap();
        assert!(matches!(
            gw.persist(&message(1)),
            Err(CssError::NotFound(_))
        ));
    }

    #[test]
    fn gateway_answers_while_source_offline() {
        let mut gw = gateway();
        gw.persist(&message(1)).unwrap();
        gw.set_source_online(false);
        // Direct source query fails...
        assert!(gw.query_source_directly(SourceEventId(1)).is_err());
        // ...but the gateway still serves the details.
        let resp = gw
            .get_response(SourceEventId(1), &allowed(&["PatientId", "Result"]), None)
            .unwrap();
        assert_eq!(
            resp.get("Result").unwrap(),
            &FieldValue::Text("negative".into())
        );
    }

    #[test]
    fn details_survive_gateway_restart() {
        let dir = std::env::temp_dir().join(format!("css-gw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut gw =
                LocalCooperationGateway::open(ActorId(1), FileBackend::open(&path).unwrap())
                    .unwrap();
            gw.register_schema(schema()).unwrap();
            gw.persist(&message(7)).unwrap();
        }
        let mut gw =
            LocalCooperationGateway::open(ActorId(1), FileBackend::open(&path).unwrap()).unwrap();
        gw.register_schema(schema()).unwrap();
        let resp = gw
            .get_response(SourceEventId(7), &allowed(&["PatientId"]), None)
            .unwrap();
        assert_eq!(resp.get("PatientId").unwrap(), &FieldValue::Integer(42));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn instrumented_gateway_records_algorithm2_metrics() {
        let registry = css_telemetry::MetricsRegistry::new();
        let mut gw = gateway();
        gw.instrument(&registry);
        gw.persist(&message(1)).unwrap();
        gw.persist(&message(2)).unwrap();
        gw.get_response(SourceEventId(1), &allowed(&["PatientId"]), None)
            .unwrap();
        // A failed lookup is not counted as a response.
        assert!(gw
            .get_response(SourceEventId(404), &allowed(&["PatientId"]), None)
            .is_err());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("gateway.persisted"), 2);
        assert_eq!(snap.counter("gateway.responses"), 1);
        assert_eq!(snap.histogram("gateway.persist").unwrap().count, 2);
        assert_eq!(snap.histogram("gateway.retrieve").unwrap().count, 1);
        assert_eq!(snap.histogram("gateway.filter").unwrap().count, 1);
    }

    #[test]
    fn traced_response_emits_algorithm2_stage_spans() {
        use css_trace::Tracer;
        use css_types::Timestamp;

        let mut gw = gateway();
        gw.persist(&message(1)).unwrap();
        let tracer = Tracer::new(64);
        let root = tracer.root("detail_request", Timestamp(5));
        let ctx = root.context();
        gw.get_response(SourceEventId(1), &allowed(&["PatientId"]), Some(&ctx))
            .unwrap();
        root.finish();

        let spans = tracer.finished_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for expected in ["gateway.retrieve", "gateway.parse", "gateway.filter"] {
            assert!(names.contains(&expected), "{names:?}");
        }
        assert!(spans.iter().all(|s| Some(s.trace) == ctx.trace_id()));
    }

    #[test]
    fn traced_miss_marks_retrieve_span_error() {
        use css_trace::{SpanStatus, Tracer};
        use css_types::Timestamp;

        let gw = gateway();
        let tracer = Tracer::new(64);
        let root = tracer.root("detail_request", Timestamp(5));
        let ctx = root.context();
        assert!(gw
            .get_response(SourceEventId(404), &allowed(&["PatientId"]), Some(&ctx))
            .is_err());
        root.finish();

        let spans = tracer.finished_spans();
        let retrieve = spans.iter().find(|s| s.name == "gateway.retrieve").unwrap();
        assert_eq!(retrieve.status, SpanStatus::Error);
        assert!(!spans.iter().any(|s| s.name == "gateway.parse"));
    }

    #[test]
    fn one_record_read_per_response() {
        let registry = css_telemetry::MetricsRegistry::new();
        let backend = css_storage::InstrumentedBackend::new(MemBackend::new(), &registry);
        let mut gw = LocalCooperationGateway::open(ActorId(1), backend).unwrap();
        gw.register_schema(schema()).unwrap();
        for src in 1..=3 {
            gw.persist(&message(src)).unwrap();
        }
        // `storage.read` counts the backend's `read_at` calls.
        let reads = || registry.snapshot().histogram("storage.read").unwrap().count;
        for src in 1..=3 {
            let before = reads();
            gw.get_response(SourceEventId(src), &allowed(&["PatientId"]), None)
                .unwrap();
            // One record, header and payload in one read.
            assert_eq!(reads() - before, 1, "src {src}");
        }
        let before = reads();
        assert!(gw
            .get_response(SourceEventId(404), &allowed(&["PatientId"]), None)
            .is_err());
        assert_eq!(reads(), before, "a miss reads nothing");
    }

    #[test]
    fn bad_stored_documents_keep_their_error_variants() {
        let dir = std::env::temp_dir().join(format!("css-gw-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut planted, _) =
                css_storage::KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
            let foreign = r#"<DetailMessage producer="actor-1"><X type="x-ray@v1" srcEventId="src-1"/></DetailMessage>"#;
            planted.put(b"detail:1", foreign.as_bytes()).unwrap();
            planted.put(b"detail:2", &[0xff, 0xfe, 0x00]).unwrap();
            planted
                .put(b"detail:3", b"<DetailMessage><unclosed>")
                .unwrap();
            planted.put(b"detail:4", b"<DetailMessage/>").unwrap();
            planted
                .put(
                    b"detail:5",
                    br#"<DetailMessage><X type="@@"/></DetailMessage>"#,
                )
                .unwrap();
            planted.sync().unwrap();
        }
        let mut gw =
            LocalCooperationGateway::open(ActorId(1), FileBackend::open(&path).unwrap()).unwrap();
        gw.register_schema(schema()).unwrap();
        let ask = |src| gw.get_response(SourceEventId(src), &allowed(&["PatientId"]), None);
        // Stored type without a registered schema.
        assert!(matches!(ask(1), Err(CssError::NotFound(m)) if m.contains("no schema registered")));
        // Not UTF-8, then not well-formed.
        assert!(matches!(ask(2), Err(CssError::Serialization(m)) if m.contains("UTF-8")));
        assert!(matches!(ask(3), Err(CssError::Serialization(_))));
        // No typed child at all reads as "no details".
        assert!(matches!(ask(4), Err(CssError::NotFound(m)) if m.contains("no details")));
        assert!(
            matches!(ask(5), Err(CssError::Serialization(m)) if m.contains("stored type malformed"))
        );
        assert!(matches!(ask(6), Err(CssError::NotFound(m)) if m.contains("no details")));
        // The E12 path starts from the same read and fails the same way.
        assert!(matches!(
            gw.query_source_directly(SourceEventId(1)),
            Err(CssError::NotFound(_))
        ));
        assert!(matches!(
            gw.query_source_directly(SourceEventId(2)),
            Err(CssError::Serialization(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multiple_event_types_coexist() {
        let mut gw = gateway();
        let discharge = EventSchema::new(
            EventTypeId::v1("hospital-discharge"),
            "Discharge",
            ActorId(1),
        )
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Ward", FieldKind::Text));
        gw.register_schema(discharge).unwrap();
        gw.persist(&message(1)).unwrap();
        let d2 = DetailMessage {
            src_event_id: SourceEventId(2),
            producer: ActorId(1),
            details: css_event::EventDetails::new(EventTypeId::v1("hospital-discharge"))
                .with("PatientId", FieldValue::Integer(7))
                .with("Ward", FieldValue::Text("geriatrics".into())),
        };
        gw.persist(&d2).unwrap();
        assert_eq!(gw.stored_count(), 2);
        let resp = gw
            .get_response(SourceEventId(2), &allowed(&["Ward"]), None)
            .unwrap();
        assert_eq!(
            resp.get("Ward").unwrap(),
            &FieldValue::Text("geriatrics".into())
        );
        assert_eq!(resp.get("PatientId").unwrap(), &FieldValue::Empty);
    }
}
