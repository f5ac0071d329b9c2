//! The gateway proper: schema registry + detail store + Algorithm 2.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use css_event::{DetailDecoder, DetailMessage, EventDetails, EventSchema, InstanceNames};
use css_storage::LogBackend;
use css_telemetry::{Counter, Histogram, MetricsRegistry};
use css_trace::{SpanStatus, TraceContext};
use css_types::{ActorId, CssError, CssResult, EventTypeId, SourceEventId};
use css_xml::Reader;

use crate::store::DetailStore;

/// Cached telemetry handles for the gateway's Algorithm 2 path. Always
/// present: without a registry they are detached cells nobody reads.
#[derive(Default)]
struct GatewayInstruments {
    /// `gateway.persist` — schema validation + store append.
    persist_latency: Histogram,
    /// `gateway.retrieve` — record load + the filtered decode of it.
    retrieve_latency: Histogram,
    /// `gateway.filter` — the privacy postcondition on what was decoded.
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

/// A declared schema and the strings every decode of one of its
/// instances compares against, derived once at registration.
struct Registered {
    schema: EventSchema,
    names: InstanceNames,
}

/// Header step of a stored document's decoder, over the bytes where
/// they lie: UTF-8 check, then the tokens up to the stored type. The
/// decoder and that type text; `None` when there is no document, or
/// none with a typed element in it.
fn typed(
    stored: &Option<Vec<u8>>,
) -> CssResult<Option<(DetailDecoder<'_, Reader<'_>>, Cow<'_, str>)>> {
    let Some(bytes) = stored else {
        return Ok(None);
    };
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CssError::Serialization(format!("detail message not UTF-8: {e}")))?;
    let decoder = DetailDecoder::open(Reader::new(text))?;
    Ok(decoder.stored_type().map(|ty| (decoder, ty)))
}

/// The producer-side gateway.
///
/// Holds the producer's declared schemas, persists every detail message
/// at notification time, and answers the data controller's
/// `getResponse(src_eID, F)` calls with field-filtered details from
/// its own store, so the source system behind it is never asked.
pub struct LocalCooperationGateway<B: LogBackend> {
    producer: ActorId,
    /// The declared schemas; the two maps below index them.
    schemas: Vec<Registered>,
    by_id: HashMap<EventTypeId, usize>,
    /// By canonical type text, which is how stored documents name
    /// their schema.
    by_type_text: HashMap<String, usize>,
    store: DetailStore<B>,
    telemetry: GatewayInstruments,
}

impl<B: LogBackend> LocalCooperationGateway<B> {
    /// Open a gateway for `producer` over a storage backend.
    pub fn open(producer: ActorId, backend: B) -> CssResult<Self> {
        Ok(LocalCooperationGateway {
            producer,
            schemas: Vec::new(),
            by_id: HashMap::new(),
            by_type_text: HashMap::new(),
            store: DetailStore::open(backend)?,
            telemetry: GatewayInstruments::default(),
        })
    }

    /// Record persist/retrieve/filter latencies and throughput counters
    /// into `registry` under `gateway.*` names. Several gateways may
    /// share one registry; their metrics aggregate.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.telemetry = GatewayInstruments::resolve(registry);
    }

    /// Register (or replace) a schema the producer declared.
    pub fn register_schema(&mut self, schema: EventSchema) -> CssResult<()> {
        if schema.producer != self.producer {
            return Err(CssError::Invalid(format!(
                "schema {} belongs to {}, not to this gateway's producer {}",
                schema.id, schema.producer, self.producer
            )));
        }
        let names = schema.instance_names();
        match self.by_id.get(&schema.id) {
            Some(&slot) => self.schemas[slot] = Registered { schema, names },
            None => {
                let slot = self.schemas.len();
                self.by_id.insert(schema.id.clone(), slot);
                self.by_type_text.insert(names.type_text.clone(), slot);
                self.schemas.push(Registered { schema, names });
            }
        }
        Ok(())
    }

    /// Schema for an event type, if registered.
    pub fn schema(&self, ty: &EventTypeId) -> Option<&EventSchema> {
        self.by_id.get(ty).map(|&slot| &self.schemas[slot].schema)
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
            .by_id
            .get(&message.details.event_type)
            .map(|&slot| &self.schemas[slot].schema)
            .ok_or_else(|| {
                CssError::NotFound(format!(
                    "no schema registered for {}",
                    message.details.event_type
                ))
            })?;
        schema.validate(&message.details)?;
        let started = Instant::now();
        let out = self.store.persist(schema, message);
        let t = &self.telemetry;
        t.persist_latency.record_duration(started.elapsed());
        if out.is_ok() {
            t.persisted.inc();
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
    /// Step 2 happens *in* the parse of step 1's record: one streaming
    /// decode builds the values of the fields in `F` and nothing else —
    /// a field outside `F` is checked against its declared kind and
    /// left blank, never held — and reads the document to its end
    /// before anything is returned.
    ///
    /// When `ctx` is given the call continues the caller's trace with
    /// one child span per stage: `gateway.retrieve` (the one read of
    /// the stored record, up to the stored type it names),
    /// `gateway.parse` (schema resolution + the filtered decode of
    /// that same record), `gateway.filter` (the privacy postcondition).
    pub fn get_response(
        &self,
        src_event_id: SourceEventId,
        allowed: &BTreeSet<String>,
        ctx: Option<&TraceContext>,
    ) -> CssResult<EventDetails> {
        let started = Instant::now();
        let mut retrieve = TraceContext::child_opt(ctx, "gateway.retrieve");
        let stored = self.store.stored(src_event_id)?;
        let Some((decoder, ty_text)) = typed(&stored)? else {
            retrieve.set_status(SpanStatus::Error);
            return Err(CssError::NotFound(format!("no details for {src_event_id}")));
        };
        retrieve.finish();
        let mut parse = TraceContext::child_opt(ctx, "gateway.parse");
        let decoded = self.schema_named(&ty_text).and_then(|registered| {
            decoder.finish(&registered.schema, &registered.names, |field| {
                allowed.contains(field)
            })
        });
        let filtered = match decoded {
            Ok(message) => message.details,
            Err(e) => {
                parse.set_status(SpanStatus::Error);
                return Err(e);
            }
        };
        parse.finish();
        let retrieved = Instant::now();
        let filter = TraceContext::child_opt(ctx, "gateway.filter");
        assert!(
            filtered.is_privacy_safe(allowed),
            "gateway postcondition: response must be privacy safe"
        );
        filter.finish();
        let t = &self.telemetry;
        t.retrieve_latency
            .record_duration(retrieved.duration_since(started));
        t.filter_latency.record_duration(retrieved.elapsed());
        t.responses.inc();
        Ok(filtered)
    }

    /// The registered schema a stored type text names. Stored documents
    /// spell the type canonically, so the text is the key; one that
    /// misses is parsed, to say — as ever — whether it is no type at
    /// all or a type nobody registered.
    fn schema_named(&self, ty_text: &str) -> CssResult<&Registered> {
        if let Some(&slot) = self.by_type_text.get(ty_text) {
            return Ok(&self.schemas[slot]);
        }
        let ty: EventTypeId = ty_text
            .parse()
            .map_err(|e| CssError::Serialization(format!("stored type malformed: {e}")))?;
        self.by_id
            .get(&ty)
            .map(|&slot| &self.schemas[slot])
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
        let _ = std::fs::remove_file(&path);
    }

    /// A gateway (blood-test schema registered) over a store holding
    /// `documents` verbatim, whatever they are.
    fn gateway_over(name: &str, documents: &[&str]) -> LocalCooperationGateway<FileBackend> {
        let dir = std::env::temp_dir().join(format!("css-gw-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.log");
        let _ = std::fs::remove_file(&path);
        let (mut planted, _) =
            css_storage::KvStore::open(FileBackend::open(&path).unwrap()).unwrap();
        for (i, document) in documents.iter().enumerate() {
            let key = format!("detail:{}", i + 1);
            planted.put(key.as_bytes(), document.as_bytes()).unwrap();
        }
        planted.sync().unwrap();
        drop(planted);
        let mut gw =
            LocalCooperationGateway::open(ActorId(1), FileBackend::open(&path).unwrap()).unwrap();
        gw.register_schema(schema()).unwrap();
        let _ = std::fs::remove_file(&path);
        gw
    }

    fn stored_document(fields: &str) -> String {
        format!(
            r#"<DetailMessage producer="act-00000001"><BloodTest type="blood-test@v1" srcEventId="src-00000001">{fields}</BloodTest></DetailMessage>"#
        )
    }

    #[test]
    fn a_disallowed_value_is_never_in_the_response() {
        const MARKER: &str = "MARKER-7f3a";
        let gw = gateway_over(
            "marker",
            &[&stored_document(&format!(
                "<PatientId>42</PatientId><Result>{MARKER}</Result><Notes><![CDATA[{MARKER}]]> &amp; {MARKER}</Notes>"
            ))],
        );
        let resp = gw
            .get_response(SourceEventId(1), &allowed(&["PatientId"]), None)
            .unwrap();
        assert_eq!(resp.get("PatientId").unwrap(), &FieldValue::Integer(42));
        assert_eq!(resp.get("Result").unwrap(), &FieldValue::Empty);
        assert_eq!(resp.get("Notes").unwrap(), &FieldValue::Empty);
        assert!(!format!("{resp:?}").contains(MARKER));
        // Allowed, the same bytes are the value.
        let resp = gw
            .get_response(SourceEventId(1), &allowed(&["Notes"]), None)
            .unwrap();
        assert_eq!(
            resp.get("Notes").unwrap(),
            &FieldValue::Text(format!("{MARKER} & {MARKER}"))
        );
    }

    #[test]
    fn a_corrupt_disallowed_field_still_fails_the_request() {
        let gw = gateway_over(
            "corrupt",
            &[
                &stored_document("<PatientId>forty-two</PatientId><Result>negative</Result>"),
                &stored_document("<PatientId>42</PatientId><Undeclared>x</Undeclared>"),
            ],
        );
        // PatientId is outside the allowed set, and checked all the same.
        let err = gw
            .get_response(SourceEventId(1), &allowed(&["Result"]), None)
            .unwrap_err();
        assert!(matches!(err, CssError::Serialization(m) if m.contains("bad integer")));
        let err = gw
            .get_response(SourceEventId(2), &allowed(&["PatientId"]), None)
            .unwrap_err();
        assert!(matches!(err, CssError::Serialization(m) if m.contains("undeclared field")));
    }

    #[test]
    fn nothing_is_released_from_a_document_malformed_after_its_last_field() {
        let whole = stored_document("<PatientId>42</PatientId><Result>negative</Result>");
        let cut_in_end_tag = &whole[..whole.len() - 3];
        let cut_after_instance = &whole[..whole.len() - "</DetailMessage>".len()];
        let trailing = format!("{whole}<More/>");
        let gw = gateway_over(
            "truncated",
            &[&whole, cut_in_end_tag, cut_after_instance, &trailing],
        );
        let ask = |src| gw.get_response(SourceEventId(src), &allowed(&["PatientId"]), None);
        assert!(ask(1).is_ok());
        for src in 2..=4 {
            assert!(
                matches!(ask(src), Err(CssError::Serialization(m)) if m.contains("XML parse error")),
                "document {src}"
            );
        }
    }

    #[test]
    fn reregistering_a_schema_replaces_it() {
        let mut gw = gateway();
        gw.persist(&message(1)).unwrap();
        let narrower = EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", ActorId(1))
            .field(FieldDef::required("PatientId", FieldKind::Integer));
        gw.register_schema(narrower).unwrap();
        assert_eq!(
            gw.schema(&EventTypeId::v1("blood-test"))
                .unwrap()
                .fields
                .len(),
            1
        );
        // The stored document now holds fields the schema does not declare.
        assert!(matches!(
            gw.get_response(SourceEventId(1), &allowed(&["PatientId"]), None),
            Err(CssError::Serialization(m)) if m.contains("undeclared field")
        ));
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
