//! Audit records: one structured entry per platform action.

use css_trace::TraceId;
use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, Purpose, RequestId,
    Timestamp,
};
use css_xml::{Element, Names, TreeSink, TreeSource, XmlSink, XmlSource};

/// The kind of action an audit record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditAction {
    /// A producer published a notification.
    Publish,
    /// A consumer subscribed (or tried to) to a class of events.
    Subscribe,
    /// A notification was delivered to a consumer.
    Delivery,
    /// A consumer inquired the events index.
    IndexInquiry,
    /// A consumer requested the details of an event.
    DetailRequest,
    /// A data subject changed their consent.
    ConsentChange,
    /// A producer defined or updated a privacy policy.
    PolicyChange,
    /// A participant joined the platform (signed a contract).
    ContractSigned,
    /// A data subject exercised their right of access (viewed their own
    /// profile or audit trail).
    SubjectAccess,
}

impl AuditAction {
    /// Every action, in declaration order: the order of
    /// [`AuditAction::CODES`].
    const ALL: [AuditAction; 9] = [
        AuditAction::Publish,
        AuditAction::Subscribe,
        AuditAction::Delivery,
        AuditAction::IndexInquiry,
        AuditAction::DetailRequest,
        AuditAction::ConsentChange,
        AuditAction::PolicyChange,
        AuditAction::ContractSigned,
        AuditAction::SubjectAccess,
    ];

    /// The stable serialization code of each action, in declaration
    /// order. The binary form stores the position, so the list only
    /// ever grows at the end.
    const CODES: [&'static str; 9] = [
        "publish",
        "subscribe",
        "delivery",
        "index-inquiry",
        "detail-request",
        "consent-change",
        "policy-change",
        "contract-signed",
        "subject-access",
    ];

    /// Stable code used in serialization.
    pub fn code(self) -> &'static str {
        Self::CODES[self as usize]
    }

    /// Whether the action is a control change: a policy or consent
    /// change, whose record carries the change itself. These records
    /// are the control journal the controller folds at open.
    pub(crate) fn is_control(self) -> bool {
        matches!(self, AuditAction::PolicyChange | AuditAction::ConsentChange)
    }
}

/// How the action ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The action succeeded / was permitted.
    Permitted,
    /// The action was denied, with the coarse reason string.
    Denied(String),
}

impl AuditOutcome {
    /// Whether the outcome is a permit.
    pub fn is_permitted(&self) -> bool {
        matches!(self, AuditOutcome::Permitted)
    }
}

/// One audit entry. Optional dimensions are `None` when not applicable
/// (e.g. a contract signing has no event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Position in the log; assigned at append time.
    pub seq: u64,
    /// When the action happened (controller clock).
    pub at: Timestamp,
    /// The acting party.
    pub actor: ActorId,
    /// What kind of action.
    pub action: AuditAction,
    /// The event involved, if any.
    pub event: Option<GlobalEventId>,
    /// The class of event involved, if any.
    pub event_type: Option<EventTypeId>,
    /// The data subject involved, if any.
    pub person: Option<PersonId>,
    /// The stated purpose, if any.
    pub purpose: Option<Purpose>,
    /// The correlated request, if any.
    pub request: Option<RequestId>,
    /// The causal trace this action belongs to, if tracing was enabled
    /// — the join key between the audit log and the span collector.
    pub trace: Option<TraceId>,
    /// Outcome.
    pub outcome: AuditOutcome,
    /// Free-form detail (e.g. matched policy ids).
    pub detail: String,
}

impl AuditRecord {
    /// A permitted record with the mandatory dimensions; extend via the
    /// builder methods.
    pub fn new(at: Timestamp, actor: ActorId, action: AuditAction) -> Self {
        AuditRecord {
            seq: 0,
            at,
            actor,
            action,
            event: None,
            event_type: None,
            person: None,
            purpose: None,
            request: None,
            trace: None,
            outcome: AuditOutcome::Permitted,
            detail: String::new(),
        }
    }

    /// Builder: the event involved.
    pub fn event(mut self, id: GlobalEventId) -> Self {
        self.event = Some(id);
        self
    }

    /// Builder: the event class involved.
    pub fn event_type(mut self, ty: EventTypeId) -> Self {
        self.event_type = Some(ty);
        self
    }

    /// Builder: the data subject involved.
    pub fn person(mut self, id: PersonId) -> Self {
        self.person = Some(id);
        self
    }

    /// Builder: the stated purpose.
    pub fn purpose(mut self, p: Purpose) -> Self {
        self.purpose = Some(p);
        self
    }

    /// Builder: the correlated request id.
    pub fn request(mut self, id: RequestId) -> Self {
        self.request = Some(id);
        self
    }

    /// Builder: the causal trace (absent when the trace id is `None`,
    /// i.e. when tracing is disabled — builders stay one-liners at the
    /// call sites either way).
    pub fn trace(mut self, id: Option<TraceId>) -> Self {
        self.trace = id;
        self
    }

    /// Builder: mark denied with a reason.
    pub fn denied(mut self, reason: impl Into<String>) -> Self {
        self.outcome = AuditOutcome::Denied(reason.into());
        self
    }

    /// Builder: attach free-form detail.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Write the persistence form into `sink` — the one encoder: the
    /// log writes it in the binary form
    /// ([`css_xml::BinarySink`]), [`AuditRecord::to_xml`] builds the
    /// tree of the XML form from it.
    pub fn encode(&self, sink: &mut impl XmlSink) {
        sink.open("AuditRecord");
        sink.attr_int("seq", self.seq);
        sink.attr_int("at", self.at.as_millis());
        sink.attr_int("actor", self.actor);
        sink.attr_keyword("action", &AuditAction::CODES, self.action as usize);
        if let Some(id) = self.event {
            sink.attr_int("event", id);
        }
        if let Some(ty) = &self.event_type {
            sink.attr("eventType", ty);
        }
        if let Some(p) = self.person {
            sink.attr_int("person", p);
        }
        if let Some(p) = &self.purpose {
            sink.attr("purpose", p.code());
        }
        if let Some(r) = self.request {
            sink.attr_int("request", r);
        }
        if let Some(t) = self.trace {
            sink.attr_int("trace", t);
        }
        match &self.outcome {
            AuditOutcome::Permitted => sink.attr_keyword("outcome", &OUTCOMES, 0),
            AuditOutcome::Denied(reason) => {
                sink.attr_keyword("outcome", &OUTCOMES, 1);
                sink.attr("reason", reason);
            }
        }
        if !self.detail.is_empty() {
            sink.leaf("Detail", &self.detail);
        }
        sink.close();
    }

    /// The XML persistence form as a tree.
    pub fn to_xml(&self) -> Element {
        TreeSink::build(|tree| self.encode(tree))
    }

    /// Parse from the XML persistence form: the decoder fed from the
    /// tree.
    pub fn from_xml(e: &Element) -> CssResult<Self> {
        Self::decode(&mut TreeSource::new(e))
    }

    /// The one decoder: read the record off `src`, to the end of the
    /// document. Log replay and audit queries feed it the stored
    /// payload, text or binary ([`css_xml::Stored`]).
    pub fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("AuditRecord: {msg}"));
        src.root_named("AuditRecord", bad)?;
        let (attrs, token) = src.attributes([
            "seq",
            "at",
            "actor",
            "action",
            "event",
            "eventType",
            "person",
            "purpose",
            "request",
            "trace",
            "outcome",
            "reason",
        ])?;
        let mut detail = None;
        src.children(["Detail"], token, |src, _, _| {
            detail = Some(src.text_content()?.into_owned());
            Ok(())
        })?;
        src.finish()?;
        let missing = |attr: &str| bad(format!("missing {attr}"));
        let seq: u64 = attrs
            .int("seq")
            .ok_or_else(|| missing("seq"))?
            .map_err(|x| bad(format!("bad seq: {x}")))?;
        let at = Timestamp(
            attrs
                .int("at")
                .ok_or_else(|| missing("at"))?
                .map_err(|x| bad(format!("bad at: {x}")))?,
        );
        let actor: ActorId = attrs
            .int("actor")
            .ok_or_else(|| missing("actor"))?
            .map_err(|x| bad(format!("bad actor: {x}")))?;
        let action = attrs
            .keyword("action", &AuditAction::CODES)
            .ok_or_else(|| missing("action"))?
            .map(|at| AuditAction::ALL[at])
            .ok_or_else(|| bad(format!("unknown action {:?}", attrs.get("action"))))?;
        let event = attrs
            .int::<GlobalEventId>("event")
            .transpose()
            .map_err(|x| bad(format!("bad event: {x}")))?;
        let event_type = attrs
            .get("eventType")
            .map(EventTypeId::from_canonical)
            .transpose()
            .map_err(|x| bad(format!("bad eventType: {x}")))?;
        let person = attrs
            .int::<PersonId>("person")
            .transpose()
            .map_err(|x| bad(format!("bad person: {x}")))?;
        let purpose = attrs.get("purpose").map(Purpose::from_code);
        let request = attrs
            .int::<RequestId>("request")
            .transpose()
            .map_err(|x| bad(format!("bad request: {x}")))?;
        let trace = attrs
            .int::<TraceId>("trace")
            .transpose()
            .map_err(|x| bad(format!("bad trace: {x}")))?;
        let outcome = match attrs.keyword("outcome", &OUTCOMES) {
            None => return Err(missing("outcome")),
            Some(Some(0)) => AuditOutcome::Permitted,
            Some(Some(_)) => AuditOutcome::Denied(attrs.get("reason").unwrap_or("").to_string()),
            Some(None) => {
                let other = attrs.get("outcome").unwrap_or_default();
                return Err(bad(format!("unknown outcome {other:?}")));
            }
        };
        Ok(AuditRecord {
            seq,
            at,
            actor,
            action,
            event,
            event_type,
            person,
            purpose,
            request,
            trace,
            outcome,
            detail: detail.unwrap_or_default(),
        })
    }
}

/// The codes of [`AuditOutcome`]'s two variants, in declaration order.
const OUTCOMES: [&str; 2] = ["permitted", "denied"];

/// Every element and attribute name of the persistence form, in
/// binary code order: the dictionary of the audit log's binary
/// payloads. It only ever grows at the end.
pub(crate) const NAMES: Names = Names::new(&[
    "AuditRecord",
    "seq",
    "at",
    "actor",
    "action",
    "event",
    "eventType",
    "person",
    "purpose",
    "request",
    "trace",
    "outcome",
    "reason",
    "Detail",
]);

#[cfg(test)]
mod tests {
    use super::*;

    fn full_record() -> AuditRecord {
        let mut r = AuditRecord::new(Timestamp(123), ActorId(4), AuditAction::DetailRequest)
            .event(GlobalEventId(9))
            .event_type(EventTypeId::v1("blood-test"))
            .person(PersonId(2))
            .purpose(Purpose::HealthcareTreatment)
            .request(RequestId(55))
            .trace(Some(TraceId::mint(123, 1)))
            .with_detail("matched pol-00000001");
        r.seq = 17;
        r
    }

    #[test]
    fn xml_roundtrip_full() {
        let r = full_record();
        let text = css_xml::to_string(&r.to_xml());
        let back = AuditRecord::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn xml_roundtrip_minimal() {
        let r = AuditRecord::new(Timestamp(0), ActorId(1), AuditAction::ContractSigned);
        let back = AuditRecord::from_xml(&r.to_xml()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn xml_roundtrip_denied() {
        let r = AuditRecord::new(Timestamp(5), ActorId(2), AuditAction::Subscribe)
            .denied("no matching policy");
        let back = AuditRecord::from_xml(&r.to_xml()).unwrap();
        assert_eq!(
            back.outcome,
            AuditOutcome::Denied("no matching policy".into())
        );
        assert!(!back.outcome.is_permitted());
    }

    #[test]
    fn action_codes_roundtrip() {
        for (at, action) in AuditAction::ALL.into_iter().enumerate() {
            assert_eq!(action as usize, at);
            let code = AuditAction::CODES.iter().position(|c| *c == action.code());
            assert_eq!(code, Some(at), "{action:?}");
        }
    }

    #[test]
    fn from_xml_rejects_malformed() {
        assert!(AuditRecord::from_xml(&Element::new("Wrong")).is_err());
        let missing = css_xml::parse(r#"<AuditRecord seq="1"/>"#).unwrap();
        assert!(AuditRecord::from_xml(&missing).is_err());
        let bad_action = css_xml::parse(
            r#"<AuditRecord seq="1" at="0" actor="act-00000001" action="espionage" outcome="permitted"/>"#,
        )
        .unwrap();
        assert!(AuditRecord::from_xml(&bad_action).is_err());
    }

    fn streamed(r: &AuditRecord) -> String {
        let mut out = String::new();
        r.encode(&mut css_xml::StreamSink::new(&mut out));
        out
    }

    /// Bytes `css_xml::to_string(&r.to_xml())` produced at the last
    /// commit that built the tree on the write path: the encoder must
    /// keep producing them, streamed or through the tree.
    #[test]
    fn encodings_match_pinned_bytes() {
        let mut full = AuditRecord::new(
            Timestamp(1_700_000_000_123),
            ActorId(4),
            AuditAction::DetailRequest,
        )
        .event(GlobalEventId(9))
        .event_type(EventTypeId::v1("blood-test"))
        .person(PersonId(2))
        .purpose(Purpose::HealthcareTreatment)
        .request(RequestId(55))
        .trace(Some(TraceId::mint(123, 1)));
        full.seq = 17;
        let mut denied =
            AuditRecord::new(Timestamp(5), ActorId(12_345_678_901), AuditAction::Publish)
                .person(PersonId(3))
                .purpose(Purpose::Custom("trial \"x\" & <y>".into()))
                .denied("gateway failure: \"src-00000007\" <not found> & 'gone'");
        denied.seq = u64::MAX;
        let detailed = AuditRecord::new(Timestamp(0), ActorId(1), AuditAction::IndexInquiry)
            .with_detail("matched pol-00000001 & <pol-00000002>; \"2\" events returned");
        let pinned = [
            "<AuditRecord seq=\"17\" at=\"1700000000123\" actor=\"act-00000004\" action=\"detail-request\" event=\"evt-00000009\" eventType=\"blood-test@v1\" person=\"per-00000002\" purpose=\"healthcare-treatment\" request=\"req-00000055\" trace=\"0000007b00000001\" outcome=\"permitted\"/>",
            "<AuditRecord seq=\"18446744073709551615\" at=\"5\" actor=\"act-12345678901\" action=\"publish\" person=\"per-00000003\" purpose=\"trial &quot;x&quot; &amp; &lt;y&gt;\" outcome=\"denied\" reason=\"gateway failure: &quot;src-00000007&quot; &lt;not found&gt; &amp; &apos;gone&apos;\"/>",
            "<AuditRecord seq=\"0\" at=\"0\" actor=\"act-00000001\" action=\"index-inquiry\" outcome=\"permitted\"><Detail>matched pol-00000001 &amp; &lt;pol-00000002&gt;; \"2\" events returned</Detail></AuditRecord>",
        ];
        for (record, bytes) in [full, denied, detailed].iter().zip(pinned) {
            assert_eq!(streamed(record), bytes);
            assert_eq!(css_xml::to_string(&record.to_xml()), bytes);
        }
    }

    fn binary(r: &AuditRecord) -> Vec<u8> {
        let mut out = Vec::new();
        r.encode(&mut css_xml::BinarySink::new(&mut out, NAMES));
        out
    }

    /// What the log reads back from a stored payload, in either form.
    fn stored(payload: &[u8]) -> CssResult<AuditRecord> {
        AuditRecord::decode(&mut css_xml::Stored::open(payload, NAMES)?)
    }

    /// The binary form of one record, byte for byte: what an audit
    /// shard stores for it.
    #[test]
    fn binary_form_matches_pinned_bytes() {
        let mut r = AuditRecord::new(Timestamp(300), ActorId(4), AuditAction::Delivery)
            .event(GlobalEventId(9))
            .event_type(EventTypeId::v1("visit"))
            .person(PersonId(2))
            .trace(Some(TraceId(1)))
            .denied("no");
        r.seq = 17;
        assert_eq!(
            binary(&r),
            [
                0x01, 0x20, // format byte, <AuditRecord
                0x61, 17, 0x62, 0xac, 0x02, 0x63, 4, 0x64, 2, // seq, at, actor, action
                0x65, 9, 0x46, 8, b'v', b'i', b's', b'i', b't', b'@', b'v',
                b'1', // event, type
                0x67, 2, 0x6a, 1, // person, trace
                0x6b, 1, 0x4c, 2, b'n', b'o', // outcome, reason
                0x00, // />
            ]
        );
        assert_eq!(stored(&binary(&r)).unwrap(), r);
    }

    /// Cut short anywhere, or with any one byte flipped, a stored
    /// binary record reads as an error or as another record — never as
    /// itself, and never as a panic.
    #[test]
    fn damaged_binary_records_never_read_as_themselves() {
        let mut denied = full_record().denied("gateway failure");
        denied.seq = 1 << 40;
        for record in [full_record(), denied] {
            let payload = binary(&record);
            for cut in 0..payload.len() {
                assert!(stored(&payload[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..payload.len() {
                for mask in 1..=255u8 {
                    let mut flipped = payload.clone();
                    flipped[at] ^= mask;
                    if let Ok(read) = stored(&flipped) {
                        assert_ne!(read, record, "byte {at} ^ {mask:#04x}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn streamed_equals_tree_for_any_record(
            (seq, at, actor) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            dims in proptest::collection::vec(proptest::option::of(0u64..1_000_000_000_000), 5),
            code in "[a-z][a-z0-9-]{0,12}",
            reason in proptest::option::of("[ -~]{0,40}"),
            detail in "[ -~]{0,40}",
        ) {
            let mut r = AuditRecord::new(Timestamp(at), ActorId(actor), AuditAction::DetailRequest)
                .with_detail(detail)
                .trace(dims[4].map(|t| TraceId::mint(t, t + 1)));
            r.seq = seq;
            r.event = dims[0].map(GlobalEventId);
            r.event_type = dims[1].map(|v| EventTypeId::new(code.clone(), v as u32 % 9 + 1));
            r.person = dims[2].map(PersonId);
            r.request = dims[3].map(RequestId);
            r.purpose = dims[0].map(|_| Purpose::Custom(code.clone()));
            if let Some(reason) = reason {
                r = r.denied(reason);
            }
            proptest::prop_assert_eq!(streamed(&r), css_xml::to_string(&r.to_xml()));
            // The binary form reads back as the XML form does.
            proptest::prop_assert_eq!(
                stored(&binary(&r)).unwrap(),
                stored(streamed(&r).as_bytes()).unwrap()
            );
        }
    }
}
