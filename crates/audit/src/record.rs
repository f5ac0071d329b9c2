//! Audit records: one structured entry per platform action.

use css_trace::TraceId;
use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, Purpose, RequestId,
    Timestamp,
};
use css_xml::{Element, TreeSink, TreeSource, XmlSink, XmlSource};

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
    /// Stable code used in serialization.
    pub fn code(self) -> &'static str {
        match self {
            AuditAction::Publish => "publish",
            AuditAction::Subscribe => "subscribe",
            AuditAction::Delivery => "delivery",
            AuditAction::IndexInquiry => "index-inquiry",
            AuditAction::DetailRequest => "detail-request",
            AuditAction::ConsentChange => "consent-change",
            AuditAction::PolicyChange => "policy-change",
            AuditAction::ContractSigned => "contract-signed",
            AuditAction::SubjectAccess => "subject-access",
        }
    }

    fn from_code(s: &str) -> Option<Self> {
        Some(match s {
            "publish" => AuditAction::Publish,
            "subscribe" => AuditAction::Subscribe,
            "delivery" => AuditAction::Delivery,
            "index-inquiry" => AuditAction::IndexInquiry,
            "detail-request" => AuditAction::DetailRequest,
            "consent-change" => AuditAction::ConsentChange,
            "policy-change" => AuditAction::PolicyChange,
            "contract-signed" => AuditAction::ContractSigned,
            "subject-access" => AuditAction::SubjectAccess,
            _ => return None,
        })
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

    /// Write the XML persistence form into `sink` — the one encoder:
    /// the log streams it to the bytes it frames, [`AuditRecord::to_xml`]
    /// builds the tree from it.
    pub fn encode(&self, sink: &mut impl XmlSink) {
        sink.open("AuditRecord");
        sink.attr("seq", self.seq);
        sink.attr("at", self.at.as_millis());
        sink.attr("actor", self.actor);
        sink.attr("action", self.action.code());
        if let Some(id) = self.event {
            sink.attr("event", id);
        }
        if let Some(ty) = &self.event_type {
            sink.attr("eventType", ty);
        }
        if let Some(p) = self.person {
            sink.attr("person", p);
        }
        if let Some(p) = &self.purpose {
            sink.attr("purpose", p.code());
        }
        if let Some(r) = self.request {
            sink.attr("request", r);
        }
        if let Some(t) = self.trace {
            sink.attr("trace", t);
        }
        match &self.outcome {
            AuditOutcome::Permitted => sink.attr("outcome", "permitted"),
            AuditOutcome::Denied(reason) => {
                sink.attr("outcome", "denied");
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
    /// document. Log replay feeds it the stored text.
    pub fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("AuditRecord: {msg}"));
        let root = src.root()?;
        if root != "AuditRecord" {
            return Err(bad(format!("wrong root <{root}>")));
        }
        let (attrs, mut token) = src.attributes([
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
        while let Some(child) = src.child(token)? {
            match child {
                "Detail" if detail.is_none() => {
                    detail = Some(src.text_content()?.into_owned());
                }
                _ => src.skip_element()?,
            }
            token = src.next()?;
        }
        src.finish()?;
        let opt = |attr: &str| attrs.get(attr);
        let req = |attr: &str| opt(attr).ok_or_else(|| bad(format!("missing {attr}")));
        let seq: u64 = req("seq")?
            .parse()
            .map_err(|x| bad(format!("bad seq: {x}")))?;
        let at = Timestamp(
            req("at")?
                .parse()
                .map_err(|x| bad(format!("bad at: {x}")))?,
        );
        let actor: ActorId = req("actor")?
            .parse()
            .map_err(|x| bad(format!("bad actor: {x}")))?;
        let action = AuditAction::from_code(req("action")?)
            .ok_or_else(|| bad(format!("unknown action {:?}", opt("action"))))?;
        let event = opt("event")
            .map(|s| s.parse::<GlobalEventId>())
            .transpose()
            .map_err(|x| bad(format!("bad event: {x}")))?;
        let event_type = opt("eventType")
            .map(|s| s.parse::<EventTypeId>())
            .transpose()
            .map_err(|x| bad(format!("bad eventType: {x}")))?;
        let person = opt("person")
            .map(|s| s.parse::<PersonId>())
            .transpose()
            .map_err(|x| bad(format!("bad person: {x}")))?;
        let purpose = opt("purpose").map(Purpose::from_code);
        let request = opt("request")
            .map(|s| s.parse::<RequestId>())
            .transpose()
            .map_err(|x| bad(format!("bad request: {x}")))?;
        let trace = opt("trace")
            .map(|s| s.parse::<TraceId>())
            .transpose()
            .map_err(|x| bad(format!("bad trace: {x}")))?;
        let outcome = match req("outcome")? {
            "permitted" => AuditOutcome::Permitted,
            "denied" => AuditOutcome::Denied(opt("reason").unwrap_or("").to_string()),
            other => return Err(bad(format!("unknown outcome {other:?}"))),
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
        for a in [
            AuditAction::Publish,
            AuditAction::Subscribe,
            AuditAction::Delivery,
            AuditAction::IndexInquiry,
            AuditAction::DetailRequest,
            AuditAction::ConsentChange,
            AuditAction::PolicyChange,
            AuditAction::ContractSigned,
            AuditAction::SubjectAccess,
        ] {
            assert_eq!(AuditAction::from_code(a.code()), Some(a));
        }
        assert_eq!(AuditAction::from_code("espionage"), None);
    }

    #[test]
    fn from_xml_rejects_malformed() {
        assert!(AuditRecord::from_xml(&Element::new("Wrong")).is_err());
        let missing = Element::new("AuditRecord").attr("seq", "1");
        assert!(AuditRecord::from_xml(&missing).is_err());
        let bad_action = Element::new("AuditRecord")
            .attr("seq", "1")
            .attr("at", "0")
            .attr("actor", "act-00000001")
            .attr("action", "espionage")
            .attr("outcome", "permitted");
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
        }
    }
}
