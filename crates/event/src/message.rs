//! Detail messages and privacy-aware responses.

use std::borrow::Cow;
use std::collections::BTreeSet;

use css_types::{ActorId, CssError, CssResult, GlobalEventId, SourceEventId};
use css_xml::{Element, Token, TreeSink, TreeSource, XmlSink, XmlSource};

use crate::details::{EventDetails, InstanceTag};
use crate::schema::{EventSchema, InstanceNames};

/// The sensitive half of an event. It is persisted by the producer's
/// Local Cooperation Gateway and never leaves the producer unfiltered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailMessage {
    /// Producer-local identifier of the event (`src_eID`).
    pub src_event_id: SourceEventId,
    /// Producer that generated the event.
    pub producer: ActorId,
    /// The full payload.
    pub details: EventDetails,
}

impl DetailMessage {
    /// Write the XML form into `sink`, using the schema's element
    /// naming — the one encoder: the gateway streams it to the bytes
    /// it stores, [`DetailMessage::to_xml`] builds the tree from it.
    pub fn encode(&self, schema: &EventSchema, sink: &mut impl XmlSink) {
        sink.open("DetailMessage");
        sink.attr("producer", self.producer);
        self.details.encode(schema, Some(self.src_event_id), sink);
        sink.close();
    }

    /// The XML form as a tree.
    pub fn to_xml(&self, schema: &EventSchema) -> Element {
        TreeSink::build(|tree| self.encode(schema, tree))
    }

    /// Parse from the XML form: the decoder fed from the tree.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        DetailDecoder::open(TreeSource::new(e))?.finish(schema, &schema.instance_names(), |_| true)
    }
}

/// The one decoder of a [`DetailMessage`], stopped after its header
/// step: the root's start tag and that of its first child element are
/// read — as far as a stored document can be read before the schema
/// that types its fields is known. [`DetailDecoder::stored_type`] names
/// that schema; [`DetailDecoder::finish`] reads the rest with it.
pub struct DetailDecoder<'a, S> {
    src: S,
    root: &'a str,
    producer: Option<Cow<'a, str>>,
    first: Option<InstanceTag<'a>>,
}

/// The start tag of the next child element of the element `src` is
/// in, whose remaining content starts with `token`.
fn next_child<'a>(
    src: &mut impl XmlSource<'a>,
    token: Token<'a>,
) -> CssResult<Option<InstanceTag<'a>>> {
    match src.child(token)? {
        Some(name) => InstanceTag::read(name, src).map(Some),
        None => Ok(None),
    }
}

impl<'a, S: XmlSource<'a>> DetailDecoder<'a, S> {
    /// The header step.
    pub fn open(mut src: S) -> CssResult<Self> {
        let root = src.root()?;
        let (mut attrs, content) = src.attributes(["producer"])?;
        let first = next_child(&mut src, content)?;
        Ok(DetailDecoder {
            src,
            root,
            producer: attrs.take("producer"),
            first,
        })
    }

    /// The raw event-type text of the stored instance, readable without
    /// a schema (it selects the schema the fields are then decoded
    /// with). `None` when the message holds no typed element. Borrowed
    /// from the input, like every value without an entity in it.
    pub fn stored_type(&self) -> Option<Cow<'a, str>> {
        self.first.as_ref()?.ty.clone()
    }

    /// Read the rest of the document — to its end, so nothing comes
    /// out of one that is malformed anywhere — typing the fields via
    /// `schema` (`names` being its [`EventSchema::instance_names`]) and
    /// holding the values of those `keep` accepts (see
    /// [`EventDetails::decode`]: the others are checked, and blank).
    pub fn finish(
        self,
        schema: &EventSchema,
        names: &InstanceNames,
        keep: impl Fn(&str) -> bool,
    ) -> CssResult<DetailMessage> {
        let bad = |msg: String| CssError::Serialization(format!("DetailMessage: {msg}"));
        if self.root != "DetailMessage" {
            return Err(bad(format!("wrong root <{}>", self.root)));
        }
        let producer: ActorId = self
            .producer
            .ok_or_else(|| bad("missing producer".into()))?
            .parse()
            .map_err(|err| bad(format!("bad producer: {err}")))?;
        let mut src = self.src;
        // The instance is the first child the schema names, wherever
        // among its siblings it stands.
        let mut child = self.first;
        let tag = loop {
            match child {
                Some(tag) if tag.name == names.root => break tag,
                Some(other) => {
                    src.skip_rest(other.content)?;
                    let next = src.next()?;
                    child = next_child(&mut src, next)?;
                }
                None => return Err(bad(format!("missing <{}>", names.root))),
            }
        };
        let src_event_id: SourceEventId = tag
            .src_event_id
            .as_deref()
            .ok_or_else(|| bad("missing srcEventId".into()))?
            .parse()
            .map_err(|err| bad(format!("bad srcEventId: {err}")))?;
        let details = EventDetails::decode(schema, names, tag, &mut src, keep)?;
        src.finish()?;
        Ok(DetailMessage {
            src_event_id,
            producer,
            details,
        })
    }
}

/// The response to an authorized detail request: the event details with
/// only the policy-allowed fields populated (everything else blanked),
/// plus the provenance the consumer needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivacyAwareEvent {
    /// Global identifier of the event the response refers to.
    pub global_id: GlobalEventId,
    /// Producer that released the data.
    pub producer: ActorId,
    /// Fields the matching policy allowed (the `F` of Definition 2).
    pub allowed_fields: BTreeSet<String>,
    /// The filtered payload. Invariant: `details.is_privacy_safe(&allowed_fields)`.
    pub details: EventDetails,
}

impl PrivacyAwareEvent {
    /// Construct a response, blanking in `details` whatever is outside
    /// `allowed`.
    ///
    /// This is the only constructor, so the privacy-safety invariant
    /// holds for every value of this type.
    pub fn release(
        global_id: GlobalEventId,
        producer: ActorId,
        mut details: EventDetails,
        allowed: BTreeSet<String>,
    ) -> Self {
        details.blank_outside(&allowed);
        debug_assert!(details.is_privacy_safe(&allowed));
        PrivacyAwareEvent {
            global_id,
            producer,
            allowed_fields: allowed,
            details,
        }
    }

    /// Verify the Definition 4 invariant (used by tests and audits).
    pub fn is_privacy_safe(&self) -> bool {
        self.details.is_privacy_safe(&self.allowed_fields)
    }

    /// Serialize using the schema's element naming.
    pub fn to_xml(&self, schema: &EventSchema) -> Element {
        let mut allowed = Element::new("AllowedFields");
        for f in &self.allowed_fields {
            allowed = allowed.child(Element::leaf("Field", f.clone()));
        }
        Element::new("PrivacyAwareEvent")
            .attr("eventId", self.global_id.to_string())
            .attr("producer", self.producer.to_string())
            .child(allowed)
            .child(self.details.to_xml(schema, None))
    }

    /// Parse from the XML form, re-checking the privacy-safety invariant.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("PrivacyAwareEvent: {msg}"));
        if e.name != "PrivacyAwareEvent" {
            return Err(bad(format!("wrong root <{}>", e.name)));
        }
        let global_id: GlobalEventId = e
            .attribute("eventId")
            .ok_or_else(|| bad("missing eventId".into()))?
            .parse()
            .map_err(|err| bad(format!("bad eventId: {err}")))?;
        let producer: ActorId = e
            .attribute("producer")
            .ok_or_else(|| bad("missing producer".into()))?
            .parse()
            .map_err(|err| bad(format!("bad producer: {err}")))?;
        let allowed_fields: BTreeSet<String> = e
            .find("AllowedFields")
            .ok_or_else(|| bad("missing <AllowedFields>".into()))?
            .find_all("Field")
            .map(|f| f.text_content())
            .collect();
        let inner = e
            .find(&schema.root_element())
            .ok_or_else(|| bad(format!("missing <{}>", schema.root_element())))?;
        let details = EventDetails::from_xml(schema, inner)?;
        if !details.is_privacy_safe(&allowed_fields) {
            return Err(bad("payload exposes fields outside the allowed set".into()));
        }
        Ok(PrivacyAwareEvent {
            global_id,
            producer,
            allowed_fields,
            details,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldDef, FieldKind, FieldValue};
    use css_types::EventTypeId;

    fn schema() -> EventSchema {
        EventSchema::new(
            EventTypeId::v1("home-care-service-event"),
            "Home Care",
            ActorId(3),
        )
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required("Service", FieldKind::Text))
        .field(FieldDef::optional("CareNotes", FieldKind::Text).sensitive())
    }

    fn details() -> EventDetails {
        EventDetails::new(EventTypeId::v1("home-care-service-event"))
            .with("PatientId", FieldValue::Integer(42))
            .with("Service", FieldValue::Text("meal delivery".into()))
            .with("CareNotes", FieldValue::Text("patient is diabetic".into()))
    }

    fn allowed(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn detail_message_xml_roundtrip() {
        let m = DetailMessage {
            src_event_id: SourceEventId(9),
            producer: ActorId(3),
            details: details(),
        };
        let s = schema();
        let text = css_xml::to_string_pretty(&m.to_xml(&s));
        let back = DetailMessage::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn release_filters_and_upholds_invariant() {
        let resp = PrivacyAwareEvent::release(
            GlobalEventId(5),
            ActorId(3),
            details(),
            allowed(&["PatientId", "Service"]),
        );
        assert!(resp.is_privacy_safe());
        assert_eq!(resp.details.get("CareNotes").unwrap(), &FieldValue::Empty);
        assert_eq!(
            resp.details.get("Service").unwrap(),
            &FieldValue::Text("meal delivery".into())
        );
    }

    #[test]
    fn release_with_empty_allowed_blanks_everything() {
        let resp =
            PrivacyAwareEvent::release(GlobalEventId(5), ActorId(3), details(), BTreeSet::new());
        assert!(resp.is_privacy_safe());
        assert_eq!(resp.details.exposed_bytes(), 0);
    }

    #[test]
    fn privacy_aware_xml_roundtrip() {
        let s = schema();
        let resp = PrivacyAwareEvent::release(
            GlobalEventId(5),
            ActorId(3),
            details(),
            allowed(&["PatientId"]),
        );
        let text = css_xml::to_string(&resp.to_xml(&s));
        let back = PrivacyAwareEvent::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn from_xml_rejects_unsafe_payload() {
        let s = schema();
        // Hand-craft a response that leaks CareNotes while only allowing
        // PatientId — the parser must refuse it.
        let forged = Element::new("PrivacyAwareEvent")
            .attr("eventId", "evt-00000005")
            .attr("producer", "act-00000003")
            .child(Element::new("AllowedFields").child(Element::leaf("Field", "PatientId")))
            .child(
                Element::new("HomeCareServiceEvent")
                    .attr("type", "home-care-service-event@v1")
                    .child(Element::leaf("PatientId", "42"))
                    .child(Element::leaf("CareNotes", "leaked!")),
            );
        let err = PrivacyAwareEvent::from_xml(&s, &forged).unwrap_err();
        assert!(matches!(err, CssError::Serialization(_)));
    }

    #[test]
    fn detail_message_from_xml_requires_src_id() {
        let s = schema();
        let doc = Element::new("DetailMessage")
            .attr("producer", "act-00000003")
            .child(details().to_xml(&s, None));
        assert!(DetailMessage::from_xml(&s, &doc).is_err());
    }

    fn message() -> DetailMessage {
        DetailMessage {
            src_event_id: SourceEventId(9),
            producer: ActorId(3),
            details: details(),
        }
    }

    /// Decode `text` as the gateway does: header step, then the rest.
    fn decode_text(
        s: &EventSchema,
        text: &str,
        keep: impl Fn(&str) -> bool,
    ) -> CssResult<DetailMessage> {
        DetailDecoder::open(css_xml::Reader::new(text))?.finish(s, &s.instance_names(), keep)
    }

    #[test]
    fn header_step_names_the_schema_before_any_field_is_read() {
        let s = schema();
        let text = streamed(&message(), &s);
        let decoder = DetailDecoder::open(css_xml::Reader::new(&text)).unwrap();
        assert_eq!(
            decoder.stored_type().as_deref(),
            Some("home-care-service-event@v1")
        );
        assert_eq!(
            decoder.finish(&s, &s.instance_names(), |_| true).unwrap(),
            message()
        );
        for untyped in ["<DetailMessage/>", "<DetailMessage><X/></DetailMessage>"] {
            let decoder = DetailDecoder::open(css_xml::Reader::new(untyped)).unwrap();
            assert_eq!(decoder.stored_type(), None, "{untyped}");
        }
        // The header step reads one token past the first child's start
        // tag: what is wrong after that is the rest's to report.
        let cut = &text[..text.find("<Service>").unwrap()];
        let decoder = DetailDecoder::open(css_xml::Reader::new(cut)).unwrap();
        assert!(decoder.stored_type().is_some());
        assert!(decoder.finish(&s, &s.instance_names(), |_| true).is_err());
    }

    #[test]
    fn a_field_turned_down_is_checked_but_blank() {
        let s = schema();
        let text = streamed(&message(), &s);
        let kept = decode_text(&s, &text, |f| f == "Service").unwrap();
        assert_eq!(
            kept.details,
            details().filtered_to(&allowed(&["Service"])),
            "filtering in the decode is filtering after it"
        );
        assert_eq!(
            (kept.src_event_id, kept.producer),
            (SourceEventId(9), ActorId(3))
        );
        // Ill-typed where nobody may look is ill-typed all the same.
        let corrupt = text.replace("<PatientId>42<", "<PatientId>4x2<");
        for keep_patient in [true, false] {
            let err = decode_text(&s, &corrupt, |f| keep_patient || f != "PatientId").unwrap_err();
            assert!(matches!(err, CssError::Serialization(m) if m.contains("bad integer")));
        }
    }

    /// The decoder fed from the text and fed from the tree parsed from
    /// it: same message, or the same error.
    #[test]
    fn stream_and_tree_decode_alike() {
        let s = schema();
        let canonical = streamed(&message(), &s);
        let instance = &canonical
            [canonical.find("<HomeCare").unwrap()..canonical.find("</DetailMessage>").unwrap()];
        let documents = [
            canonical.clone(),
            css_xml::to_document_string(&message().to_xml(&s)),
            // The instance is found by name, behind a foreign sibling
            // (whose type attribute is the stored type all the same).
            format!(
                "<DetailMessage producer='act-00000003'><Other type='home-care-service-event@v1'><Deep/>t</Other>{instance}<After/></DetailMessage>"
            ),
            // The later of a repeated field wins; text is trimmed,
            // concatenated around comments and children, CDATA verbatim.
            canonical.replace(
                "<PatientId>42</PatientId>",
                "<PatientId>7</PatientId><PatientId a='1'> <!-- c -->4<i>9</i><![CDATA[2]]>\n</PatientId>",
            ),
            // Errors, in the order they were always reported.
            canonical.replace("DetailMessage", "Envelope"),
            canonical.replace(" producer=\"act-00000003\"", ""),
            canonical.replace("act-00000003", "actor 3"),
            canonical.replace("HomeCareServiceEvent", "Other"),
            canonical.replace(" srcEventId=\"src-00000009\"", ""),
            canonical.replace("src-00000009", "nine"),
            canonical.replace(" type=\"home-care-service-event@v1\"", " kind=\"x\""),
            canonical.replace("service-event@v1", "service-event@v2"),
            canonical.replace("<Service>", "<Hacked>1</Hacked><Service>"),
            canonical.replace("<PatientId>42<", "<PatientId>forty-two<"),
            "<DetailMessage producer='act-00000003'/>".to_string(),
        ];
        let mut failures = 0;
        for text in &documents {
            let streamed = decode_text(&s, text, |_| true);
            let from_tree = DetailMessage::from_xml(&s, &css_xml::parse(text).unwrap());
            match (&streamed, &from_tree) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{text}");
                    failures += 1;
                }
                _ => panic!("{text}: {streamed:?} vs {from_tree:?}"),
            }
        }
        assert_eq!(failures, 11);
        assert_eq!(
            decode_text(&s, &documents[3], |_| true)
                .unwrap()
                .details
                .get("PatientId"),
            Some(&FieldValue::Integer(42))
        );
    }

    fn streamed(m: &DetailMessage, s: &EventSchema) -> String {
        let mut out = String::new();
        m.encode(s, &mut css_xml::StreamSink::new(&mut out));
        out
    }

    /// Bytes `css_xml::to_string(&m.to_xml(&schema))` produced at the
    /// last commit that built the tree on the gateway's write path.
    #[test]
    fn encodings_match_pinned_bytes() {
        let blanked = DetailMessage {
            src_event_id: SourceEventId(9),
            producer: ActorId(3),
            details: details()
                .with(
                    "Service",
                    FieldValue::Text("meals & <transport> \"daily\"".into()),
                )
                .with("CareNotes", FieldValue::Empty),
        };
        let bare = DetailMessage {
            src_event_id: SourceEventId(10),
            producer: ActorId(3),
            details: EventDetails::new(EventTypeId::v1("home-care-service-event")),
        };
        let pinned = [
            "<DetailMessage producer=\"act-00000003\"><HomeCareServiceEvent type=\"home-care-service-event@v1\" srcEventId=\"src-00000009\"><PatientId>42</PatientId><Service>meals &amp; &lt;transport&gt; \"daily\"</Service><CareNotes></CareNotes></HomeCareServiceEvent></DetailMessage>",
            "<DetailMessage producer=\"act-00000003\"><HomeCareServiceEvent type=\"home-care-service-event@v1\" srcEventId=\"src-00000010\"/></DetailMessage>",
        ];
        let s = schema();
        for (message, bytes) in [blanked, bare].iter().zip(pinned) {
            assert_eq!(streamed(message, &s), bytes);
            assert_eq!(css_xml::to_string(&message.to_xml(&s)), bytes);
        }
    }

    proptest::proptest! {
        #[test]
        fn streamed_equals_tree_for_any_message(
            (src, producer) in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            patient in proptest::option::of(proptest::prelude::any::<i64>()),
            service in proptest::option::of("[ -~]{0,40}"),
            notes in proptest::option::of(proptest::option::of("[ -~]{1,40}")),
        ) {
            let mut details = EventDetails::new(EventTypeId::v1("home-care-service-event"));
            if let Some(p) = patient {
                details.set("PatientId", FieldValue::Integer(p));
            }
            if let Some(text) = service {
                details.set("Service", FieldValue::Text(text));
            }
            if let Some(notes) = notes {
                details.set("CareNotes", notes.map_or(FieldValue::Empty, FieldValue::Text));
            }
            let m = DetailMessage {
                src_event_id: SourceEventId(src),
                producer: ActorId(producer),
                details,
            };
            let s = schema();
            proptest::prop_assert_eq!(streamed(&m, &s), css_xml::to_string(&m.to_xml(&s)));
        }
    }
}
