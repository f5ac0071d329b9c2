//! Detail messages and privacy-aware responses.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use css_types::{ActorId, CssError, CssResult, GlobalEventId, SourceEventId};
use css_xml::{
    put_text, put_varint, read_slice, read_varint, Element, Reader, Token, TreeSink, TreeSource,
    XmlSink, XmlSource,
};

use crate::details::{check_type, declared, EventDetails, FieldMask, InstanceTag};
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
    /// naming — the XML form's one encoder: [`DetailMessage::to_xml`]
    /// builds the tree from it.
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
        let every = schema.fields.iter().map(|_| true).collect();
        DetailDecoder::open(TreeSource::new(e))?.finish(schema, &schema.instance_names(), &every)
    }

    /// Write the record form — what a gateway stores — onto the end of
    /// `out`, naming the schema by `names.type_text` (`names` being the
    /// schema's [`EventSchema::instance_names`]). [`StoredDetail`] has
    /// the layout; the fields go in schema declaration order, each
    /// value in the text it renders, as the XML form writes them.
    pub fn encode_record(&self, schema: &EventSchema, names: &InstanceNames, out: &mut Vec<u8>) {
        out.push(DETAIL_RECORD_V1);
        put_varint(out, self.producer.value());
        put_varint(out, self.src_event_id.value());
        put_text(out, &names.type_text);
        put_varint(out, self.details.in_order_of(schema).count() as u64);
        for (name, value) in self.details.in_order_of(schema) {
            put_text(out, name);
            put_text(out, value);
        }
    }
}

/// The decoder of a [`DetailMessage`]'s XML form, stopped after its
/// header step: the root's start tag and that of its first child element are
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
    /// holding the values of the slots in `keep` (a mask over the
    /// schema's slots): the others are checked against their kind, and
    /// blank.
    pub fn finish(
        self,
        schema: &EventSchema,
        names: &InstanceNames,
        keep: &FieldMask,
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

/// The first byte of a detail message in the record form. XML allows
/// the character nowhere in a document, so no text document starts with
/// it; `0x01` and `0x02` are `css_xml`'s binary layouts.
pub const DETAIL_RECORD_V1: u8 = 0x03;

/// A stored detail message, read as far as the type text that names the
/// schema its fields are typed with: the one entry point to the bytes a
/// gateway stored. The first byte picks the decoder — the record form
/// for [`DETAIL_RECORD_V1`], and for any other byte the XML form as it
/// was always read (UTF-8 check, then [`DetailDecoder`]), which is how
/// every message stored before the record form reads.
///
/// The record form, all lengths and numbers shortest-form LEB128
/// varints:
///
/// | part | bytes |
/// |---|---|
/// | format | `0x03` |
/// | producer | varint |
/// | `srcEventId` | varint |
/// | type text | length, UTF-8 |
/// | field count | varint |
/// | each field | length, UTF-8 name; length, UTF-8 value |
///
/// Fields are keyed by name, never by position: a schema registered
/// again may declare other fields, and a position would then name
/// another field. A value is the text its [`FieldValue`] renders, typed
/// on the way in by the same [`FieldKind`] methods as the XML form's,
/// and untrimmed: the XML form trims a text value's outer whitespace,
/// the record keeps it.
///
/// [`FieldValue`]: crate::FieldValue
/// [`FieldKind`]: crate::FieldKind
pub struct StoredDetail<'a>(Form<'a>);

enum Form<'a> {
    Record(Record<'a>),
    Text(DetailDecoder<'a, Reader<'a>>),
}

impl<'a> StoredDetail<'a> {
    /// The header step of whichever form `stored` is in.
    pub fn open(stored: &'a [u8]) -> CssResult<Self> {
        if stored.first() == Some(&DETAIL_RECORD_V1) {
            return Record::open(stored).map(|record| StoredDetail(Form::Record(record)));
        }
        let text = std::str::from_utf8(stored)
            .map_err(|e| CssError::Serialization(format!("detail message not UTF-8: {e}")))?;
        DetailDecoder::open(Reader::new(text)).map(|decoder| StoredDetail(Form::Text(decoder)))
    }

    /// The stored type text; `None` for an XML message with no typed
    /// element (see [`DetailDecoder::stored_type`]).
    pub fn stored_type(&self) -> Option<Cow<'a, str>> {
        match &self.0 {
            Form::Record(record) => Some(Cow::Borrowed(record.ty)),
            Form::Text(decoder) => decoder.stored_type(),
        }
    }

    /// Read the rest, to the last byte, typing the fields via `schema`
    /// and holding the values of the slots in `keep` — see
    /// [`DetailDecoder::finish`], whose contract both forms keep.
    pub fn finish(
        self,
        schema: &EventSchema,
        names: &InstanceNames,
        keep: &FieldMask,
    ) -> CssResult<DetailMessage> {
        match self.0 {
            Form::Record(record) => record.finish(schema, names, keep),
            Form::Text(decoder) => decoder.finish(schema, names, keep),
        }
    }
}

/// A record-form message read up to and including its type text.
struct Record<'a> {
    input: &'a [u8],
    /// Where the field count starts.
    pos: usize,
    producer: ActorId,
    src_event_id: SourceEventId,
    ty: &'a str,
}

fn damaged(e: css_xml::ParseError) -> CssError {
    CssError::Serialization(format!("DetailRecord: {} at byte {}", e.message, e.offset))
}

/// The length-prefixed UTF-8 text at `input[*pos..]`.
fn record_text<'a>(input: &'a [u8], pos: &mut usize) -> CssResult<&'a str> {
    let at = *pos;
    std::str::from_utf8(read_slice(input, pos).map_err(damaged)?)
        .map_err(|_| CssError::Serialization(format!("DetailRecord: text not UTF-8 at byte {at}")))
}

impl<'a> Record<'a> {
    fn open(input: &'a [u8]) -> CssResult<Self> {
        let mut pos = 1;
        let producer = ActorId(read_varint(input, &mut pos).map_err(damaged)?);
        let src_event_id = SourceEventId(read_varint(input, &mut pos).map_err(damaged)?);
        let ty = record_text(input, &mut pos)?;
        Ok(Record {
            input,
            pos,
            producer,
            src_event_id,
            ty,
        })
    }

    fn finish(
        self,
        schema: &EventSchema,
        names: &InstanceNames,
        keep: &FieldMask,
    ) -> CssResult<DetailMessage> {
        check_type(schema, names, self.ty)?;
        let (input, mut pos) = (self.input, self.pos);
        let fields = read_varint(input, &mut pos).map_err(damaged)?;
        let mut details = EventDetails::slots_of(schema.id.clone(), names);
        for _ in 0..fields {
            let slot = declared(schema, record_text(input, &mut pos)?)?;
            let value = record_text(input, &mut pos)?;
            details.hold(schema, slot, value, keep)?;
        }
        if pos != input.len() {
            return Err(CssError::Serialization(format!(
                "DetailRecord: content after the last field at byte {pos}"
            )));
        }
        Ok(DetailMessage {
            src_event_id: self.src_event_id,
            producer: self.producer,
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
    /// Fields the matching policy allowed (the `F` of Definition 2),
    /// shared with the permit that allowed them.
    pub allowed_fields: Arc<BTreeSet<String>>,
    /// The filtered payload. Invariant: `details.is_privacy_safe(&allowed_fields)`.
    pub details: EventDetails,
}

impl PrivacyAwareEvent {
    /// Construct a response, blanking in `details` whatever is outside
    /// `allowed`: the set becomes one mask over the details' slots,
    /// and the blanking and its check are mask operations.
    ///
    /// This is the only constructor, so the privacy-safety invariant
    /// holds for every value of this type.
    pub fn release(
        global_id: GlobalEventId,
        producer: ActorId,
        mut details: EventDetails,
        allowed: impl Into<Arc<BTreeSet<String>>>,
    ) -> Self {
        let allowed_fields = allowed.into();
        let mask = details.mask(&allowed_fields);
        details.blank_outside(&mask);
        debug_assert!(details.exposes_only(&mask));
        PrivacyAwareEvent {
            global_id,
            producer,
            allowed_fields,
            details,
        }
    }

    /// Verify the Definition 4 invariant (used by tests and audits).
    pub fn is_privacy_safe(&self) -> bool {
        self.details.is_privacy_safe(&self.allowed_fields)
    }

    /// Write the XML form into `sink`, using the schema's element
    /// naming — the one encoder: [`PrivacyAwareEvent::to_xml`] builds
    /// its tree.
    pub fn encode(&self, schema: &EventSchema, sink: &mut impl XmlSink) {
        sink.open("PrivacyAwareEvent");
        sink.attr("eventId", self.global_id);
        sink.attr("producer", self.producer);
        sink.open("AllowedFields");
        for field in self.allowed_fields.iter() {
            sink.leaf("Field", field);
        }
        sink.close();
        self.details.encode(schema, None::<&str>, sink);
        sink.close();
    }

    /// The XML form as a tree.
    pub fn to_xml(&self, schema: &EventSchema) -> Element {
        TreeSink::build(|tree| self.encode(schema, tree))
    }

    /// Parse from the XML form: the decoder fed from the tree.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        Self::decode(schema, &mut TreeSource::new(e))
    }

    /// The one decoder: read the XML form off `src`, to the end of the
    /// document, typing the fields via the schema and re-checking the
    /// privacy-safety invariant. Children come in any order, unknown
    /// ones are read past, and of a repeated one the first counts.
    pub fn decode<'a>(schema: &EventSchema, src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("PrivacyAwareEvent: {msg}"));
        src.root_named("PrivacyAwareEvent", bad)?;
        let (attrs, first) = src.attributes(["eventId", "producer"])?;
        let names = schema.instance_names();
        let every = schema.fields.iter().map(|_| true).collect();
        let (mut allowed, mut details) = (None, None);
        src.children(["AllowedFields", &names.root], first, |src, at, child| {
            if at == 0 {
                let first = src.next()?;
                let fields = src.texts("Field", first)?.into_iter();
                allowed = Some(fields.map(Cow::into_owned).collect::<BTreeSet<_>>());
            } else {
                let tag = InstanceTag::read(child, src)?;
                details = Some(EventDetails::decode(schema, &names, tag, src, &every)?);
            }
            Ok(())
        })?;
        src.finish()?;
        let allowed_fields = allowed.ok_or_else(|| bad("missing <AllowedFields>".into()))?;
        let details = details.ok_or_else(|| bad(format!("missing <{}>", names.root)))?;
        if !details.is_privacy_safe(&allowed_fields) {
            return Err(bad("payload exposes fields outside the allowed set".into()));
        }
        Ok(PrivacyAwareEvent {
            global_id: attrs.required("eventId", bad)?,
            producer: attrs.required("producer", bad)?,
            allowed_fields: Arc::new(allowed_fields),
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
        let forged = "<PrivacyAwareEvent eventId=\"evt-00000005\" producer=\"act-00000003\">\
            <AllowedFields><Field>PatientId</Field></AllowedFields>\
            <HomeCareServiceEvent type=\"home-care-service-event@v1\">\
            <PatientId>42</PatientId><CareNotes>leaked!</CareNotes>\
            </HomeCareServiceEvent></PrivacyAwareEvent>";
        for err in [
            PrivacyAwareEvent::from_xml(&s, &css_xml::parse(forged).unwrap()).unwrap_err(),
            PrivacyAwareEvent::decode(&s, &mut Reader::new(forged)).unwrap_err(),
        ] {
            assert!(matches!(err, CssError::Serialization(_)));
        }
    }

    /// Every byte the encoder writes is the byte the tree builder
    /// wrote, escaping included.
    #[test]
    fn privacy_aware_wire_form_is_pinned() {
        let s = EventSchema::new(
            EventTypeId::v1("home-care-service-event"),
            "Home Care",
            ActorId(3),
        )
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required(
            "Service",
            FieldKind::Code(vec!["meal".into(), "bath & <care>".into()]),
        ))
        .field(FieldDef::optional("CareNotes", FieldKind::Text).sensitive());
        let details = EventDetails::new(EventTypeId::v1("home-care-service-event"))
            .with("PatientId", FieldValue::Integer(42))
            .with("Service", FieldValue::Code("bath & <care>".into()))
            .with("CareNotes", FieldValue::Text("patient is diabetic".into()));
        let resp = PrivacyAwareEvent::release(
            GlobalEventId(5),
            ActorId(3),
            details,
            allowed(&["PatientId", "Service"]),
        );
        let pinned = "<PrivacyAwareEvent eventId=\"evt-00000005\" producer=\"act-00000003\"><AllowedFields><Field>PatientId</Field><Field>Service</Field></AllowedFields><HomeCareServiceEvent type=\"home-care-service-event@v1\"><PatientId>42</PatientId><Service>bath &amp; &lt;care&gt;</Service><CareNotes></CareNotes></HomeCareServiceEvent></PrivacyAwareEvent>";
        assert_eq!(css_xml::to_string(&resp.to_xml(&s)), pinned);
        let mut streamed = String::new();
        resp.encode(&s, &mut css_xml::StreamSink::new(&mut streamed));
        assert_eq!(streamed, pinned);
        assert_eq!(
            PrivacyAwareEvent::decode(&s, &mut Reader::new(pinned)).unwrap(),
            resp
        );
    }

    #[test]
    fn detail_message_from_xml_requires_src_id() {
        let s = schema();
        let doc = format!(
            "<DetailMessage producer=\"act-00000003\">{}</DetailMessage>",
            css_xml::to_string(&details().to_xml(&s, None))
        );
        assert!(DetailMessage::from_xml(&s, &css_xml::parse(&doc).unwrap()).is_err());
    }

    fn message() -> DetailMessage {
        DetailMessage {
            src_event_id: SourceEventId(9),
            producer: ActorId(3),
            details: details(),
        }
    }

    /// The slots of `s` whose field `keep` accepts.
    fn kept(s: &EventSchema, keep: impl Fn(&str) -> bool) -> FieldMask {
        s.field_names().map(keep).collect()
    }

    /// Decode `text` as the gateway does: header step, then the rest.
    fn decode_text(
        s: &EventSchema,
        text: &str,
        keep: impl Fn(&str) -> bool,
    ) -> CssResult<DetailMessage> {
        DetailDecoder::open(css_xml::Reader::new(text))?.finish(
            s,
            &s.instance_names(),
            &kept(s, keep),
        )
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
            decoder
                .finish(&s, &s.instance_names(), &kept(&s, |_| true))
                .unwrap(),
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
        assert!(decoder
            .finish(&s, &s.instance_names(), &kept(&s, |_| true))
            .is_err());
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
            // Text is trimmed, concatenated around comments and
            // children, CDATA verbatim.
            canonical.replace(
                "<PatientId>42</PatientId>",
                "<PatientId a='1'> <!-- c -->4<i>9</i><![CDATA[2]]>\n</PatientId>",
            ),
            // Errors, in the order they were always reported.
            canonical.replace(
                "<PatientId>42</PatientId>",
                "<PatientId>7</PatientId><PatientId>42</PatientId>",
            ),
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
        assert_eq!(failures, 12);
        assert_eq!(
            decode_text(&s, &documents[3], |_| true)
                .unwrap()
                .details
                .get("PatientId"),
            Some(&FieldValue::Integer(42))
        );
    }

    #[test]
    fn a_field_named_twice_fails_the_decode() {
        let s = schema();
        let canonical = streamed(&message(), &s);
        let twice = canonical.replace(
            "<PatientId>42</PatientId>",
            "<PatientId>1</PatientId><PatientId>2</PatientId>",
        );
        // Kept or turned down, a repeat is an error, never the later value.
        for keep in [true, false] {
            let err = decode_text(&s, &twice, |_| keep).unwrap_err();
            assert!(
                matches!(&err, CssError::Serialization(m) if m.contains("repeated field <PatientId>")),
                "{err}"
            );
        }
        let mut stored = record(&message(), &s);
        let at = count_at(&stored);
        stored[at] += 1;
        stored.extend_from_slice(b"\x09PatientId\x012");
        let err = decode_record(&s, &stored, |_| true).unwrap_err();
        assert!(
            matches!(&err, CssError::Serialization(m) if m.contains("repeated field <PatientId>"))
        );
    }

    // ---- the record form ----

    fn record(m: &DetailMessage, s: &EventSchema) -> Vec<u8> {
        let mut out = Vec::new();
        m.encode_record(s, &s.instance_names(), &mut out);
        out
    }

    /// Decode stored bytes as the gateway does: header step, then the rest.
    fn decode_record(
        s: &EventSchema,
        stored: &[u8],
        keep: impl Fn(&str) -> bool,
    ) -> CssResult<DetailMessage> {
        StoredDetail::open(stored)?.finish(s, &s.instance_names(), &kept(s, keep))
    }

    /// Where the field count of a record with one-byte ids starts.
    fn count_at(record: &[u8]) -> usize {
        3 + 1 + usize::from(record[3])
    }

    #[test]
    fn record_layout_is_the_documented_one() {
        let s = schema();
        let m = DetailMessage {
            src_event_id: SourceEventId(300),
            producer: ActorId(3),
            details: EventDetails::new(EventTypeId::v1("home-care-service-event"))
                .with("CareNotes", FieldValue::Empty)
                .with("PatientId", FieldValue::Integer(-7)),
        };
        let mut expected = vec![DETAIL_RECORD_V1, 3, 0xac, 0x02, 26];
        expected.extend_from_slice(b"home-care-service-event@v1");
        // Two fields, in declaration order; the blank one has no value.
        expected.extend_from_slice(b"\x02\x09PatientId\x02-7\x09CareNotes\x00");
        assert_eq!(record(&m, &s), expected);
        assert_eq!(decode_record(&s, &expected, |_| true).unwrap(), m);
    }

    #[test]
    fn the_format_byte_starts_no_text_document() {
        // Not `<`, XML whitespace or a byte-order mark's first byte: a
        // document can start with none but these. Not css_xml's binary
        // layouts either (0x01, and 0x02 kept for the next one).
        assert!(!b"< \t\r\n\xef\x01\x02".contains(&DETAIL_RECORD_V1));
        assert_eq!(css_xml::BINARY_V1, 0x01);
        assert!(css_xml::parse("\u{3}<DetailMessage/>").is_err());
        // Every other first byte is read as text, as before.
        for text in [&b"\xff\xfe"[..], b"\x01<DetailMessage/>", b""] {
            let err = StoredDetail::open(text).map(|_| ()).unwrap_err();
            assert!(matches!(err, CssError::Serialization(_)), "{err}");
        }
    }

    #[test]
    fn the_record_form_keeps_outer_whitespace_the_xml_form_trims() {
        let s = schema();
        let mut m = message();
        m.details
            .set("Service", FieldValue::Text("  meal delivery \n".into()));
        assert_eq!(decode_record(&s, &record(&m, &s), |_| true).unwrap(), m);
        let from_xml = decode_text(&s, &streamed(&m, &s), |_| true).unwrap();
        assert_eq!(
            from_xml.details.get("Service"),
            Some(&FieldValue::Text("meal delivery".into()))
        );
    }

    #[test]
    fn a_record_keys_its_fields_by_name() {
        let s = schema();
        let stored = record(&message(), &s);
        // The same schema with its fields in another order reads the
        // same record to the same message.
        let mut reordered = s.clone();
        reordered.fields.reverse();
        assert_eq!(
            decode_record(&reordered, &stored, |_| true).unwrap(),
            message()
        );
        // A schema without one of the stored fields refuses the record:
        // a position would have read another field's value under its name.
        let mut narrower = s.clone();
        narrower.fields.retain(|def| def.name != "PatientId");
        let err = decode_record(&narrower, &stored, |_| true).unwrap_err();
        assert!(
            matches!(&err, CssError::Serialization(m) if m.contains("undeclared field <PatientId>"))
        );
        // A stored type other than the schema's is refused as in XML.
        let other = EventSchema::new(EventTypeId::v1("other"), "Other", ActorId(3));
        let err = decode_record(&other, &stored, |_| true).unwrap_err();
        assert!(matches!(&err, CssError::Serialization(m) if m.contains("does not match schema")));
    }

    #[test]
    fn a_damaged_record_is_an_error() {
        let s = schema();
        let whole = record(&message(), &s);
        let serialization = |stored: &[u8], what: &str| {
            let err = decode_record(&s, stored, |_| true).unwrap_err();
            assert!(
                matches!(&err, CssError::Serialization(m) if m.contains(what)),
                "{what}: {err}"
            );
        };
        // Cut anywhere after the format byte: never a partial message.
        for cut in 1..whole.len() {
            serialization(&whole[..cut], "DetailRecord");
        }
        // A length that runs past the end.
        let mut long = whole.clone();
        let last_value = whole.len() - "patient is diabetic".len() - 1;
        long[last_value] += 1;
        serialization(&long, "length runs past the payload");
        // Overlong varints, and one that is not in its shortest form.
        for (producer, what) in [
            (&[0xff; 10][..], "varint overflows 64 bits"),
            (
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81],
                "varint longer than 10 bytes",
            ),
            (&[0x83, 0x00], "varint not in shortest form"),
        ] {
            let mut bad = vec![DETAIL_RECORD_V1];
            bad.extend_from_slice(producer);
            bad.extend_from_slice(&whole[2..]);
            serialization(&bad, what);
        }
        // Invalid UTF-8 in a name, and in a value.
        for at in [count_at(&whole) + 2, whole.len() - 1] {
            let mut bad = whole.clone();
            bad[at] = 0xff;
            serialization(&bad, "not UTF-8");
        }
        // Bytes after the last field.
        let mut trailing = whole.clone();
        trailing.push(0);
        serialization(&trailing, "content after the last field");
    }

    fn every_kind_schema() -> EventSchema {
        EventSchema::new(EventTypeId::v1("every-kind"), "Every kind", ActorId(8))
            .field(FieldDef::required("Id", FieldKind::Integer))
            .field(FieldDef::optional("Note", FieldKind::Text).sensitive())
            .field(FieldDef::optional("Level", FieldKind::Decimal))
            .field(FieldDef::optional("Flag", FieldKind::Boolean))
            .field(FieldDef::optional("At", FieldKind::DateTime))
            .field(FieldDef::optional(
                "Outcome",
                FieldKind::Code(vec!["negative".into(), "positive".into()]),
            ))
    }

    proptest::proptest! {
        /// Every schema-valid message: the record form reads back
        /// exactly; filtering in its decode is filtering after it; and
        /// the XML form reads back the same message wherever no text
        /// value has outer whitespace (which XML trims).
        #[test]
        fn the_record_form_round_trips_every_kind(
            (src, producer, id) in (
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<i64>(),
            ),
            note in proptest::option::of(proptest::option::of("[ -~\u{e0}-\u{ff}]{1,30}")),
            level in proptest::option::of(proptest::option::of((proptest::prelude::any::<i64>(), 0u8..=18))),
            flag in proptest::option::of(proptest::option::of(proptest::prelude::any::<bool>())),
            at in proptest::option::of(proptest::option::of(0u64..=253_402_300_799_999)),
            outcome in proptest::option::of(proptest::option::of(proptest::prelude::any::<bool>())),
            allowed_mask in 0u8..64,
        ) {
            let s = every_kind_schema();
            let mut details = EventDetails::new(s.id.clone())
                .with("Id", FieldValue::Integer(id));
            let mut set = |name: &str, value: Option<Option<FieldValue>>| {
                if let Some(value) = value {
                    details.set(name, value.unwrap_or(FieldValue::Empty));
                }
            };
            set("Note", note.map(|n| n.map(FieldValue::Text)));
            set("Level", level.map(|l| l.map(|(m, scale)| FieldValue::Decimal(crate::field::Decimal::new(m, scale)))));
            set("Flag", flag.map(|f| f.map(FieldValue::Boolean)));
            set("At", at.map(|t| t.map(|ms| FieldValue::DateTime(css_types::Timestamp(ms)))));
            set("Outcome", outcome.map(|o| o.map(|p| FieldValue::Code(if p { "positive" } else { "negative" }.into()))));
            // A decimal whose text the parser does not take is not
            // schema-valid: no gateway stores it.
            if s.validate(&details).is_err() {
                return;
            }
            let m = DetailMessage {
                src_event_id: SourceEventId(src),
                producer: ActorId(producer),
                details,
            };
            let stored = record(&m, &s);
            proptest::prop_assert_eq!(&decode_record(&s, &stored, |_| true).unwrap(), &m);
            let allowed: BTreeSet<String> = s
                .field_names()
                .enumerate()
                .filter(|(i, _)| allowed_mask & (1 << i) != 0)
                .map(|(_, name)| name.to_string())
                .collect();
            proptest::prop_assert_eq!(
                decode_record(&s, &stored, |f| allowed.contains(f)).unwrap().details,
                m.details.filtered_to(&allowed)
            );
            let trimmed = m.details.iter().all(|(_, v)| match v {
                FieldValue::Text(t) => t.trim() == t,
                _ => true,
            });
            if trimmed {
                proptest::prop_assert_eq!(&decode_text(&s, &streamed(&m, &s), |_| true).unwrap(), &m);
            }
        }
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
