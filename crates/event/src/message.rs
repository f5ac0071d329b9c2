//! Detail messages and privacy-aware responses.

use std::collections::BTreeSet;

use css_types::{ActorId, CssError, CssResult, GlobalEventId, SourceEventId};
use css_xml::{Element, TreeSink, XmlSink};

use crate::details::EventDetails;
use crate::schema::EventSchema;

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

    /// Parse from the XML form.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("DetailMessage: {msg}"));
        if e.name != "DetailMessage" {
            return Err(bad(format!("wrong root <{}>", e.name)));
        }
        let producer: ActorId = e
            .attribute("producer")
            .ok_or_else(|| bad("missing producer".into()))?
            .parse()
            .map_err(|err| bad(format!("bad producer: {err}")))?;
        let inner = e
            .find(&schema.root_element())
            .ok_or_else(|| bad(format!("missing <{}>", schema.root_element())))?;
        let src_event_id: SourceEventId = inner
            .attribute("srcEventId")
            .ok_or_else(|| bad("missing srcEventId".into()))?
            .parse()
            .map_err(|err| bad(format!("bad srcEventId: {err}")))?;
        let details = EventDetails::from_xml(schema, inner)?;
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
    /// Construct a response, filtering `details` down to `allowed`.
    ///
    /// This is the only constructor, so the privacy-safety invariant
    /// holds for every value of this type.
    pub fn release(
        global_id: GlobalEventId,
        producer: ActorId,
        details: &EventDetails,
        allowed: BTreeSet<String>,
    ) -> Self {
        let filtered = details.filtered_to(&allowed);
        debug_assert!(filtered.is_privacy_safe(&allowed));
        PrivacyAwareEvent {
            global_id,
            producer,
            allowed_fields: allowed,
            details: filtered,
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
            &details(),
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
            PrivacyAwareEvent::release(GlobalEventId(5), ActorId(3), &details(), BTreeSet::new());
        assert!(resp.is_privacy_safe());
        assert_eq!(resp.details.exposed_bytes(), 0);
    }

    #[test]
    fn privacy_aware_xml_roundtrip() {
        let s = schema();
        let resp = PrivacyAwareEvent::release(
            GlobalEventId(5),
            ActorId(3),
            &details(),
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
