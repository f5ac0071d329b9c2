//! Notification messages — the *who / what / when / where* of an event.
//!
//! "The notification message contains only the data necessary to
//! identify a person (who), a description of the event occurred (what),
//! the date and time of occurrence (when) and the source of the event
//! (where). It contains the identifying information of a person but not
//! sensitive information." (Section 4)

use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonIdentity, Timestamp,
};
use css_xml::{Element, TreeSink, TreeSource, XmlSink, XmlSource};

use crate::field::{FieldKind, FieldValue};

/// The non-sensitive half of an event, distributed through the bus and
/// stored in the events index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMessage {
    /// Global event identifier minted by the data controller.
    pub global_id: GlobalEventId,
    /// Class of the event (links to the catalog entry / schema).
    pub event_type: EventTypeId,
    /// *Who*: identifying (not sensitive) information of the subject.
    pub person: PersonIdentity,
    /// *What*: a short human-readable description of what occurred.
    pub description: String,
    /// *When*: instant the event occurred at the source.
    pub occurred_at: Timestamp,
    /// *Where*: the producer organization the event originated from.
    pub producer: ActorId,
}

impl NotificationMessage {
    /// Write the XML wire form into `sink` — the one encoder:
    /// [`NotificationMessage::to_xml`] builds its tree.
    pub fn encode(&self, sink: &mut impl XmlSink) {
        sink.open("Notification");
        sink.attr("eventId", self.global_id);
        sink.attr("type", &self.event_type);
        sink.open("Who");
        sink.attr("personId", self.person.id);
        sink.leaf("FiscalCode", &self.person.fiscal_code);
        sink.leaf("Name", &self.person.name);
        sink.leaf("Surname", &self.person.surname);
        sink.close();
        sink.leaf("What", &self.description);
        sink.leaf("When", self.occurred_at);
        sink.open("Where");
        sink.attr("producer", self.producer);
        sink.close();
        sink.close();
    }

    /// The XML wire form as a tree.
    pub fn to_xml(&self) -> Element {
        TreeSink::build(|tree| self.encode(tree))
    }

    /// Parse from the XML wire form: the decoder fed from the tree.
    pub fn from_xml(e: &Element) -> CssResult<Self> {
        Self::decode(&mut TreeSource::new(e))
    }

    /// The one decoder: read the wire form off `src`, to the end of the
    /// document. Children come in any order, unknown ones are read
    /// past, and of a repeated one the first counts.
    pub fn decode<'a>(src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let bad = |msg: String| CssError::Serialization(format!("Notification: {msg}"));
        src.root_named("Notification", bad)?;
        let (attrs, first) = src.attributes(["eventId", "type"])?;
        // The texts of `LEAVES`: Who's three children, What and When.
        let (mut who, mut texts, mut producer) = (None, [const { None }; 5], None);
        src.children(["Who", "What", "When", "Where"], first, |src, at, _| {
            match at {
                0 => {
                    let (id, first) = src.attributes(["personId"])?;
                    who = Some(id);
                    src.children(["FiscalCode", "Name", "Surname"], first, |src, at, _| {
                        texts[at] = Some(src.text_content()?);
                        Ok(())
                    })?;
                }
                1 | 2 => texts[at + 2] = Some(src.text_content()?),
                _ => {
                    let (mut attrs, rest) = src.attributes(["producer"])?;
                    producer = attrs.take("producer");
                    src.skip_rest(rest)?;
                }
            }
            Ok(())
        })?;
        src.finish()?;
        let who = who.ok_or_else(|| bad("missing <Who>".into()))?;
        if let Some(at) = texts.iter().position(Option::is_none) {
            return Err(bad(format!("missing <{}>", LEAVES[at])));
        }
        let [fiscal_code, name, surname, description, when] =
            texts.map(|text| text.unwrap_or_default().into_owned());
        let Ok(FieldValue::DateTime(occurred_at)) = FieldKind::DateTime.parse_value(&when) else {
            return Err(bad(format!("bad <When> value {when:?}")));
        };
        let producer = producer.ok_or_else(|| bad("missing <Where producer>".into()))?;
        Ok(NotificationMessage {
            global_id: attrs.required("eventId", bad)?,
            event_type: attrs.required("type", bad)?,
            person: PersonIdentity {
                id: who.required("personId", bad)?,
                fiscal_code,
                name,
                surname,
            },
            description,
            occurred_at,
            producer: producer
                .parse()
                .map_err(|err| bad(format!("bad producer: {err}")))?,
        })
    }
}

/// The text children of the wire form, in the order they are checked.
const LEAVES: [&str; 5] = ["FiscalCode", "Name", "Surname", "What", "When"];

#[cfg(test)]
mod tests {
    use super::*;
    use css_types::PersonId;

    fn sample() -> NotificationMessage {
        NotificationMessage {
            global_id: GlobalEventId(101),
            event_type: EventTypeId::v1("blood-test"),
            person: PersonIdentity {
                id: PersonId(42),
                fiscal_code: "RSSMRA45C12L378Y".into(),
                name: "Mario".into(),
                surname: "Rossi".into(),
            },
            description: "blood test completed at the laboratory".into(),
            occurred_at: Timestamp(1_284_379_200_000),
            producer: ActorId(7),
        }
    }

    #[test]
    fn xml_roundtrip() {
        let n = sample();
        let text = css_xml::to_string_pretty(&n.to_xml());
        let back = NotificationMessage::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn notification_carries_no_detail_fields() {
        // Structural check: the wire form has exactly the 4 W's.
        let xml = sample().to_xml();
        let names: Vec<&str> = xml
            .children
            .iter()
            .map(|node| match node {
                css_xml::Node::Element(e) => e.name.as_str(),
                css_xml::Node::Text(_) => "text",
            })
            .collect();
        assert_eq!(names, vec!["Who", "What", "When", "Where"]);
    }

    /// Both decoders of `text`.
    fn decoded(text: &str) -> [CssResult<NotificationMessage>; 2] {
        [
            NotificationMessage::decode(&mut css_xml::Reader::new(text)),
            NotificationMessage::from_xml(&css_xml::parse(text).unwrap()),
        ]
    }

    #[test]
    fn from_xml_rejects_missing_pieces() {
        let text = css_xml::to_string(&sample().to_xml());
        // Remove each child in turn and expect failure.
        for (name, end) in [
            ("Who", "</Who>"),
            ("What", "</What>"),
            ("When", "</When>"),
            ("Where", "/>"),
        ] {
            let start = text.find(&format!("<{name}")).unwrap();
            let cut = start + text[start..].find(end).unwrap() + end.len();
            let doc = format!("{}{}", &text[..start], &text[cut..]);
            for result in decoded(&doc) {
                assert!(result.is_err(), "should fail when <{name}> is missing");
            }
        }
    }

    /// Every byte the encoder writes is the byte the tree builder
    /// wrote, escaping included.
    #[test]
    fn the_wire_form_is_pinned() {
        let mut n = sample();
        n.person.surname = "D'Rossi & <Co>".into();
        n.description = "blood test \"done\" < 5 & ok".into();
        let pinned = "<Notification eventId=\"evt-00000101\" type=\"blood-test@v1\"><Who personId=\"per-00000042\"><FiscalCode>RSSMRA45C12L378Y</FiscalCode><Name>Mario</Name><Surname>D'Rossi &amp; &lt;Co&gt;</Surname></Who><What>blood test \"done\" &lt; 5 &amp; ok</What><When>2010-09-13T12:00:00.000Z</When><Where producer=\"act-00000007\"/></Notification>";
        assert_eq!(css_xml::to_string(&n.to_xml()), pinned);
        let mut streamed = String::new();
        n.encode(&mut css_xml::StreamSink::new(&mut streamed));
        assert_eq!(streamed, pinned);
        for result in decoded(pinned) {
            assert_eq!(result.unwrap(), n);
        }
    }

    /// Children in any order, unknown ones and later repeats read past.
    #[test]
    fn children_read_in_any_order() {
        let text = "<Notification type='blood-test@v1' eventId='evt-00000101'>\
            <Where producer='act-00000007'><x/></Where><Where/><Extra>1</Extra>\
            <When>2010-09-13T12:00:00.000Z</When><What>blood test completed at the laboratory</What>\
            <Who personId='per-00000042'><Surname>Rossi</Surname><Name>Mario</Name><Name>No</Name>\
            <FiscalCode>RSSMRA45C12L378Y</FiscalCode></Who><Who/></Notification>";
        for result in decoded(text) {
            assert_eq!(result.unwrap(), sample());
        }
    }

    #[test]
    fn from_xml_rejects_bad_ids() {
        let text = css_xml::to_string(&sample().to_xml());
        let tampered = text.replace("evt-00000101", "garbage");
        assert!(NotificationMessage::from_xml(&css_xml::parse(&tampered).unwrap()).is_err());
    }

    #[test]
    fn from_xml_rejects_wrong_root() {
        let e = Element::new("Detail");
        assert!(NotificationMessage::from_xml(&e).is_err());
    }

    #[test]
    fn unicode_descriptions_roundtrip() {
        let mut n = sample();
        n.description = "visita dermatologica – città di Trento & Co.".into();
        let text = css_xml::to_string(&n.to_xml());
        let back = NotificationMessage::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back.description, n.description);
    }
}
