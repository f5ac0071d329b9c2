//! Each platform document type has one codec: an encoder over
//! `XmlSink` and a decoder over `XmlSource`.
//!
//! For a generated value of each type, its text, compact and pretty,
//! decodes to that value from its tokens ([`Reader`]) and from its
//! parsed tree ([`css::xml::TreeSource`]); and its encoder streams the
//! bytes the tree writer writes of its tree. css-xml's own
//! `stream_identity` suite holds that writer to the reference writer
//! every stored byte was produced by.

use std::collections::BTreeSet;

use css::event::{
    EventDetails, EventSchema, FieldDef, FieldKind, FieldValue, NotificationMessage,
    PrivacyAwareEvent,
};
use css::policy::{xacml, PrivacyPolicy, ValidityWindow};
use css::types::{
    ActorId, EventTypeId, GlobalEventId, PersonId, PersonIdentity, PolicyId, Purpose, Timestamp,
};
use css::xml::{parse, to_string, to_string_pretty, Element, Reader, StreamSink};
use proptest::prelude::*;

/// A value of a document: the five characters that need escaping,
/// a letter beyond ASCII, inner spaces; no outer whitespace, which a
/// text value's decode trims.
fn text() -> impl Strategy<Value = String> {
    "[a-z&<>\"'\u{e9}][a-z&<>\"'\u{e9} ]{0,8}[a-z&<>\"'\u{e9}]"
}

/// The compact and the pretty text of `tree`.
fn spellings(tree: &Element) -> [String; 2] {
    [to_string(tree), to_string_pretty(tree)]
}

fn policy() -> impl Strategy<Value = PrivacyPolicy> {
    let purposes = proptest::collection::btree_set(
        prop_oneof![
            Just(Purpose::HealthcareTreatment),
            Just(Purpose::Administration),
            text().prop_map(Purpose::Custom),
        ],
        1..4,
    );
    let window = (
        proptest::option::of(0u64..1 << 40),
        proptest::option::of(0u64..1 << 40),
    );
    (
        (
            1u64..1000,
            purposes,
            proptest::collection::vec(text(), 0..4),
        ),
        (window, proptest::option::of(text()), text(), any::<bool>()),
    )
        .prop_map(
            |((id, purposes, fields), ((from, until), label, description, revoked))| {
                let mut policy = PrivacyPolicy::new(
                    PolicyId(id),
                    ActorId(3),
                    ActorId(12),
                    EventTypeId::v1("home-care-service-event"),
                    purposes,
                    fields,
                )
                .valid(ValidityWindow {
                    not_before: from.map(Timestamp),
                    not_after: until.map(Timestamp),
                })
                .labeled(label.unwrap_or_default(), description);
                if revoked {
                    policy.revoke();
                }
                policy
            },
        )
}

fn notification() -> impl Strategy<Value = NotificationMessage> {
    let texts = (text(), text(), text(), text());
    (0u64..1 << 30, texts, 0u64..1 << 42).prop_map(
        |(id, (fiscal_code, name, surname, description), at)| NotificationMessage {
            global_id: GlobalEventId(id),
            event_type: EventTypeId::v1("blood-test"),
            person: PersonIdentity {
                id: PersonId(id + 1),
                fiscal_code,
                name,
                surname,
            },
            description,
            occurred_at: Timestamp(at),
            producer: ActorId(7),
        },
    )
}

fn schema() -> impl Strategy<Value = EventSchema> {
    (
        text(),
        proptest::collection::vec(text(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(display_name, codes, sensitive)| {
            let notes = FieldDef::optional("Notes", FieldKind::Text);
            EventSchema::new(EventTypeId::v1("care-record"), display_name, ActorId(3))
                .field(FieldDef::required("PatientId", FieldKind::Integer))
                .field(FieldDef::required("Outcome", FieldKind::Code(codes)))
                .field(if sensitive { notes.sensitive() } else { notes })
        })
}

/// A response of the class [`schema`] declares, releasing `allowed`.
fn response(codes: &[String], notes: String, allowed: BTreeSet<String>) -> PrivacyAwareEvent {
    let mut details = EventDetails::new(EventTypeId::v1("care-record"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Notes", FieldValue::Text(notes));
    if let Some(code) = codes.first() {
        details.set("Outcome", FieldValue::Code(code.clone()));
    }
    PrivacyAwareEvent::release(GlobalEventId(5), ActorId(3), details, allowed)
}

proptest! {
    #[test]
    fn a_policy_reads_alike_from_tokens_and_tree(policy in policy()) {
        for text in spellings(&xacml::to_xacml(&policy)) {
            prop_assert_eq!(&xacml::from_xacml_text(&text).unwrap(), &policy);
            prop_assert_eq!(&xacml::from_xacml(&parse(&text).unwrap()).unwrap(), &policy);
        }
    }

    #[test]
    fn a_notification_reads_alike_from_tokens_and_tree(n in notification()) {
        for text in spellings(&n.to_xml()) {
            prop_assert_eq!(&NotificationMessage::decode(&mut Reader::new(&text)).unwrap(), &n);
            prop_assert_eq!(&NotificationMessage::from_xml(&parse(&text).unwrap()).unwrap(), &n);
        }
    }

    #[test]
    fn a_schema_reads_alike_from_tokens_and_tree(schema in schema()) {
        for text in spellings(&schema.to_xml()) {
            prop_assert_eq!(&EventSchema::decode(&mut Reader::new(&text)).unwrap(), &schema);
            prop_assert_eq!(&EventSchema::from_xml(&parse(&text).unwrap()).unwrap(), &schema);
        }
    }

    #[test]
    fn a_response_reads_alike_from_tokens_and_tree(
        schema in schema(),
        notes in text(),
        allowed in proptest::sample::subsequence(vec!["PatientId", "Outcome", "Notes"], 0..=3),
    ) {
        let codes = match &schema.fields[1].kind {
            FieldKind::Code(codes) => codes.clone(),
            _ => Vec::new(),
        };
        let allowed = allowed.into_iter().map(String::from).collect();
        let response = response(&codes, notes, allowed);
        for text in spellings(&response.to_xml(&schema)) {
            let tokens = PrivacyAwareEvent::decode(&schema, &mut Reader::new(&text)).unwrap();
            prop_assert_eq!(&tokens, &response);
            let tree = PrivacyAwareEvent::from_xml(&schema, &parse(&text).unwrap()).unwrap();
            prop_assert_eq!(&tree, &response);
        }
    }
}

/// Each document type's encoder streams the bytes the tree writer
/// writes of its tree.
#[test]
fn every_document_type_streams_the_reference_bytes() {
    let odd = "<a & 'b'> \"c\" \u{e9}";
    let mut policy = PrivacyPolicy::new(
        PolicyId(8),
        ActorId(30),
        ActorId(12),
        EventTypeId::v1("care-record"),
        [Purpose::HealthcareTreatment, Purpose::Custom(odd.into())],
        ["Outcome".to_string(), odd.to_string()],
    )
    .valid(ValidityWindow::between(Timestamp(1), Timestamp(2)))
    .labeled(odd, odd);
    policy.revoke();
    let notification = NotificationMessage {
        global_id: GlobalEventId(101),
        event_type: EventTypeId::v1("care-record"),
        person: PersonIdentity {
            id: PersonId(42),
            fiscal_code: odd.into(),
            name: odd.into(),
            surname: odd.into(),
        },
        description: odd.into(),
        occurred_at: Timestamp(1_284_379_200_000),
        producer: ActorId(7),
    };
    let schema = EventSchema::new(EventTypeId::v1("care-record"), odd, ActorId(30))
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::required(
            "Outcome",
            FieldKind::Code(vec![odd.into()]),
        ))
        .field(FieldDef::optional("Notes", FieldKind::Text).sensitive());
    let details = EventDetails::new(EventTypeId::v1("care-record"))
        .with("PatientId", FieldValue::Integer(42))
        .with("Outcome", FieldValue::Code(odd.into()))
        .with("Notes", FieldValue::Text(odd.into()));
    let allowed = ["Outcome".to_string(), "PatientId".to_string()];
    let response = PrivacyAwareEvent::release(
        GlobalEventId(5),
        ActorId(30),
        details,
        BTreeSet::from(allowed),
    );

    let streamed = |encode: &dyn Fn(&mut StreamSink<'_>)| {
        let mut out = String::new();
        encode(&mut StreamSink::new(&mut out));
        out
    };
    let cases = [
        (
            xacml::to_xacml(&policy),
            streamed(&|sink| policy.encode(sink)),
        ),
        (
            notification.to_xml(),
            streamed(&|sink| notification.encode(sink)),
        ),
        (schema.to_xml(), streamed(&|sink| schema.encode(sink))),
        (
            response.to_xml(&schema),
            streamed(&|sink| response.encode(&schema, sink)),
        ),
    ];
    for (tree, streamed) in cases {
        assert_eq!(streamed, to_string(&tree));
    }
}
