//! Event schemas — the catalog's stand-in for XSD.
//!
//! "The structure of the event is specified by an XSD that is
//! 'installed' in an event catalog module" (Section 5). An
//! [`EventSchema`] declares the typed fields of one class of event
//! details; it validates instances and converts to the `css-xml` schema
//! form for interchange.

use css_types::{ActorId, CssError, CssResult, EventTypeId};
use css_xml::Element;

use crate::details::EventDetails;
use crate::field::{FieldDef, FieldKind, FieldValue};

/// Declaration of a class of event details (an entry of `E(D_i)` in
/// Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSchema {
    /// Identifier (code + version) of the event class.
    pub id: EventTypeId,
    /// Human-readable name shown in catalogs and the elicitation tool.
    pub display_name: String,
    /// The producer that declared the class.
    pub producer: ActorId,
    /// Ordered field declarations.
    pub fields: Vec<FieldDef>,
}

/// The two strings the XML form of an instance takes from its schema's
/// id. Both are built from the id on every call that wants them;
/// whoever decodes often (the gateway) derives them once per schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceNames {
    /// [`EventSchema::root_element`].
    pub root: String,
    /// The id's canonical text — the value of the `type` attribute.
    pub type_text: String,
}

impl EventSchema {
    /// Create a schema with no fields yet.
    pub fn new(id: EventTypeId, display_name: impl Into<String>, producer: ActorId) -> Self {
        EventSchema {
            id,
            display_name: display_name.into(),
            producer,
            fields: Vec::new(),
        }
    }

    /// Builder: append a field declaration.
    ///
    /// # Panics
    /// Panics if a field with the same name was already declared —
    /// schemas are authored in code or by the elicitation tool, so a
    /// duplicate is a programming error.
    pub fn field(mut self, def: FieldDef) -> Self {
        assert!(
            self.field_def(&def.name).is_none(),
            "duplicate field {:?} in schema {}",
            def.name,
            self.id
        );
        self.fields.push(def);
        self
    }

    /// Declaration of the named field, if any.
    pub fn field_def(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Names of all declared fields, in declaration order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }

    /// Names of the fields marked sensitive.
    pub fn sensitive_fields(&self) -> impl Iterator<Item = &str> {
        self.fields
            .iter()
            .filter(|f| f.sensitive)
            .map(|f| f.name.as_str())
    }

    /// Root element name used by the XML form of instances.
    pub fn root_element(&self) -> String {
        // blood-test@v1 → BloodTest
        self.id
            .code()
            .split('-')
            .map(|part| {
                let mut chars = part.chars();
                match chars.next() {
                    Some(c) => c.to_uppercase().chain(chars).collect::<String>(),
                    None => String::new(),
                }
            })
            .collect()
    }

    /// Root element name and type text of this schema's instances.
    pub fn instance_names(&self) -> InstanceNames {
        InstanceNames {
            root: self.root_element(),
            type_text: self.id.to_string(),
        }
    }

    /// Validate a full (source-side) instance: every declared field must
    /// be well-typed, required fields must be non-empty, and no
    /// undeclared field may appear.
    pub fn validate(&self, details: &EventDetails) -> CssResult<()> {
        if details.event_type != self.id {
            return Err(CssError::Invalid(format!(
                "details of type {} validated against schema {}",
                details.event_type, self.id
            )));
        }
        for name in details.field_names() {
            if self.field_def(name).is_none() {
                return Err(CssError::Invalid(format!(
                    "undeclared field {name:?} in event of type {}",
                    self.id
                )));
            }
        }
        for def in &self.fields {
            let value = details.get(&def.name);
            match value {
                None => {
                    if def.required {
                        return Err(CssError::Invalid(format!(
                            "required field {:?} missing in event of type {}",
                            def.name, self.id
                        )));
                    }
                }
                Some(v) => {
                    if def.required && v.is_empty() {
                        return Err(CssError::Invalid(format!(
                            "required field {:?} is empty in event of type {}",
                            def.name, self.id
                        )));
                    }
                    if !v.is_empty() {
                        well_typed(&def.kind, v).map_err(|e| {
                            CssError::Invalid(format!(
                                "field {:?} ill-typed in event of type {}: {e}",
                                def.name, self.id
                            ))
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialize the schema itself to XML (for the event catalog).
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("EventSchema")
            .attr("id", self.id.to_string())
            .attr("name", self.display_name.clone())
            .attr("producer", self.producer.to_string());
        for f in &self.fields {
            let mut fe = Element::new("Field")
                .attr("name", f.name.clone())
                .attr("kind", kind_code(&f.kind))
                .attr("required", f.required.to_string())
                .attr("sensitive", f.sensitive.to_string());
            if let FieldKind::Code(allowed) = &f.kind {
                for code in allowed {
                    fe = fe.child(Element::leaf("Code", code.clone()));
                }
            }
            root = root.child(fe);
        }
        root
    }

    /// Parse a schema from its XML form.
    pub fn from_xml(e: &Element) -> CssResult<Self> {
        let bad = |msg: &str| CssError::Serialization(format!("EventSchema: {msg}"));
        if e.name != "EventSchema" {
            return Err(bad("wrong root element"));
        }
        let id: EventTypeId = e
            .attribute("id")
            .ok_or_else(|| bad("missing id"))?
            .parse()
            .map_err(|err| bad(&format!("bad id: {err}")))?;
        let display_name = e.attribute("name").ok_or_else(|| bad("missing name"))?;
        let producer: ActorId = e
            .attribute("producer")
            .ok_or_else(|| bad("missing producer"))?
            .parse()
            .map_err(|err| bad(&format!("bad producer: {err}")))?;
        let mut schema = EventSchema::new(id, display_name, producer);
        for fe in e.find_all("Field") {
            let name = fe
                .attribute("name")
                .ok_or_else(|| bad("field without name"))?;
            if schema.field_def(name).is_some() {
                return Err(bad(&format!("duplicate field {name:?}")));
            }
            let kind_str = fe
                .attribute("kind")
                .ok_or_else(|| bad("field without kind"))?;
            let kind = match kind_str {
                "text" => FieldKind::Text,
                "integer" => FieldKind::Integer,
                "decimal" => FieldKind::Decimal,
                "boolean" => FieldKind::Boolean,
                "datetime" => FieldKind::DateTime,
                "code" => FieldKind::Code(fe.find_all("Code").map(|c| c.text_content()).collect()),
                other => return Err(bad(&format!("unknown field kind {other:?}"))),
            };
            let required = fe.attribute("required") == Some("true");
            let sensitive = fe.attribute("sensitive") == Some("true");
            schema.fields.push(FieldDef {
                name: name.to_string(),
                kind,
                required,
                sensitive,
            });
        }
        Ok(schema)
    }
}

/// Whether `value` is a well-typed value of `kind`: whether its
/// rendered form parses as one. Text is checked where it lies, and a
/// number, flag or instant in a field declared as that renders to a
/// form that parses back by construction; any other pairing (a
/// decimal's scale can exceed what the parser takes) is rendered and
/// parsed to find out.
fn well_typed(kind: &FieldKind, value: &FieldValue) -> Result<(), String> {
    match (kind, value) {
        (FieldKind::Text | FieldKind::Code(_), FieldValue::Text(s) | FieldValue::Code(s)) => {
            kind.check_value(s)
        }
        (FieldKind::Integer, FieldValue::Integer(_))
        | (FieldKind::Boolean, FieldValue::Boolean(_))
        | (FieldKind::DateTime, FieldValue::DateTime(_)) => Ok(()),
        _ => kind.check_value(&value.render()),
    }
}

fn kind_code(kind: &FieldKind) -> &'static str {
    match kind {
        FieldKind::Text => "text",
        FieldKind::Integer => "integer",
        FieldKind::Decimal => "decimal",
        FieldKind::Boolean => "boolean",
        FieldKind::DateTime => "datetime",
        FieldKind::Code(_) => "code",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldValue;
    use css_types::Timestamp;

    pub(crate) fn blood_test_schema() -> EventSchema {
        EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", ActorId(1))
            .field(FieldDef::required("PatientId", FieldKind::Integer))
            .field(FieldDef::required("CollectedAt", FieldKind::DateTime))
            .field(
                FieldDef::required(
                    "Result",
                    FieldKind::Code(vec!["negative".into(), "positive".into()]),
                )
                .sensitive(),
            )
            .field(FieldDef::optional("Hemoglobin", FieldKind::Decimal).sensitive())
            .field(FieldDef::optional("Notes", FieldKind::Text))
    }

    fn valid_details() -> EventDetails {
        EventDetails::new(EventTypeId::v1("blood-test"))
            .with("PatientId", FieldValue::Integer(42))
            .with("CollectedAt", FieldValue::DateTime(Timestamp(1_000_000)))
            .with("Result", FieldValue::Code("negative".into()))
            .with("Hemoglobin", FieldValue::Decimal("13.5".parse().unwrap()))
    }

    #[test]
    fn valid_instance_passes() {
        blood_test_schema().validate(&valid_details()).unwrap();
    }

    #[test]
    fn missing_required_field_rejected() {
        let details = EventDetails::new(EventTypeId::v1("blood-test"))
            .with("PatientId", FieldValue::Integer(42));
        assert!(blood_test_schema().validate(&details).is_err());
    }

    #[test]
    fn empty_required_field_rejected() {
        let details = valid_details().with("Result", FieldValue::Empty);
        assert!(blood_test_schema().validate(&details).is_err());
    }

    #[test]
    fn undeclared_field_rejected() {
        let details = valid_details().with("Smuggled", FieldValue::Text("x".into()));
        assert!(blood_test_schema().validate(&details).is_err());
    }

    #[test]
    fn ill_typed_field_rejected() {
        let details = valid_details().with("Result", FieldValue::Code("inconclusive".into()));
        assert!(blood_test_schema().validate(&details).is_err());
    }

    #[test]
    fn wrong_type_id_rejected() {
        let details = EventDetails::new(EventTypeId::v1("urine-test"));
        assert!(blood_test_schema().validate(&details).is_err());
    }

    #[test]
    fn optional_field_may_be_absent() {
        let mut details = valid_details();
        details.remove("Hemoglobin");
        blood_test_schema().validate(&details).unwrap();
    }

    #[test]
    fn root_element_is_camel_case() {
        assert_eq!(blood_test_schema().root_element(), "BloodTest");
        let s = EventSchema::new(EventTypeId::v1("home-care-service-event"), "x", ActorId(1));
        assert_eq!(s.root_element(), "HomeCareServiceEvent");
    }

    #[test]
    fn xml_roundtrip() {
        let schema = blood_test_schema();
        let xml = schema.to_xml();
        let text = css_xml::to_string_pretty(&xml);
        let parsed = EventSchema::from_xml(&css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, schema);
    }

    #[test]
    fn from_xml_rejects_duplicates_and_garbage() {
        let dup = r#"<EventSchema id="x@v1" name="X" producer="act-00000001">
            <Field name="a" kind="text" required="true" sensitive="false"/>
            <Field name="a" kind="text" required="true" sensitive="false"/>
        </EventSchema>"#;
        assert!(EventSchema::from_xml(&css_xml::parse(dup).unwrap()).is_err());
        let bad_kind = r#"<EventSchema id="x@v1" name="X" producer="act-00000001">
            <Field name="a" kind="blob" required="true" sensitive="false"/>
        </EventSchema>"#;
        assert!(EventSchema::from_xml(&css_xml::parse(bad_kind).unwrap()).is_err());
    }

    #[test]
    fn sensitive_fields_listed() {
        let schema = blood_test_schema();
        let s: Vec<&str> = schema.sensitive_fields().collect();
        assert_eq!(s, vec!["Result", "Hemoglobin"]);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_field_panics_in_builder() {
        let _ = EventSchema::new(EventTypeId::v1("x"), "X", ActorId(1))
            .field(FieldDef::required("a", FieldKind::Text))
            .field(FieldDef::required("a", FieldKind::Text));
    }

    /// What `validate` did before it checked the value it holds:
    /// render to a fresh string, parse it back.
    fn render_then_parse(kind: &FieldKind, value: &FieldValue) -> Result<(), String> {
        kind.parse_value(&value.render()).map(drop)
    }

    fn kinds() -> Vec<FieldKind> {
        let codes = [
            "negative",
            "12",
            "true",
            "-1.50",
            "1970-01-01T00:16:40.000Z",
        ];
        vec![
            FieldKind::Text,
            FieldKind::Integer,
            FieldKind::Decimal,
            FieldKind::Boolean,
            FieldKind::DateTime,
            FieldKind::Code(codes.map(String::from).to_vec()),
            FieldKind::Code(Vec::new()),
        ]
    }

    #[test]
    fn well_typed_agrees_with_render_then_parse_at_the_edges() {
        use crate::field::Decimal;
        let mut values = vec![FieldValue::Empty];
        for text in [
            "",
            "negative",
            "12",
            "-0",
            "true",
            "-1.50",
            "1.",
            "9223372036854775808",
            "1970-01-01T00:16:40.000Z",
            "1970-13-01T00:00:00.000Z",
        ] {
            values.push(FieldValue::Text(text.into()));
            values.push(FieldValue::Code(text.into()));
        }
        for i in [i64::MIN, -1, 0, 1, i64::MAX] {
            values.push(FieldValue::Integer(i));
            // Scale 19 renders more fraction digits than the parser
            // takes, i64::MIN a mantissa it cannot hold: a decimal in a
            // decimal field is *not* well-typed by construction.
            for scale in [0, 1, 18, 19] {
                values.push(FieldValue::Decimal(Decimal::new(i, scale)));
            }
        }
        values.extend([true, false].map(FieldValue::Boolean));
        values.extend(
            [0, 1, 951_782_400_000, u64::MAX].map(|ms| FieldValue::DateTime(Timestamp(ms))),
        );
        let mut refused = 0;
        for kind in kinds() {
            for value in &values {
                let expected = render_then_parse(&kind, value);
                refused += usize::from(expected.is_err());
                assert_eq!(well_typed(&kind, value), expected, "{kind:?} / {value:?}");
            }
        }
        assert!(refused > 100, "the table exercises refusals too: {refused}");
    }

    proptest::proptest! {
        /// Any value in a field of any kind — its own or another — is
        /// accepted or refused, with the same message, as rendering it
        /// and parsing the text back would.
        #[test]
        fn well_typed_agrees_with_render_then_parse(
            kind in 0usize..7,
            text in "[a-z0-9TZ:.-]{0,12}",
            integer in proptest::prelude::any::<i64>(),
            scale in 0u8..=19,
            instant in proptest::prelude::any::<u64>(),
        ) {
            let kind = &kinds()[kind];
            for value in [
                FieldValue::Text(text.clone()),
                FieldValue::Code(text.clone()),
                FieldValue::Integer(integer),
                FieldValue::Decimal(crate::field::Decimal::new(integer, scale)),
                FieldValue::Boolean(integer % 2 == 0),
                FieldValue::DateTime(Timestamp(instant)),
            ] {
                proptest::prop_assert_eq!(
                    well_typed(kind, &value),
                    render_then_parse(kind, &value),
                    "{:?} / {:?}", kind, value
                );
            }
        }
    }
}
