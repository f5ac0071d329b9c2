//! Event details instances and the field-filtering obligation.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use css_types::{CssError, CssResult, EventTypeId};
use css_xml::{Element, Token, TreeSink, TreeSource, XmlSink, XmlSource};

use crate::field::{FieldDef, FieldValue};
use crate::schema::{EventSchema, InstanceNames};

/// The start tag of an instance element, read before the schema that
/// types its fields need be known.
pub(crate) struct InstanceTag<'a> {
    pub(crate) name: &'a str,
    /// The `type` attribute: the stored type text.
    pub(crate) ty: Option<Cow<'a, str>>,
    pub(crate) src_event_id: Option<Cow<'a, str>>,
    /// The first token of the element's content.
    pub(crate) content: Token<'a>,
}

impl<'a> InstanceTag<'a> {
    /// Read the attributes of the element `src` just opened as `name`.
    pub(crate) fn read(name: &'a str, src: &mut impl XmlSource<'a>) -> CssResult<Self> {
        let (mut attrs, content) = src.attributes(["type", "srcEventId"])?;
        Ok(InstanceTag {
            name,
            ty: attrs.take("type"),
            src_event_id: attrs.take("srcEventId"),
            content,
        })
    }
}

/// The declaration of the field a stored message names `name`.
pub(crate) fn declared<'s>(schema: &'s EventSchema, name: &str) -> CssResult<&'s FieldDef> {
    schema
        .field_def(name)
        .ok_or_else(|| CssError::Serialization(format!("undeclared field <{name}>")))
}

/// Whether the type text a stored message names is the schema's own.
pub(crate) fn check_type(
    schema: &EventSchema,
    names: &InstanceNames,
    stored: &str,
) -> CssResult<()> {
    if stored == names.type_text {
        Ok(())
    } else {
        Err(CssError::Serialization(format!(
            "details type {stored:?} does not match schema {}",
            schema.id
        )))
    }
}

/// An instance of a class of event details: the sensitive payload that
/// stays at the producer (Definition 1: `e = {f_1, ..., f_k}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDetails {
    /// The class this instance belongs to.
    pub event_type: EventTypeId,
    fields: BTreeMap<String, FieldValue>,
}

impl EventDetails {
    /// An instance with no fields yet.
    pub fn new(event_type: EventTypeId) -> Self {
        EventDetails {
            event_type,
            fields: BTreeMap::new(),
        }
    }

    /// Builder: set a field value.
    pub fn with(mut self, name: impl Into<String>, value: FieldValue) -> Self {
        self.fields.insert(name.into(), value);
        self
    }

    /// Set a field value.
    pub fn set(&mut self, name: impl Into<String>, value: FieldValue) {
        self.fields.insert(name.into(), value);
    }

    /// Remove a field entirely (used by tests; enforcement *blanks*
    /// fields instead, preserving shape).
    pub fn remove(&mut self, name: &str) -> Option<FieldValue> {
        self.fields.remove(name)
    }

    /// The value of a field.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.get(name)
    }

    /// Names of the fields present, in sorted order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// Name/value pairs, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of fields present (empty or not).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Names of fields carrying a non-empty value.
    pub fn non_empty_fields(&self) -> impl Iterator<Item = &str> {
        self.fields
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.as_str())
    }

    /// Total bytes of non-empty field values — the measure of exposed
    /// data used by the experiments.
    pub fn exposed_bytes(&self) -> usize {
        self.fields.values().map(FieldValue::byte_size).sum()
    }

    /// The obligation of Algorithm 2, step 2, in place: every field
    /// **not** in `allowed` is blanked ("parses the Event Details to
    /// filter out the values of the fields that are not allowed").
    ///
    /// The shape (set of field names) is preserved so consumers can
    /// still validate the response against the published schema.
    pub fn blank_outside(&mut self, allowed: &BTreeSet<String>) {
        for (name, value) in &mut self.fields {
            if !allowed.contains(name) {
                *value = FieldValue::Empty;
            }
        }
    }

    /// A copy with [`EventDetails::blank_outside`] applied.
    pub fn filtered_to(&self, allowed: &BTreeSet<String>) -> EventDetails {
        let mut out = self.clone();
        out.blank_outside(allowed);
        out
    }

    /// Definition 4: this instance is *privacy safe* for an allowed set
    /// `F` iff no field outside `F` carries a non-empty value.
    pub fn is_privacy_safe(&self, allowed: &BTreeSet<String>) -> bool {
        self.fields
            .iter()
            .all(|(name, value)| value.is_empty() || allowed.contains(name))
    }

    /// Write the XML form into `sink`, using the schema's element
    /// naming — the one encoder. The optional `srcEventId` attribute
    /// is how detail messages carry their producer-local identifier.
    pub fn encode(
        &self,
        schema: &EventSchema,
        src_event_id: Option<impl fmt::Display>,
        sink: &mut impl XmlSink,
    ) {
        sink.open(&schema.root_element());
        sink.attr("type", &self.event_type);
        if let Some(id) = src_event_id {
            sink.attr("srcEventId", id);
        }
        // Serialize in schema declaration order for stable output,
        // including empty fields (they carry the "blanked" signal).
        for def in &schema.fields {
            if let Some(v) = self.fields.get(&def.name) {
                sink.leaf(&def.name, v);
            }
        }
        sink.close();
    }

    /// The XML form as a tree (see [`EventDetails::encode`]).
    pub fn to_xml(&self, schema: &EventSchema, src_event_id: Option<&str>) -> Element {
        TreeSink::build(|tree| self.encode(schema, src_event_id, tree))
    }

    /// The one decoder: the instance whose start tag is `tag`, its
    /// fields read from `src` through the element's end and typed via
    /// the schema (`names` being its [`EventSchema::instance_names`]).
    ///
    /// A field `keep` turns down is checked against its declared kind
    /// like any other but comes back [`FieldValue::Empty`]: its value
    /// is never built.
    pub(crate) fn decode<'a>(
        schema: &EventSchema,
        names: &InstanceNames,
        tag: InstanceTag<'a>,
        src: &mut impl XmlSource<'a>,
        keep: impl Fn(&str) -> bool,
    ) -> CssResult<Self> {
        if tag.name != names.root {
            return Err(CssError::Serialization(format!(
                "expected <{}>, found <{}>",
                names.root, tag.name
            )));
        }
        let declared_type = tag
            .ty
            .ok_or_else(|| CssError::Serialization("details missing type attribute".into()))?;
        check_type(schema, names, &declared_type)?;
        let mut out = EventDetails::new(schema.id.clone());
        let mut token = tag.content;
        while let Some(field) = src.child(token)? {
            let def = declared(schema, field)?;
            let text = src.text_content()?;
            out.hold(def, &text, keep(&def.name))?;
            token = src.next()?;
        }
        Ok(out)
    }

    /// Take one stored field into the instance being decoded, typed as
    /// `def` declares it — both forms of a stored message decode their
    /// fields through this. When `keep` is false the value is checked
    /// against its kind like any other but held as
    /// [`FieldValue::Empty`]: it is never built. A field stored twice is
    /// an error, never a silent choice between the two values.
    pub(crate) fn hold(&mut self, def: &FieldDef, text: &str, keep: bool) -> CssResult<()> {
        let value = if keep {
            def.kind.parse_value(text)
        } else {
            def.kind.check_value(text).map(|()| FieldValue::Empty)
        };
        let value = value.map_err(CssError::Serialization)?;
        if self.fields.insert(def.name.clone(), value).is_some() {
            return Err(CssError::Serialization(format!(
                "repeated field <{}>",
                def.name
            )));
        }
        Ok(())
    }

    /// Parse an instance from XML, typing fields via the schema: the
    /// decoder fed from the tree.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        let mut src = TreeSource::new(e);
        let tag = InstanceTag::read(src.root()?, &mut src)?;
        Self::decode(schema, &schema.instance_names(), tag, &mut src, |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldDef, FieldKind};
    use css_types::ActorId;

    fn schema() -> EventSchema {
        EventSchema::new(
            EventTypeId::v1("autonomy-test"),
            "Autonomy Test",
            ActorId(9),
        )
        .field(FieldDef::required("Age", FieldKind::Integer))
        .field(FieldDef::required(
            "Sex",
            FieldKind::Code(vec!["m".into(), "f".into()]),
        ))
        .field(FieldDef::required("AutonomyScore", FieldKind::Integer).sensitive())
        .field(FieldDef::optional("Diagnosis", FieldKind::Text).sensitive())
    }

    fn details() -> EventDetails {
        EventDetails::new(EventTypeId::v1("autonomy-test"))
            .with("Age", FieldValue::Integer(81))
            .with("Sex", FieldValue::Code("f".into()))
            .with("AutonomyScore", FieldValue::Integer(3))
            .with("Diagnosis", FieldValue::Text("mild dementia".into()))
    }

    fn allowed(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn filtering_blanks_disallowed_fields() {
        let f = allowed(&["Age", "Sex", "AutonomyScore"]);
        let filtered = details().filtered_to(&f);
        assert_eq!(filtered.get("Age").unwrap(), &FieldValue::Integer(81));
        assert_eq!(filtered.get("Diagnosis").unwrap(), &FieldValue::Empty);
        // Shape preserved.
        assert_eq!(filtered.len(), details().len());
    }

    #[test]
    fn filtered_output_is_privacy_safe() {
        let f = allowed(&["Age"]);
        let filtered = details().filtered_to(&f);
        assert!(filtered.is_privacy_safe(&f));
        assert!(!details().is_privacy_safe(&f));
    }

    #[test]
    fn privacy_safe_with_empty_allowed_set() {
        let none = BTreeSet::new();
        let filtered = details().filtered_to(&none);
        assert!(filtered.is_privacy_safe(&none));
        assert_eq!(filtered.exposed_bytes(), 0);
    }

    #[test]
    fn privacy_safe_accepts_empty_disallowed_fields() {
        let d = details().with("Diagnosis", FieldValue::Empty);
        assert!(d.is_privacy_safe(&allowed(&["Age", "Sex", "AutonomyScore"])));
    }

    #[test]
    fn exposed_bytes_counts_only_values() {
        let d = EventDetails::new(EventTypeId::v1("x"))
            .with("a", FieldValue::Text("1234".into()))
            .with("b", FieldValue::Empty);
        assert_eq!(d.exposed_bytes(), 4);
    }

    #[test]
    fn xml_roundtrip_full_instance() {
        let s = schema();
        let d = details();
        let xml = d.to_xml(&s, Some("src-00000007"));
        assert_eq!(xml.attribute("srcEventId"), Some("src-00000007"));
        let text = css_xml::to_string(&xml);
        let back = EventDetails::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn xml_roundtrip_preserves_blanked_fields() {
        let s = schema();
        let filtered = details().filtered_to(&allowed(&["Age"]));
        let text = css_xml::to_string(&filtered.to_xml(&s, None));
        let back = EventDetails::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(back, filtered);
        assert!(back.is_privacy_safe(&allowed(&["Age"])));
    }

    #[test]
    fn from_xml_rejects_wrong_root_or_type() {
        let s = schema();
        let other = Element::new("BloodTest").attr("type", "autonomy-test@v1");
        assert!(EventDetails::from_xml(&s, &other).is_err());
        let wrong_type = Element::new("AutonomyTest").attr("type", "blood-test@v1");
        assert!(EventDetails::from_xml(&s, &wrong_type).is_err());
    }

    #[test]
    fn from_xml_rejects_undeclared_field() {
        let s = schema();
        let doc = Element::new("AutonomyTest")
            .attr("type", "autonomy-test@v1")
            .child(Element::leaf("Hacked", "1"));
        assert!(EventDetails::from_xml(&s, &doc).is_err());
    }

    #[test]
    fn non_empty_fields_iterator() {
        let d = details().with("Diagnosis", FieldValue::Empty);
        let names: Vec<&str> = d.non_empty_fields().collect();
        assert_eq!(names, vec!["Age", "AutonomyScore", "Sex"]);
    }
}
