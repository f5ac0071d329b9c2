//! Event details instances and the field-filtering obligation.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use css_types::{CssError, CssResult, EventTypeId};
use css_xml::{Element, Token, TreeSink, TreeSource, XmlSink, XmlSource};

use crate::field::FieldValue;
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

/// The slot of the field a stored message names `name`.
pub(crate) fn declared(schema: &EventSchema, name: &str) -> CssResult<usize> {
    let slot = schema.fields.iter().position(|def| def.name == name);
    slot.ok_or_else(|| CssError::Serialization(format!("undeclared field <{name}>")))
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

/// A set of field slots: slot `i` is the `i`-th field of a slot list —
/// a schema's declaration order, or an instance's own. The allowed set
/// `F` of a permit, turned into one over the fields it is applied to,
/// is one of these: filtering by it reads no name. The first 64 slots
/// are held inline, the rest 64 a word.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldMask(u64, Vec<u64>);

impl FieldMask {
    /// The slots of `names` whose name is in `allowed`.
    pub fn of(names: &[String], allowed: &BTreeSet<String>) -> Self {
        names.iter().map(|name| allowed.contains(name)).collect()
    }

    /// Whether `slot` is in the set.
    pub fn contains(&self, slot: usize) -> bool {
        let word = slot
            .checked_sub(64)
            .map_or(self.0, |at| self.1.get(at / 64).map_or(0, |w| *w));
        word >> (slot % 64) & 1 == 1
    }
}

/// The set of the slots whose item is `true`.
impl FromIterator<bool> for FieldMask {
    fn from_iter<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut mask = FieldMask::default();
        for (slot, bit) in bits.into_iter().enumerate() {
            let bit = u64::from(bit) << (slot % 64);
            match slot.checked_sub(64) {
                None => mask.0 |= bit,
                Some(at) if at % 64 == 0 => mask.1.push(bit),
                Some(at) => mask.1[at / 64] |= bit,
            }
        }
        mask
    }
}

/// An instance of a class of event details: the sensitive payload that
/// stays at the producer (Definition 1: `e = {f_1, ..., f_k}`).
///
/// Values sit in slots. An instance decoded with a schema has one slot
/// per declared field, in declaration order, and shares the slot names
/// with the schema's [`InstanceNames`]: decoding allocates no name. An
/// instance built field by field names its own slots, in the order the
/// fields were first set. Either way a field is present or not, and two
/// instances are equal when they hold the same values under the same
/// names, whatever their slot order.
#[derive(Debug, Clone)]
pub struct EventDetails {
    /// The class this instance belongs to.
    pub event_type: EventTypeId,
    /// The name of each slot.
    names: Arc<Vec<String>>,
    /// The value in each slot; `None` where the field is absent.
    values: Vec<Option<FieldValue>>,
}

impl EventDetails {
    /// An instance with no fields yet.
    pub fn new(event_type: EventTypeId) -> Self {
        EventDetails {
            event_type,
            names: Arc::default(),
            values: Vec::new(),
        }
    }

    /// An instance of `names`' schema with every slot empty.
    pub(crate) fn slots_of(event_type: EventTypeId, names: &InstanceNames) -> Self {
        EventDetails {
            event_type,
            names: Arc::clone(&names.fields),
            values: vec![None; names.fields.len()],
        }
    }

    /// Builder: set a field value.
    pub fn with(mut self, name: impl Into<String>, value: FieldValue) -> Self {
        self.set(name, value);
        self
    }

    /// Set a field value.
    pub fn set(&mut self, name: impl Into<String>, value: FieldValue) {
        let name = name.into();
        match self.slot(&name) {
            Some(slot) => self.values[slot] = Some(value),
            None => {
                Arc::make_mut(&mut self.names).push(name);
                self.values.push(Some(value));
            }
        }
    }

    /// Remove a field entirely (used by tests; enforcement *blanks*
    /// fields instead, preserving shape).
    pub fn remove(&mut self, name: &str) -> Option<FieldValue> {
        self.slot(name).and_then(|slot| self.values[slot].take())
    }

    /// The slot named `name`.
    fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The value of each of `names` (`None` where absent), each name
    /// searched from the slot after the last one found and then round
    /// from the first. Names given in slot order (a schema's fields
    /// over an instance decoded with it, say) are each found at the
    /// first probe, so a walk over all the fields stays linear in them.
    pub(crate) fn values_of<'s>(
        &'s self,
        names: impl Iterator<Item = &'s str>,
    ) -> impl Iterator<Item = Option<&'s FieldValue>> {
        let (slots, mut next) = (self.names.len(), 0);
        names.map(move |name| {
            let mut from_next = (0..slots).map(|i| (next + i) % slots);
            let slot = from_next.find(|&slot| self.names[slot] == name)?;
            next = slot + 1;
            self.values[slot].as_ref()
        })
    }

    /// The value of a field.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.slot(name).and_then(|slot| self.values[slot].as_ref())
    }

    /// Names of the fields present, in slot order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(name, _)| name)
    }

    /// Name/value pairs, in slot order: declaration order for an
    /// instance decoded with its schema.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.names
            .iter()
            .zip(&self.values)
            .filter_map(|(name, value)| Some((name.as_str(), value.as_ref()?)))
    }

    /// The values present, in `schema`'s declaration order.
    pub(crate) fn in_order_of<'s>(
        &'s self,
        schema: &'s EventSchema,
    ) -> impl Iterator<Item = (&'s str, &'s FieldValue)> {
        let values = self.values_of(schema.field_names());
        let present = |(name, value): (&'s str, _)| Some((name, value?));
        schema.field_names().zip(values).filter_map(present)
    }

    /// Number of fields present (empty or not).
    pub fn len(&self) -> usize {
        self.values.iter().flatten().count()
    }

    /// Whether no fields are present.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Option::is_none)
    }

    /// Names of fields carrying a non-empty value.
    pub fn non_empty_fields(&self) -> impl Iterator<Item = &str> {
        self.iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(name, _)| name)
    }

    /// Total bytes of non-empty field values — the measure of exposed
    /// data used by the experiments.
    pub fn exposed_bytes(&self) -> usize {
        self.iter().map(|(_, value)| value.byte_size()).sum()
    }

    /// The allowed set `allowed`, by name, as a mask over this
    /// instance's slots.
    pub fn mask(&self, allowed: &BTreeSet<String>) -> FieldMask {
        FieldMask::of(&self.names, allowed)
    }

    /// The obligation of Algorithm 2, step 2, in place: every slot
    /// **not** in `allowed` (a mask over this instance's slots) is
    /// blanked ("parses the Event Details to filter out the values of
    /// the fields that are not allowed").
    ///
    /// The shape (set of field names) is preserved so consumers can
    /// still validate the response against the published schema.
    pub fn blank_outside(&mut self, allowed: &FieldMask) {
        for (slot, value) in self.values.iter_mut().enumerate() {
            if let Some(value) = value.as_mut().filter(|_| !allowed.contains(slot)) {
                *value = FieldValue::Empty;
            }
        }
    }

    /// A copy with every field outside `allowed` blanked.
    pub fn filtered_to(&self, allowed: &BTreeSet<String>) -> EventDetails {
        let mut out = self.clone();
        out.blank_outside(&self.mask(allowed));
        out
    }

    /// Definition 4 over slots: no slot outside `allowed` (a mask over
    /// this instance's slots) carries a non-empty value.
    pub fn exposes_only(&self, allowed: &FieldMask) -> bool {
        self.values.iter().enumerate().all(|(slot, value)| {
            value.as_ref().is_none_or(FieldValue::is_empty) || allowed.contains(slot)
        })
    }

    /// Definition 4: this instance is *privacy safe* for an allowed set
    /// `F` iff no field outside `F` carries a non-empty value.
    pub fn is_privacy_safe(&self, allowed: &BTreeSet<String>) -> bool {
        self.exposes_only(&self.mask(allowed))
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
        for (name, value) in self.in_order_of(schema) {
            sink.leaf(name, value);
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
    /// A field whose slot is outside `keep` is checked against its
    /// declared kind like any other but comes back
    /// [`FieldValue::Empty`]: its value is never built.
    pub(crate) fn decode<'a>(
        schema: &EventSchema,
        names: &InstanceNames,
        tag: InstanceTag<'a>,
        src: &mut impl XmlSource<'a>,
        keep: &FieldMask,
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
        let mut out = EventDetails::slots_of(schema.id.clone(), names);
        let mut token = tag.content;
        while let Some(field) = src.child(token)? {
            let slot = declared(schema, field)?;
            let text = src.text_content()?;
            out.hold(schema, slot, &text, keep)?;
            token = src.next()?;
        }
        Ok(out)
    }

    /// Take one stored field into slot `slot` of the instance being
    /// decoded, typed as `schema` declares it — both forms of a stored
    /// message decode their fields through this. Outside `keep` the
    /// value is checked against its kind like any other but held as
    /// [`FieldValue::Empty`]: it is never built. A field stored twice is
    /// an error, never a silent choice between the two values (and so
    /// is a slot the instance does not have, which slots of another
    /// schema's names would give).
    pub(crate) fn hold(
        &mut self,
        schema: &EventSchema,
        slot: usize,
        text: &str,
        keep: &FieldMask,
    ) -> CssResult<()> {
        let def = &schema.fields[slot];
        let value = if keep.contains(slot) {
            def.kind.parse_value(text)
        } else {
            def.kind.check_value(text).map(|()| FieldValue::Empty)
        };
        let value = value.map_err(CssError::Serialization)?;
        let held = self.values.get_mut(slot).filter(|held| held.is_none());
        let repeated = || CssError::Serialization(format!("repeated field <{}>", def.name));
        *held.ok_or_else(repeated)? = Some(value);
        Ok(())
    }

    /// Parse an instance from XML, typing fields via the schema: the
    /// decoder fed from the tree.
    pub fn from_xml(schema: &EventSchema, e: &Element) -> CssResult<Self> {
        let every = schema.fields.iter().map(|_| true).collect();
        let mut src = TreeSource::new(e);
        let tag = InstanceTag::read(src.root()?, &mut src)?;
        Self::decode(schema, &schema.instance_names(), tag, &mut src, &every)
    }
}

impl PartialEq for EventDetails {
    fn eq(&self, other: &Self) -> bool {
        let theirs = other.values_of(self.field_names());
        let same = |((_, value), their)| their == Some(value);
        self.event_type == other.event_type
            && self.len() == other.len()
            && self.iter().zip(theirs).all(same)
    }
}

impl Eq for EventDetails {}

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
        let text = css_xml::to_string(&xml);
        assert!(
            text.starts_with(r#"<AutonomyTest type="autonomy-test@v1" srcEventId="src-00000007">"#)
        );
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
        let other = css_xml::parse(r#"<BloodTest type="autonomy-test@v1"/>"#).unwrap();
        assert!(EventDetails::from_xml(&s, &other).is_err());
        let wrong_type = css_xml::parse(r#"<AutonomyTest type="blood-test@v1"/>"#).unwrap();
        assert!(EventDetails::from_xml(&s, &wrong_type).is_err());
    }

    #[test]
    fn from_xml_rejects_undeclared_field() {
        let s = schema();
        let doc = r#"<AutonomyTest type="autonomy-test@v1"><Hacked>1</Hacked></AutonomyTest>"#;
        assert!(EventDetails::from_xml(&s, &css_xml::parse(doc).unwrap()).is_err());
    }

    #[test]
    fn non_empty_fields_iterator() {
        let d = details().with("Diagnosis", FieldValue::Empty);
        let names: Vec<&str> = d.non_empty_fields().collect();
        // The order the fields were first set in.
        assert_eq!(names, vec!["Age", "Sex", "AutonomyScore"]);
    }

    #[test]
    fn a_decoded_instance_holds_its_schema_slots() {
        let s = schema();
        let names = s.instance_names();
        let built = EventDetails::new(s.id.clone())
            .with("Diagnosis", FieldValue::Empty)
            .with("Age", FieldValue::Integer(81));
        let text = css_xml::to_string(&built.to_xml(&s, None));
        let decoded = EventDetails::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        // Equal whatever the slot order; iterated in declaration order.
        assert_eq!(decoded, built);
        let order: Vec<&str> = decoded.field_names().collect();
        assert_eq!(order, vec!["Age", "Diagnosis"]);
        // The slots are the schema's: one per declared field.
        let shared = EventDetails::slots_of(s.id.clone(), &names);
        assert!(Arc::ptr_eq(&shared.names, &names.fields));
        assert_eq!((shared.values.len(), shared.len()), (4, 0));
        // Unequal on any value, any extra field or the type.
        assert_ne!(decoded, built.clone().with("Age", FieldValue::Integer(80)));
        assert_ne!(decoded, built.clone().with("Sex", FieldValue::Empty));
        let mut other = built.clone();
        other.event_type = EventTypeId::v1("other");
        assert_ne!(decoded, other);
    }

    #[test]
    fn a_wide_instance_reads_in_declaration_order_whatever_its_slot_order() {
        let wide = EventSchema::new(EventTypeId::v1("wide"), "Wide", ActorId(9));
        let s = (0..200).fold(wide, |s, i| {
            s.field(FieldDef::optional(format!("F{i}"), FieldKind::Integer))
        });
        // Built last field first, every third left out.
        let kept = |i: &i64| i % 3 != 0;
        let built = (0..200i64)
            .rev()
            .filter(kept)
            .fold(EventDetails::new(s.id.clone()), |d, i| {
                d.with(format!("F{i}"), FieldValue::Integer(i))
            });
        let order: Vec<&str> = built.in_order_of(&s).map(|(name, _)| name).collect();
        let declared: Vec<String> = (0..200).filter(kept).map(|i| format!("F{i}")).collect();
        assert_eq!(order, declared);
        let text = css_xml::to_string(&built.to_xml(&s, None));
        let decoded = EventDetails::from_xml(&s, &css_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, built);
        assert_eq!(built, decoded);
        assert_ne!(decoded, built.with("F199", FieldValue::Integer(0)));
    }

    #[test]
    fn a_mask_is_the_allowed_set_over_the_slots() {
        let d = details();
        let mask = d.mask(&allowed(&["Sex", "Diagnosis", "NotAField"]));
        let slots: Vec<bool> = (0..5).map(|slot| mask.contains(slot)).collect();
        assert_eq!(slots, vec![false, true, false, true, false]);
        let mut filtered = d.clone();
        filtered.blank_outside(&mask);
        assert_eq!(filtered, d.filtered_to(&allowed(&["Sex", "Diagnosis"])));
        assert!(filtered.exposes_only(&mask));
        assert!(!d.exposes_only(&mask));
        // Past the inline word, and far past it.
        let wide: FieldMask = (0..200).map(|slot| slot % 67 == 3).collect();
        let set: Vec<usize> = (0..300).filter(|&slot| wide.contains(slot)).collect();
        assert_eq!(set, vec![3, 70, 137]);
        assert!(!FieldMask::default().contains(1_000));
    }
}
