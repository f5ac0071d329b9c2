//! The event catalog.
//!
//! "The data producer declares the ability to generate a certain type of
//! event (the Event Details). The structure of the event is specified by
//! an XSD that is 'installed' in an event catalog module. The event
//! catalog, as the structure of its events, is visible to any candidate
//! data consumer..." (Section 5).
//!
//! The catalog is a view over the [`Registry`]: every declared class of
//! event details becomes an approved `EventSchema` registry object whose
//! repository content is the schema's XML document, classified under the
//! care-domain taxonomy. That document is the paper-facing form; the
//! catalog also keeps the [`EventSchema`] it was handed at `declare`,
//! so no request re-parses XML the platform wrote itself.

use std::collections::HashMap;

use css_event::EventSchema;
use css_types::{ActorId, CssError, CssResult, EventTypeId};

use crate::classification::ClassificationScheme;
use crate::object::{ObjectStatus, RegistryObject};
use crate::query::Filter;
use crate::registry::Registry;

/// The catalog of event classes, backed by the registry.
#[derive(Debug, Default)]
pub struct EventCatalog {
    registry: Registry,
    /// The schema each registry object was built from. An object's
    /// content never changes once submitted (the registry is private
    /// to the catalog), so the two cannot drift apart.
    schemas: HashMap<EventTypeId, EventSchema>,
}

/// Scheme id used to classify event classes by care domain.
pub const CARE_DOMAIN_SCHEME: &str = "care-domain";

impl EventCatalog {
    /// A catalog with the default care-domain taxonomy installed.
    pub fn new() -> Self {
        let mut registry = Registry::new();
        registry.install_scheme(
            ClassificationScheme::new(CARE_DOMAIN_SCHEME, "Care Domain")
                .with_node("health/laboratory")
                .with_node("health/radiology")
                .with_node("health/hospital")
                .with_node("social/home-care")
                .with_node("social/telecare")
                .with_node("social/welfare"),
        );
        EventCatalog {
            registry,
            schemas: HashMap::new(),
        }
    }

    fn object_id(event_type: &EventTypeId) -> String {
        format!("urn:css:event:{event_type}")
    }

    /// Declare a class of event details, optionally classifying it under
    /// a care-domain node.
    pub fn declare(&mut self, schema: &EventSchema, domain: Option<&str>) -> CssResult<()> {
        let id = Self::object_id(&schema.id);
        let xml = css_xml::to_string(&schema.to_xml());
        let object = RegistryObject::new(id.clone(), "EventSchema", schema.display_name.clone())
            .slot("producer", schema.producer.to_string())
            .slot("code", schema.id.code())
            .slot("version", schema.id.version().to_string())
            .with_content(xml)
            .with_status(ObjectStatus::Approved);
        self.registry.submit(object)?;
        self.schemas.insert(schema.id.clone(), schema.clone());
        if let Some(node) = domain {
            self.registry.classify(&id, CARE_DOMAIN_SCHEME, node)?;
        }
        // Link versions: vN supersedes vN-1 when present.
        if schema.id.version() > 1 {
            let prev = EventTypeId::new(schema.id.code(), schema.id.version() - 1);
            let prev_id = Self::object_id(&prev);
            if self.registry.get(&prev_id).is_some() {
                self.registry
                    .associate(crate::association::Association::new(
                        id,
                        prev_id.clone(),
                        "supersedes",
                    ))?;
                self.registry
                    .set_status(&prev_id, ObjectStatus::Deprecated)?;
            }
        }
        Ok(())
    }

    /// Fetch the schema of a declared class.
    pub fn schema(&self, event_type: &EventTypeId) -> CssResult<EventSchema> {
        self.declared(event_type).cloned()
    }

    /// The producer that declared a class — all an ownership check needs.
    pub fn owner(&self, event_type: &EventTypeId) -> CssResult<ActorId> {
        self.declared(event_type).map(|schema| schema.producer)
    }

    fn declared(&self, event_type: &EventTypeId) -> CssResult<&EventSchema> {
        self.schemas
            .get(event_type)
            .ok_or_else(|| CssError::NotFound(format!("event class {event_type} not declared")))
    }

    /// Whether the class is declared.
    pub fn contains(&self, event_type: &EventTypeId) -> bool {
        self.schemas.contains_key(event_type)
    }

    /// Every class declared by a producer.
    pub fn by_producer(&self, producer: ActorId) -> Vec<EventTypeId> {
        self.types_matching(&Filter::SlotEq("producer".into(), producer.to_string()))
    }

    /// Every class classified under a care-domain node.
    pub fn by_domain(&self, node: &str) -> Vec<EventTypeId> {
        self.types_matching(&Filter::ClassifiedUnder {
            scheme: CARE_DOMAIN_SCHEME.into(),
            node: node.into(),
        })
    }

    /// Every declared class.
    pub fn all_types(&self) -> Vec<EventTypeId> {
        self.types_matching(&Filter::ByType("EventSchema".into()))
    }

    fn types_matching(&self, filter: &Filter) -> Vec<EventTypeId> {
        self.registry
            .query(&Filter::ByType("EventSchema".into()).and(filter.clone()))
            .iter()
            .filter_map(|o| {
                let code = o.get_slot("code")?;
                let version: u32 = o.get_slot("version")?.parse().ok()?;
                Some(EventTypeId::new(code, version))
            })
            .collect()
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_event::{FieldDef, FieldKind};

    fn blood_test(version: u32) -> EventSchema {
        EventSchema::new(
            EventTypeId::new("blood-test", version),
            "Blood Test",
            ActorId(1),
        )
        .field(FieldDef::required("PatientId", FieldKind::Integer))
        .field(FieldDef::optional("Result", FieldKind::Text).sensitive())
    }

    #[test]
    fn declare_and_fetch_roundtrip() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), Some("health/laboratory"))
            .unwrap();
        assert!(cat.contains(&EventTypeId::v1("blood-test")));
        let schema = cat.schema(&EventTypeId::v1("blood-test")).unwrap();
        assert_eq!(schema, blood_test(1));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), None).unwrap();
        assert!(cat.declare(&blood_test(1), None).is_err());
    }

    #[test]
    fn unknown_type_errors() {
        let cat = EventCatalog::new();
        assert!(cat.schema(&EventTypeId::v1("nope")).is_err());
        assert!(!cat.contains(&EventTypeId::v1("nope")));
    }

    #[test]
    fn producer_listing() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), None).unwrap();
        let other = EventSchema::new(EventTypeId::v1("home-care"), "Home Care", ActorId(2));
        cat.declare(&other, Some("social/home-care")).unwrap();
        assert_eq!(
            cat.by_producer(ActorId(1)),
            vec![EventTypeId::v1("blood-test")]
        );
        assert_eq!(
            cat.by_producer(ActorId(2)),
            vec![EventTypeId::v1("home-care")]
        );
        assert!(cat.by_producer(ActorId(3)).is_empty());
        assert_eq!(cat.all_types().len(), 2);
    }

    #[test]
    fn domain_listing() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), Some("health/laboratory"))
            .unwrap();
        assert_eq!(cat.by_domain("health").len(), 1);
        assert!(cat.by_domain("social").is_empty());
    }

    #[test]
    fn new_version_supersedes_and_deprecates_old() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), None).unwrap();
        cat.declare(&blood_test(2), None).unwrap();
        let old_id = "urn:css:event:blood-test@v1";
        assert_eq!(
            cat.registry.get(old_id).unwrap().status,
            ObjectStatus::Deprecated
        );
        let links: Vec<_> = cat
            .registry
            .associations
            .iter()
            .filter(|a| a.target == old_id)
            .map(|a| a.assoc_type.as_str())
            .collect();
        assert_eq!(links, vec!["supersedes"]);
        // Both versions remain fetchable.
        assert!(cat.schema(&EventTypeId::new("blood-test", 1)).is_ok());
        assert!(cat.schema(&EventTypeId::new("blood-test", 2)).is_ok());
    }

    /// What the catalog answered when it parsed the registry object's
    /// content on every call.
    fn from_registry_content(cat: &EventCatalog, ty: &EventTypeId) -> EventSchema {
        let object = cat.registry.get(&EventCatalog::object_id(ty)).unwrap();
        let doc = css_xml::parse(object.content.as_deref().unwrap()).unwrap();
        EventSchema::from_xml(&doc).unwrap()
    }

    #[test]
    fn kept_schema_equals_the_registry_content_for_every_class() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), Some("health/laboratory"))
            .unwrap();
        let home_care = EventSchema::new(EventTypeId::v1("home-care"), "Home Care", ActorId(2))
            .field(FieldDef::optional("Hours", FieldKind::Integer));
        cat.declare(&home_care, Some("social/home-care")).unwrap();
        // v2 deprecates v1's registry object; v1 still answers.
        let v2 = blood_test(2).field(FieldDef::optional("Lab", FieldKind::Text));
        cat.declare(&v2, None).unwrap();
        let types = cat.all_types();
        assert_eq!(types.len(), 3);
        for ty in &types {
            let kept = cat.schema(ty).unwrap();
            assert_eq!(kept, from_registry_content(&cat, ty), "{ty}");
            assert_eq!(cat.owner(ty).unwrap(), kept.producer, "{ty}");
        }
        assert_eq!(cat.schema(&v2.id).unwrap(), v2);
        assert_eq!(cat.schema(&blood_test(1).id).unwrap(), blood_test(1));
    }

    #[test]
    fn rejected_duplicate_leaves_the_catalog_answering_as_before() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), None).unwrap();
        // Same class id, different producer and fields: rejected whole.
        let usurper = EventSchema::new(EventTypeId::v1("blood-test"), "Usurper", ActorId(9));
        assert!(cat.declare(&usurper, None).is_err());
        let ty = EventTypeId::v1("blood-test");
        assert_eq!(cat.schema(&ty).unwrap(), blood_test(1));
        assert_eq!(cat.owner(&ty).unwrap(), ActorId(1));
        assert_eq!(from_registry_content(&cat, &ty), blood_test(1));
        assert_eq!(cat.len(), 1);
        assert!(matches!(
            cat.owner(&EventTypeId::v1("nope")),
            Err(CssError::NotFound(_))
        ));
    }

    #[test]
    fn declare_with_bad_domain_fails() {
        let mut cat = EventCatalog::new();
        assert!(cat.declare(&blood_test(1), Some("health/surgery")).is_err());
    }
}
