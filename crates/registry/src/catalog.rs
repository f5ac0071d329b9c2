//! The event catalog.
//!
//! "The data producer declares the ability to generate a certain type of
//! event (the Event Details). The structure of the event is specified by
//! an XSD that is 'installed' in an event catalog module. The event
//! catalog, as the structure of its events, is visible to any candidate
//! data consumer..." (Section 5).
//!
//! The catalog keeps, per declared class of event details, the
//! [`EventSchema`] it was handed at `declare` and the care-domain node
//! it was classified under. Versions of one class are classes of their
//! own, kept side by side.

use std::collections::HashMap;

use css_event::EventSchema;
use css_types::{ActorId, CssError, CssResult, EventTypeId};

/// Scheme id used to classify event classes by care domain.
pub const CARE_DOMAIN_SCHEME: &str = "care-domain";

/// The care-domain taxonomy: every node a class may be classified
/// under, the intermediate ones included.
const CARE_DOMAIN_NODES: [&str; 8] = [
    "health",
    "health/hospital",
    "health/laboratory",
    "health/radiology",
    "social",
    "social/home-care",
    "social/telecare",
    "social/welfare",
];

/// The catalog of event classes.
#[derive(Debug, Default)]
pub struct EventCatalog {
    /// Each declared class: its schema and its care-domain node.
    classes: HashMap<EventTypeId, (EventSchema, Option<&'static str>)>,
}

impl EventCatalog {
    /// An empty catalog over the care-domain taxonomy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a class of event details, optionally classifying it under
    /// a care-domain node. A refused declare keeps nothing.
    pub fn declare(&mut self, schema: &EventSchema, domain: Option<&str>) -> CssResult<()> {
        if self.classes.contains_key(&schema.id) {
            return Err(CssError::AlreadyExists(format!(
                "event class {} already declared",
                schema.id
            )));
        }
        let node = domain
            .map(|node| {
                let known = CARE_DOMAIN_NODES.into_iter().find(|known| *known == node);
                known.ok_or_else(|| {
                    CssError::NotFound(format!("node {node:?} not in scheme {CARE_DOMAIN_SCHEME}"))
                })
            })
            .transpose()?;
        self.classes
            .insert(schema.id.clone(), (schema.clone(), node));
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
        self.classes
            .get(event_type)
            .map(|(schema, _)| schema)
            .ok_or_else(|| CssError::NotFound(format!("event class {event_type} not declared")))
    }

    /// Whether the class is declared.
    pub fn contains(&self, event_type: &EventTypeId) -> bool {
        self.classes.contains_key(event_type)
    }

    /// Every class declared by a producer.
    pub fn by_producer(&self, producer: ActorId) -> Vec<EventTypeId> {
        self.types_where(|schema, _| schema.producer == producer)
    }

    /// Every class classified at or below a care-domain node.
    pub fn by_domain(&self, node: &str) -> Vec<EventTypeId> {
        self.types_where(|_, at| at.is_some_and(|at| is_under(at, node)))
    }

    /// Every declared class.
    pub fn all_types(&self) -> Vec<EventTypeId> {
        self.types_where(|_, _| true)
    }

    /// The classes `keep` selects, sorted by their text form.
    fn types_where(&self, keep: impl Fn(&EventSchema, Option<&str>) -> bool) -> Vec<EventTypeId> {
        let mut types: Vec<EventTypeId> = self
            .classes
            .iter()
            .filter(|(_, (schema, node))| keep(schema, *node))
            .map(|(ty, _)| ty.clone())
            .collect();
        types.sort_by_cached_key(EventTypeId::to_string);
        types
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Whether `node` equals `ancestor` or sits below it.
fn is_under(node: &str, ancestor: &str) -> bool {
    node.strip_prefix(ancestor)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
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
    fn rejected_duplicate_leaves_the_catalog_answering_as_before() {
        let mut cat = EventCatalog::new();
        cat.declare(&blood_test(1), None).unwrap();
        // Same class id, different producer and fields: rejected whole.
        let usurper = EventSchema::new(EventTypeId::v1("blood-test"), "Usurper", ActorId(9));
        assert!(cat.declare(&usurper, None).is_err());
        let ty = EventTypeId::v1("blood-test");
        assert_eq!(cat.schema(&ty).unwrap(), blood_test(1));
        assert_eq!(cat.owner(&ty).unwrap(), ActorId(1));
        assert_eq!(cat.len(), 1);
        assert!(matches!(
            cat.owner(&EventTypeId::v1("nope")),
            Err(CssError::NotFound(_))
        ));
    }

    /// A refused declare keeps nothing, so a retry with a valid domain
    /// succeeds.
    #[test]
    fn declare_with_bad_domain_fails() {
        let mut cat = EventCatalog::new();
        let ty = EventTypeId::v1("blood-test");
        assert!(matches!(
            cat.declare(&blood_test(1), Some("health/surgery")),
            Err(CssError::NotFound(_))
        ));
        assert!(!cat.contains(&ty));
        assert!(cat.is_empty());
        cat.declare(&blood_test(1), Some("health/laboratory"))
            .unwrap();
        assert_eq!(cat.by_domain("health"), vec![ty.clone()]);
        assert_eq!(cat.schema(&ty).unwrap(), blood_test(1));
    }
}
