//! The registry itself: object store, classifications, associations,
//! queries.

use std::collections::{BTreeSet, HashMap};

use css_types::{CssError, CssResult};

use crate::association::Association;
use crate::classification::ClassificationScheme;
use crate::object::{ObjectStatus, RegistryObject};
use crate::query::Filter;

/// In-memory ebXML-style registry.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    objects: HashMap<String, RegistryObject>,
    schemes: HashMap<String, ClassificationScheme>,
    /// object id → set of (scheme id, node path)
    classifications: HashMap<String, BTreeSet<(String, String)>>,
    pub(crate) associations: Vec<Association>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    // ---- objects ---------------------------------------------------

    /// Submit a new object. Fails on duplicate id.
    pub(crate) fn submit(&mut self, object: RegistryObject) -> CssResult<()> {
        if self.objects.contains_key(&object.id) {
            return Err(CssError::AlreadyExists(format!(
                "registry object {} already submitted",
                object.id
            )));
        }
        self.objects.insert(object.id.clone(), object);
        Ok(())
    }

    /// Fetch an object by id.
    pub(crate) fn get(&self, id: &str) -> Option<&RegistryObject> {
        self.objects.get(id)
    }

    /// Change the lifecycle status of an object.
    pub(crate) fn set_status(&mut self, id: &str, status: ObjectStatus) -> CssResult<()> {
        match self.objects.get_mut(id) {
            Some(o) => {
                o.status = status;
                Ok(())
            }
            None => Err(CssError::NotFound(format!(
                "registry object {id} not found"
            ))),
        }
    }

    /// Number of stored objects.
    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the registry holds no objects.
    pub(crate) fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    // ---- classification ---------------------------------------------

    /// Install (or replace) a classification scheme.
    pub(crate) fn install_scheme(&mut self, scheme: ClassificationScheme) {
        self.schemes.insert(scheme.id.clone(), scheme);
    }

    /// Classify an object under a scheme node. Both must exist.
    pub(crate) fn classify(
        &mut self,
        object_id: &str,
        scheme_id: &str,
        node: &str,
    ) -> CssResult<()> {
        if !self.objects.contains_key(object_id) {
            return Err(CssError::NotFound(format!(
                "registry object {object_id} not found"
            )));
        }
        let scheme = self
            .schemes
            .get(scheme_id)
            .ok_or_else(|| CssError::NotFound(format!("scheme {scheme_id} not found")))?;
        if !scheme.has_node(node) {
            return Err(CssError::NotFound(format!(
                "node {node:?} not in scheme {scheme_id}"
            )));
        }
        self.classifications
            .entry(object_id.to_string())
            .or_default()
            .insert((scheme_id.to_string(), node.to_string()));
        Ok(())
    }

    /// Whether `object_id` is classified at or below `node` in `scheme`.
    pub(crate) fn is_classified_under(&self, object_id: &str, scheme_id: &str, node: &str) -> bool {
        self.classifications
            .get(object_id)
            .map(|set| {
                set.iter()
                    .any(|(s, n)| s == scheme_id && ClassificationScheme::is_under(n, node))
            })
            .unwrap_or(false)
    }

    // ---- associations ------------------------------------------------

    /// Associate two existing objects.
    pub(crate) fn associate(&mut self, assoc: Association) -> CssResult<()> {
        for id in [&assoc.source, &assoc.target] {
            if !self.objects.contains_key(id) {
                return Err(CssError::NotFound(format!(
                    "registry object {id} not found"
                )));
            }
        }
        self.associations.push(assoc);
        Ok(())
    }

    // ---- queries -----------------------------------------------------

    /// All objects matching a filter, sorted by id for determinism.
    pub(crate) fn query(&self, filter: &Filter) -> Vec<&RegistryObject> {
        let classified =
            |id: &str, scheme: &str, node: &str| self.is_classified_under(id, scheme, node);
        let mut out: Vec<&RegistryObject> = self
            .objects
            .values()
            .filter(|o| filter.matches(o, &classified))
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Registry {
        let mut reg = Registry::new();
        reg.install_scheme(
            ClassificationScheme::new("care-domain", "Care Domain")
                .with_node("health/laboratory")
                .with_node("social/home-care"),
        );
        reg.submit(
            RegistryObject::new("evt:blood-test@v1", "EventSchema", "Blood Test")
                .slot("producer", "act-00000001"),
        )
        .unwrap();
        reg.submit(
            RegistryObject::new("evt:home-care@v1", "EventSchema", "Home Care Service")
                .slot("producer", "act-00000002"),
        )
        .unwrap();
        reg.classify("evt:blood-test@v1", "care-domain", "health/laboratory")
            .unwrap();
        reg.classify("evt:home-care@v1", "care-domain", "social/home-care")
            .unwrap();
        reg
    }

    #[test]
    fn submit_and_get() {
        let reg = setup();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("evt:blood-test@v1").unwrap().name, "Blood Test");
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn duplicate_submit_rejected() {
        let mut reg = setup();
        let err = reg
            .submit(RegistryObject::new(
                "evt:blood-test@v1",
                "EventSchema",
                "Dup",
            ))
            .unwrap_err();
        assert!(matches!(err, CssError::AlreadyExists(_)));
    }

    #[test]
    fn classification_queries() {
        let reg = setup();
        let health = reg.query(&Filter::ClassifiedUnder {
            scheme: "care-domain".into(),
            node: "health".into(),
        });
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].id, "evt:blood-test@v1");
    }

    #[test]
    fn classify_validates_object_scheme_and_node() {
        let mut reg = setup();
        assert!(reg.classify("nope", "care-domain", "health").is_err());
        assert!(reg.classify("evt:blood-test@v1", "nope", "health").is_err());
        assert!(reg
            .classify("evt:blood-test@v1", "care-domain", "health/surgery")
            .is_err());
    }

    #[test]
    fn slot_and_type_queries() {
        let reg = setup();
        let by_producer = reg.query(&Filter::SlotEq("producer".into(), "act-00000002".into()));
        assert_eq!(by_producer.len(), 1);
        assert_eq!(by_producer[0].id, "evt:home-care@v1");
        // Sorted by id, whatever the map's order.
        let all = reg.query(&Filter::ByType("EventSchema".into()));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, "evt:blood-test@v1");
    }

    #[test]
    fn associate_needs_both_endpoints() {
        let mut reg = setup();
        reg.associate(Association::new(
            "evt:home-care@v1",
            "evt:blood-test@v1",
            "relates-to",
        ))
        .unwrap();
        assert!(reg
            .associate(Association::new("missing", "evt:blood-test@v1", "x"))
            .is_err());
        assert!(reg
            .associate(Association::new("evt:blood-test@v1", "missing", "x"))
            .is_err());
        assert_eq!(reg.associations.len(), 1);
    }

    #[test]
    fn status_transitions() {
        let mut reg = setup();
        reg.set_status("evt:blood-test@v1", ObjectStatus::Approved)
            .unwrap();
        let status = |id| reg.get(id).unwrap().status;
        assert_eq!(status("evt:blood-test@v1"), ObjectStatus::Approved);
        assert_eq!(status("evt:home-care@v1"), ObjectStatus::Submitted);
        assert!(reg.set_status("missing", ObjectStatus::Approved).is_err());
    }
}
