//! The filter query language (the ebXML "filter query" subset).

use crate::object::RegistryObject;

/// A composable predicate over registry objects.
///
/// Classification predicates are evaluated by the registry,
/// which holds the object→node mapping; the other predicates are pure
/// functions of the object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Filter {
    /// Object type equals the given string.
    ByType(String),
    /// Slot `key` exists and equals `value`.
    SlotEq(String, String),
    /// Object is classified under the given scheme node (or below it).
    ClassifiedUnder {
        /// Classification scheme id.
        scheme: String,
        /// Node path; descendants match too.
        node: String,
    },
    /// Both sub-filters match.
    And(Box<Filter>, Box<Filter>),
}

impl Filter {
    /// `self AND other`.
    pub(crate) fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// Evaluate the object-local part of the filter.
    /// `classified` answers the `ClassifiedUnder` predicate.
    pub(crate) fn matches(
        &self,
        object: &RegistryObject,
        classified: &dyn Fn(&str, &str, &str) -> bool,
    ) -> bool {
        match self {
            Filter::ByType(t) => &object.object_type == t,
            Filter::SlotEq(k, v) => object.get_slot(k) == Some(v.as_str()),
            Filter::ClassifiedUnder { scheme, node } => classified(&object.id, scheme, node),
            Filter::And(a, b) => a.matches(object, classified) && b.matches(object, classified),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> RegistryObject {
        RegistryObject::new("id-1", "EventSchema", "Blood Test").slot("producer", "act-00000001")
    }

    fn no_class(_: &str, _: &str, _: &str) -> bool {
        false
    }

    #[test]
    fn leaf_predicates() {
        let o = obj();
        assert!(Filter::ByType("EventSchema".into()).matches(&o, &no_class));
        assert!(!Filter::ByType("Other".into()).matches(&o, &no_class));
        assert!(Filter::SlotEq("producer".into(), "act-00000001".into()).matches(&o, &no_class));
        assert!(!Filter::SlotEq("producer".into(), "act-00000002".into()).matches(&o, &no_class));
        assert!(!Filter::SlotEq("version".into(), "1".into()).matches(&o, &no_class));
    }

    #[test]
    fn conjunction() {
        let o = obj();
        let producer = Filter::SlotEq("producer".into(), "act-00000001".into());
        let both = Filter::ByType("EventSchema".into()).and(producer.clone());
        assert!(both.matches(&o, &no_class));
        assert!(!Filter::ByType("Nope".into())
            .and(producer)
            .matches(&o, &no_class));
    }

    #[test]
    fn classification_delegates() {
        let o = obj();
        let f = Filter::ClassifiedUnder {
            scheme: "care-domain".into(),
            node: "health".into(),
        };
        let yes = |id: &str, scheme: &str, node: &str| {
            id == "id-1" && scheme == "care-domain" && node == "health"
        };
        assert!(f.matches(&o, &yes));
        assert!(!f.matches(&o, &no_class));
    }
}
