//! Registry objects: the unit of metadata the registry manages.

use std::collections::BTreeMap;
use std::fmt;

/// Lifecycle status of a registry object (ebXML registry semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ObjectStatus {
    /// Submitted but not yet approved for general use.
    #[default]
    Submitted,
    /// Approved: visible to all authorized parties.
    Approved,
    /// Deprecated: kept for reference, discouraged for new use.
    Deprecated,
}

impl fmt::Display for ObjectStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectStatus::Submitted => "submitted",
            ObjectStatus::Approved => "approved",
            ObjectStatus::Deprecated => "deprecated",
        };
        f.write_str(s)
    }
}

/// A registry object: identified metadata with named slots and an
/// optional repository content blob (e.g. an event schema document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegistryObject {
    /// Registry-unique identifier.
    pub(crate) id: String,
    /// Object type discriminator (e.g. `"EventSchema"`).
    pub(crate) object_type: String,
    /// Human-readable name.
    pub(crate) name: String,
    /// Extensible metadata slots.
    pub(crate) slots: BTreeMap<String, String>,
    /// Lifecycle status.
    pub(crate) status: ObjectStatus,
    /// Repository item content (XML text), if any.
    pub(crate) content: Option<String>,
}

impl RegistryObject {
    /// A new submitted object with no slots or content.
    pub(crate) fn new(
        id: impl Into<String>,
        object_type: impl Into<String>,
        name: impl Into<String>,
    ) -> Self {
        RegistryObject {
            id: id.into(),
            object_type: object_type.into(),
            name: name.into(),
            slots: BTreeMap::new(),
            status: ObjectStatus::Submitted,
            content: None,
        }
    }

    /// Builder: set a slot.
    pub(crate) fn slot(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.slots.insert(key.into(), value.into());
        self
    }

    /// Builder: attach repository content.
    pub(crate) fn with_content(mut self, content: impl Into<String>) -> Self {
        self.content = Some(content.into());
        self
    }

    /// Builder: set the status.
    pub(crate) fn with_status(mut self, status: ObjectStatus) -> Self {
        self.status = status;
        self
    }

    /// Value of a slot.
    pub(crate) fn get_slot(&self, key: &str) -> Option<&str> {
        self.slots.get(key).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_slots() {
        let o = RegistryObject::new("urn:css:event:blood-test", "EventSchema", "Blood Test")
            .slot("producer", "act-00000001")
            .slot("version", "1")
            .with_content("<EventSchema/>")
            .with_status(ObjectStatus::Approved);
        assert_eq!(o.get_slot("version"), Some("1"));
        assert_eq!(o.get_slot("missing"), None);
        assert_eq!(o.status, ObjectStatus::Approved);
        assert_eq!(o.content.as_deref(), Some("<EventSchema/>"));
    }

    #[test]
    fn status_display() {
        assert_eq!(ObjectStatus::Submitted.to_string(), "submitted");
        assert_eq!(ObjectStatus::default(), ObjectStatus::Submitted);
    }
}
