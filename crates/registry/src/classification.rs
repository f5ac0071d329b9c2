//! Classification schemes: taxonomy trees objects are filed under.
//!
//! The CSS catalog classifies event classes by care domain (e.g.
//! `health/laboratory`, `social/home-care`) so consumers can discover
//! the classes relevant to their mission before subscribing.

use std::collections::BTreeSet;

/// A named taxonomy. Nodes are identified by `/`-separated paths from
/// the scheme root, e.g. `"health/laboratory"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClassificationScheme {
    /// Scheme identifier (e.g. `"care-domain"`).
    pub(crate) id: String,
    /// Human-readable name.
    pub(crate) name: String,
    nodes: BTreeSet<String>,
}

impl ClassificationScheme {
    /// An empty scheme.
    pub(crate) fn new(id: impl Into<String>, name: impl Into<String>) -> Self {
        ClassificationScheme {
            id: id.into(),
            name: name.into(),
            nodes: BTreeSet::new(),
        }
    }

    /// Add a node path. Intermediate nodes are created implicitly, so
    /// adding `"health/laboratory"` also creates `"health"`.
    pub(crate) fn add_node(&mut self, path: &str) {
        let mut prefix = String::new();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(seg);
            self.nodes.insert(prefix.clone());
        }
    }

    /// Builder form of [`add_node`](Self::add_node).
    pub(crate) fn with_node(mut self, path: &str) -> Self {
        self.add_node(path);
        self
    }

    /// Whether the exact node exists.
    pub(crate) fn has_node(&self, path: &str) -> bool {
        self.nodes.contains(path)
    }

    /// Whether `node` equals `ancestor` or sits below it.
    pub(crate) fn is_under(node: &str, ancestor: &str) -> bool {
        node == ancestor
            || node
                .strip_prefix(ancestor)
                .is_some_and(|rest| rest.starts_with('/'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> ClassificationScheme {
        ClassificationScheme::new("care-domain", "Care Domain")
            .with_node("health/laboratory")
            .with_node("health/radiology")
            .with_node("social/home-care")
            .with_node("social/telecare")
    }

    #[test]
    fn intermediate_nodes_created() {
        let s = scheme();
        assert!(s.has_node("health"));
        assert!(s.has_node("health/laboratory"));
        assert!(!s.has_node("health/lab"));
    }

    #[test]
    fn is_under_semantics() {
        assert!(ClassificationScheme::is_under(
            "health/laboratory",
            "health"
        ));
        assert!(ClassificationScheme::is_under("health", "health"));
        assert!(!ClassificationScheme::is_under("healthcare", "health"));
        assert!(!ClassificationScheme::is_under(
            "health",
            "health/laboratory"
        ));
    }

    #[test]
    fn empty_segments_ignored() {
        let mut s = ClassificationScheme::new("x", "X");
        s.add_node("a//b/");
        assert!(s.has_node("a/b"));
    }
}
