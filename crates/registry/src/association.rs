//! Associations: typed links between registry objects.

/// A directed, typed link between two registry objects, e.g.
/// `event:blood-test@v2 --supersedes--> event:blood-test@v1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Association {
    /// Source object id.
    pub(crate) source: String,
    /// Target object id.
    pub(crate) target: String,
    /// Association type (e.g. `"supersedes"`, `"produced-by"`).
    pub(crate) assoc_type: String,
}

impl Association {
    /// Construct an association.
    pub(crate) fn new(
        source: impl Into<String>,
        target: impl Into<String>,
        assoc_type: impl Into<String>,
    ) -> Self {
        Association {
            source: source.into(),
            target: target.into(),
            assoc_type: assoc_type.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let a = Association::new("a", "b", "supersedes");
        assert_eq!(a.source, "a");
        assert_eq!(a.assoc_type, "supersedes");
    }
}
