//! Authorization decisions produced by the PDP.

use std::collections::BTreeSet;

use css_types::{DenyReason, PolicyId};

/// The outcome of evaluating a detail request against the policy set.
///
/// Definitions 3–4 make release deny-by-default: a permit exists only
/// if an installed policy produced it. `Permit` is `#[non_exhaustive]`,
/// so no crate but this one can construct it:
///
/// ```compile_fail,E0639
/// let forged = css_policy::Decision::Permit {
///     allowed_fields: Default::default(),
///     matched_policies: Vec::new(),
/// };
/// ```
///
/// Elsewhere it can only be matched, with `..` (stable rustdoc does not
/// check the code in the fence above; this twin, which must compile,
/// is what pins the names the forgery uses):
///
/// ```
/// fn granted(decision: &css_policy::Decision) -> usize {
///     match decision {
///         css_policy::Decision::Permit {
///             allowed_fields,
///             matched_policies,
///             ..
///         } => allowed_fields.len() + matched_policies.len(),
///         css_policy::Decision::Deny(_) => 0,
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The request is authorized. Carries the obligation: only the
    /// fields in `allowed_fields` may be released (the producer applies
    /// this in Algorithm 2).
    #[non_exhaustive]
    Permit {
        /// Union of `F` over every matching policy.
        allowed_fields: BTreeSet<String>,
        /// The policies that granted access, for the audit record.
        matched_policies: Vec<PolicyId>,
    },
    /// The request is denied. `deny-by-default`: this is also the
    /// outcome when no policy exists at all.
    Deny(DenyReason),
}

impl Decision {
    /// Whether this is a permit.
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::Permit { .. })
    }

    /// The allowed fields of a permit, or `None` for a deny.
    pub fn allowed_fields(&self) -> Option<&BTreeSet<String>> {
        match self {
            Decision::Permit { allowed_fields, .. } => Some(allowed_fields),
            Decision::Deny(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let permit = Decision::Permit {
            allowed_fields: ["a".to_string()].into_iter().collect(),
            matched_policies: vec![PolicyId(1)],
        };
        assert!(permit.is_permit());
        assert_eq!(permit.allowed_fields().unwrap().len(), 1);
        let deny = Decision::Deny(DenyReason::NoMatchingPolicy);
        assert!(!deny.is_permit());
        assert!(deny.allowed_fields().is_none());
    }
}
