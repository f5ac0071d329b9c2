//! Authorization decisions produced by the PDP.

use std::collections::BTreeSet;
use std::sync::Arc;

use css_types::{DenyReason, PolicyId};

/// The outcome of evaluating a detail request against the policy set,
/// by value: [`Verdict`] is the form the PDP holds and shares.
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
}

/// The shared permit, copied out by value.
impl From<&Verdict> for Decision {
    fn from(verdict: &Verdict) -> Self {
        match verdict {
            Ok(permit) => Decision::Permit {
                allowed_fields: BTreeSet::clone(&permit.allowed_fields),
                matched_policies: permit.matched_policies.clone(),
            },
            Err(reason) => Decision::Deny(*reason),
        }
    }
}

/// What a permit grants, derived once — when its decision is computed
/// — and shared by every request the decision cache answers with it:
/// the allowed fields, the matching policies and the detail text of
/// the permit's audit record.
///
/// Its fields are private and only this crate builds one, so a permit
/// still exists only if an installed policy produced it:
///
/// ```compile_fail,E0451
/// let forged = css_policy::Permit {
///     allowed_fields: Default::default(),
///     matched_policies: Vec::new(),
///     audit_detail: String::new(),
/// };
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Permit {
    allowed_fields: Arc<BTreeSet<String>>,
    matched_policies: Vec<PolicyId>,
    audit_detail: String,
}

impl Permit {
    /// The permit of the policies `matched_policies` (install order),
    /// granting `allowed_fields` between them.
    pub(crate) fn new(allowed_fields: BTreeSet<String>, matched_policies: Vec<PolicyId>) -> Self {
        let ids: Vec<String> = matched_policies.iter().map(ToString::to_string).collect();
        Permit {
            audit_detail: format!("matched: {}", ids.join(",")),
            allowed_fields: Arc::new(allowed_fields),
            matched_policies,
        }
    }

    /// Union of `F` over every matching policy: the obligation, shared
    /// with each response released under it.
    pub fn allowed_fields(&self) -> &Arc<BTreeSet<String>> {
        &self.allowed_fields
    }

    /// The detail of the permit's audit record: `matched: ` and the
    /// policy ids, comma-separated.
    pub fn audit_detail(&self) -> &str {
        &self.audit_detail
    }
}

/// A decision as the PDP computes, caches and shares it: the permit,
/// or why the request is denied.
pub type Verdict = Result<Arc<Permit>, DenyReason>;

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
        let deny = Decision::Deny(DenyReason::NoMatchingPolicy);
        assert!(!deny.is_permit());
    }

    #[test]
    fn a_permit_derives_its_audit_text_once_and_converts_by_value() {
        let fields: BTreeSet<String> = ["b".to_string(), "a".to_string()].into_iter().collect();
        let permit = Permit::new(fields.clone(), vec![PolicyId(7), PolicyId(3)]);
        assert_eq!(permit.audit_detail(), "matched: pol-00000007,pol-00000003");
        assert_eq!(**permit.allowed_fields(), fields);
        assert_eq!(
            Decision::from(&Ok(Arc::new(permit))),
            Decision::Permit {
                allowed_fields: fields,
                matched_policies: vec![PolicyId(7), PolicyId(3)],
            }
        );
        assert_eq!(
            Decision::from(&Err(DenyReason::PolicyExpired)),
            Decision::Deny(DenyReason::PolicyExpired)
        );
    }
}
