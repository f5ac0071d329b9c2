//! The oracle: an independent reference for Definitions 3–4 (matching
//! policy, deny by default, field union) and the consent gate, plus the
//! checks that compare what the platform returned with what the model
//! predicted. Any mismatch is a failed operation.

use css_event::{NotificationMessage, PrivacyAwareEvent};
use css_types::{CssError, CssResult, DenyReason, GlobalEventId, Purpose, Timestamp};

use crate::model::Model;
use crate::world::Class;

impl Model {
    /// Reference decision for a detail request by `who` about an event
    /// of `class` concerning `citizen`: the released field mask, or the
    /// reason Algorithm 1 must deny with. The requester is assumed
    /// notified (the generator only asks as notified requesters).
    pub fn decide(
        &self,
        who: u32,
        citizen: u32,
        class: u8,
        purpose: &Purpose,
        now: Timestamp,
    ) -> Result<u16, DenyReason> {
        // The consent gate precedes the policy decision.
        if self.out[citizen as usize] {
            return Err(DenyReason::ConsentWithheld);
        }
        let mut fields = 0u16;
        let mut matched = false;
        // The most specific failure wins: wrong purpose over no
        // policy at all, outside validity over wrong purpose.
        let mut reason = DenyReason::NoMatchingPolicy;
        for g in self.grants_for(who, class) {
            if g.revoked {
                continue;
            }
            if !g.purposes.contains(purpose) {
                if reason == DenyReason::NoMatchingPolicy {
                    reason = DenyReason::PurposeNotAllowed;
                }
            } else if g.not_after.is_some_and(|end| now > end) {
                reason = DenyReason::PolicyExpired;
            } else {
                matched = true;
                fields |= g.fields;
            }
        }
        if matched {
            Ok(fields)
        } else {
            Err(reason)
        }
    }

    /// Reference for the subscription / inquiry gate: some live,
    /// in-window policy covers `who` (or an ancestor) on `class`.
    pub fn authorized(&self, who: u32, class: u8, now: Timestamp) -> bool {
        self.grants_for(who, class)
            .any(|g| !g.revoked && g.not_after.is_none_or(|end| now <= end))
    }
}

/// A detail response must release exactly the expected fields, or be
/// denied for exactly the expected reason.
pub fn check_detail(
    class: &Class,
    gid: GlobalEventId,
    expect: &Result<u16, DenyReason>,
    got: &CssResult<PrivacyAwareEvent>,
) -> Result<(), String> {
    match (expect, got) {
        (Ok(mask), Ok(event)) => {
            if event.global_id != gid {
                return Err(format!("response for {} not {gid}", event.global_id));
            }
            for (i, field) in class.fields.iter().enumerate() {
                let released = event.details.get(field).is_some_and(|v| !v.is_empty());
                let expected = mask & (1 << i) != 0;
                if released != expected {
                    return Err(format!(
                        "{gid} field {field}: released={released} expected={expected}"
                    ));
                }
            }
            Ok(())
        }
        (Err(reason), Err(CssError::AccessDenied(got))) if reason == got => Ok(()),
        (expect, got) => Err(format!(
            "{gid}: expected {expect:?}, got {:?}",
            got.as_ref().map(|e| &e.allowed_fields)
        )),
    }
}

/// An inquiry must return exactly the expected events, in id order.
pub fn check_ids(expect: &[GlobalEventId], got: &[NotificationMessage]) -> Result<(), String> {
    if got.len() == expect.len() && got.iter().zip(expect).all(|(n, id)| n.global_id == *id) {
        return Ok(());
    }
    Err(format!(
        "inquiry returned {} events, expected {}",
        got.len(),
        expect.len()
    ))
}
