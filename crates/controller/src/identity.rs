//! Credential-based identity management.
//!
//! The paper defers identity management to a national infrastructure
//! ("we plan to include as future extension of the infrastructure
//! identity management mechanisms ... for the identification of the
//! specific users accessing the information, to validate their
//! credentials and roles and to manage changes and revocation of
//! authorizations", Section 5). This module implements that extension
//! as an HMAC-based credential scheme:
//!
//! - the controller issues a [`Credential`] to each contracted actor
//!   (the tag binds actor id + serial under the controller's key, so
//!   credentials cannot be forged or transplanted to another actor);
//! - every credential can be **revoked** individually, and re-issuing
//!   rotates the serial;
//! - validation is O(1) and requires no per-request state beyond the
//!   revocation set.

use std::collections::{HashMap, HashSet};

use css_crypto::hmac_sha256;
use css_types::{ActorId, CssError, CssResult};

/// A bearer credential for one actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    /// The actor this credential identifies.
    pub actor: ActorId,
    /// Monotonic serial; rotated on re-issue.
    pub serial: u64,
    /// HMAC over (actor, serial) under the issuer key.
    pub tag: [u8; 32],
}

/// Issues, validates and revokes credentials.
pub struct IdentityManager {
    key: Vec<u8>,
    next_serial: u64,
    /// Latest serial issued per actor (older serials are implicitly
    /// invalid — re-issuing rotates).
    current: HashMap<ActorId, u64>,
    revoked: HashSet<u64>,
}

impl IdentityManager {
    /// A manager with its own issuing key derived from a master key.
    pub fn new(master_key: &[u8]) -> Self {
        let mut key = b"css-identity-v1:".to_vec();
        key.extend_from_slice(master_key);
        IdentityManager {
            key,
            next_serial: 1,
            current: HashMap::new(),
            revoked: HashSet::new(),
        }
    }

    fn tag_for(&self, actor: ActorId, serial: u64) -> [u8; 32] {
        let mut msg = actor.value().to_le_bytes().to_vec();
        msg.extend_from_slice(&serial.to_le_bytes());
        hmac_sha256(&self.key, &msg)
    }

    /// Issue (or rotate) the credential for an actor. Any previously
    /// issued credential for the same actor stops validating.
    pub fn issue(&mut self, actor: ActorId) -> Credential {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.current.insert(actor, serial);
        Credential {
            actor,
            serial,
            tag: self.tag_for(actor, serial),
        }
    }

    /// Validate a credential: the tag must verify, the serial must be
    /// the actor's current one, and it must not be revoked.
    pub fn validate(&self, credential: &Credential) -> CssResult<ActorId> {
        let expected = self.tag_for(credential.actor, credential.serial);
        if !css_crypto::hmac::verify_mac(&expected, &credential.tag) {
            return Err(CssError::Crypto("credential tag invalid".into()));
        }
        if self.revoked.contains(&credential.serial) {
            return Err(CssError::Crypto("credential revoked".into()));
        }
        match self.current.get(&credential.actor) {
            Some(serial) if *serial == credential.serial => Ok(credential.actor),
            _ => Err(CssError::Crypto("credential superseded".into())),
        }
    }

    /// Revoke a credential by serial. Idempotent.
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> IdentityManager {
        IdentityManager::new(b"master")
    }

    #[test]
    fn issue_validate_roundtrip() {
        let mut m = mgr();
        let cred = m.issue(ActorId(7));
        assert_eq!(m.validate(&cred).unwrap(), ActorId(7));
    }

    #[test]
    fn forged_tag_rejected() {
        let mut m = mgr();
        let mut cred = m.issue(ActorId(7));
        cred.tag[0] ^= 1;
        assert!(m.validate(&cred).is_err());
    }

    #[test]
    fn credential_bound_to_actor() {
        let mut m = mgr();
        let mut cred = m.issue(ActorId(7));
        // Transplant onto another actor: tag no longer matches.
        cred.actor = ActorId(8);
        assert!(m.validate(&cred).is_err());
    }

    #[test]
    fn revocation_invalidates() {
        let mut m = mgr();
        let cred = m.issue(ActorId(7));
        m.revoke(cred.serial);
        assert!(m.validate(&cred).is_err());
    }

    #[test]
    fn reissue_rotates_serial() {
        let mut m = mgr();
        let old = m.issue(ActorId(7));
        let new = m.issue(ActorId(7));
        assert_ne!(old.serial, new.serial);
        assert!(m.validate(&old).is_err(), "old credential superseded");
        assert!(m.validate(&new).is_ok());
    }

    #[test]
    fn different_master_keys_do_not_cross_validate() {
        let mut a = IdentityManager::new(b"key-a");
        let b = IdentityManager::new(b"key-b");
        let cred = a.issue(ActorId(7));
        assert!(b.validate(&cred).is_err());
    }
}
