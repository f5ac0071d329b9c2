//! The persistent policy repository.
//!
//! The data controller "acts as guarantor and as certificated repository
//! of the privacy policies" (Section 5). Policies are persisted in their
//! XACML form through the `css-storage` keyed store, so the repository
//! survives restarts and can be audited byte-for-byte. The controller
//! owns the one repository: it saves each define and each revoke (the
//! policy marked revoked, kept for audit) before applying it, and loads
//! them all at open.

use css_storage::{KvStore, LogBackend};
use css_types::{CssError, CssResult, PolicyId};

use crate::model::PrivacyPolicy;
use crate::xacml::{from_xacml, to_xacml};

/// Durable store of privacy policies, keyed by policy id.
pub struct PolicyRepository<B: LogBackend> {
    store: KvStore<B>,
}

impl<B: LogBackend> PolicyRepository<B> {
    /// Open a repository over a storage backend, replaying existing
    /// policies.
    pub fn open(backend: B) -> CssResult<Self> {
        let (store, _torn) = KvStore::open(backend)?;
        Ok(PolicyRepository { store })
    }

    /// Persist a policy (insert or replace).
    pub fn save(&mut self, policy: &PrivacyPolicy) -> CssResult<()> {
        let xml = css_xml::to_string(&to_xacml(policy));
        self.store.put(&key(policy.id), xml.as_bytes())?;
        self.store.sync()
    }

    /// Load a policy by id.
    pub fn load(&self, id: PolicyId) -> CssResult<Option<PrivacyPolicy>> {
        self.store.get(&key(id))?.map(decode).transpose()
    }

    /// Load every stored policy, ascending by id.
    pub fn load_all(&self) -> CssResult<Vec<PrivacyPolicy>> {
        let mut out = Vec::with_capacity(self.store.len());
        for k in self.store.keys() {
            let bytes = self
                .store
                .get(k)?
                .ok_or_else(|| CssError::Storage("key vanished during scan".into()))?;
            out.push(decode(bytes)?);
        }
        out.sort_by_key(|p| p.id);
        Ok(out)
    }

    /// Number of stored policies.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

fn key(id: PolicyId) -> Vec<u8> {
    format!("policy:{}", id.value()).into_bytes()
}

/// A policy from its stored XACML document.
fn decode(bytes: Vec<u8>) -> CssResult<PrivacyPolicy> {
    let text = String::from_utf8(bytes)
        .map_err(|e| CssError::Serialization(format!("policy not UTF-8: {e}")))?;
    let doc = css_xml::parse(&text).map_err(|e| CssError::Serialization(e.to_string()))?;
    from_xacml(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_storage::MemBackend;
    use css_types::{ActorId, EventTypeId, Purpose};

    fn policy(id: u64) -> PrivacyPolicy {
        PrivacyPolicy::new(
            PolicyId(id),
            ActorId(1),
            ActorId(2),
            EventTypeId::v1("blood-test"),
            [Purpose::HealthcareTreatment],
            ["PatientId".to_string()],
        )
        .labeled(format!("p{id}"), "test policy")
    }

    #[test]
    fn save_load_roundtrip() {
        let mut repo = PolicyRepository::open(MemBackend::new()).unwrap();
        repo.save(&policy(1)).unwrap();
        assert_eq!(repo.load(PolicyId(1)).unwrap().unwrap(), policy(1));
        assert!(repo.load(PolicyId(2)).unwrap().is_none());
    }

    #[test]
    fn save_replaces() {
        let mut repo = PolicyRepository::open(MemBackend::new()).unwrap();
        repo.save(&policy(1)).unwrap();
        let mut updated = policy(1);
        updated.fields.insert("Result".into());
        repo.save(&updated).unwrap();
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.load(PolicyId(1)).unwrap().unwrap(), updated);
    }

    #[test]
    fn load_all_sorted() {
        let mut repo = PolicyRepository::open(MemBackend::new()).unwrap();
        for id in [3, 1, 2] {
            repo.save(&policy(id)).unwrap();
        }
        let all = repo.load_all().unwrap();
        let ids: Vec<u64> = all.iter().map(|p| p.id.value()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn survives_reopen_on_file_backend() {
        let dir = std::env::temp_dir().join(format!("css-polrepo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policies.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut repo =
                PolicyRepository::open(css_storage::FileBackend::open(&path).unwrap()).unwrap();
            repo.save(&policy(1)).unwrap();
            repo.save(&policy(2)).unwrap();
            let mut revoked = policy(2);
            revoked.revoke();
            repo.save(&revoked).unwrap();
        }
        let repo = PolicyRepository::open(css_storage::FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(repo.len(), 2);
        assert!(!repo.load(PolicyId(1)).unwrap().unwrap().revoked);
        assert!(repo.load(PolicyId(2)).unwrap().unwrap().revoked);
        let _ = std::fs::remove_file(&path);
    }
}
