//! Storage backend provisioning for platform components.
//!
//! Every durable component (each audit and events-index shard, the
//! audit anchor, each gateway's detail store) needs its own backend. A [`BackendProvider`]
//! hands them out by name: [`MemoryProvider`] for tests and benchmarks,
//! [`DirProvider`] for real on-disk deployments (one log file per
//! component under a directory).

use std::path::PathBuf;

use css_storage::{FileBackend, LogBackend, MemBackend};
use css_types::CssResult;

/// Creates named storage backends for platform components.
pub trait BackendProvider {
    /// The backend type produced.
    type Backend: LogBackend + 'static;

    /// Create (or reopen) the backend for the named component, e.g.
    /// `"audit"`, `"events-index-1"`, `"gateway-act-00000001"`.
    fn backend(&self, name: &str) -> CssResult<Self::Backend>;

    /// Whether a later [`backend`](Self::backend) call with the same name
    /// hands back what was written through this one — whether the data
    /// outlives the process. The audit plane keeps an anchor only where
    /// it does: nothing could ever read it back otherwise.
    fn reopens(&self) -> bool {
        true
    }
}

/// Volatile in-memory backends (fresh every call).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryProvider;

impl BackendProvider for MemoryProvider {
    type Backend = MemBackend;

    fn backend(&self, _name: &str) -> CssResult<MemBackend> {
        Ok(MemBackend::new())
    }

    fn reopens(&self) -> bool {
        false
    }
}

/// File-backed backends under a base directory; reopening the same name
/// resumes the existing log.
#[derive(Debug, Clone)]
pub struct DirProvider {
    base: PathBuf,
}

impl DirProvider {
    /// Provider rooted at `base` (created if missing).
    pub fn new(base: impl Into<PathBuf>) -> CssResult<Self> {
        let base = base.into();
        std::fs::create_dir_all(&base)?;
        Ok(DirProvider { base })
    }

    /// The directory backing this provider.
    pub fn base(&self) -> &std::path::Path {
        &self.base
    }
}

impl BackendProvider for DirProvider {
    type Backend = FileBackend;

    fn backend(&self, name: &str) -> CssResult<FileBackend> {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        FileBackend::open(self.base.join(format!("{safe}.log")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_provider_gives_fresh_backends() {
        let p = MemoryProvider;
        let mut a = p.backend("audit").unwrap();
        a.append(b"x").unwrap();
        let b = p.backend("audit").unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn dir_provider_persists_by_name() {
        let dir = std::env::temp_dir().join(format!("css-provider-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = DirProvider::new(&dir).unwrap();
        {
            let mut a = p.backend("audit").unwrap();
            a.append(b"event").unwrap();
            a.sync().unwrap();
        }
        let a = p.backend("audit").unwrap();
        assert_eq!(a.len(), 5);
        // Unsafe characters are sanitized, not errors.
        let weird = p.backend("gateway/act:1").unwrap();
        assert!(weird.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
