//! Pluggable byte-log backends.
//!
//! A backend is an append-only byte vector with positional reads. The
//! platform runs on [`FileBackend`] (one file per store); tests and
//! benchmarks that don't care about durability use [`MemBackend`].

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use css_types::{CssError, CssResult};

/// An append-only byte log with positional reads. `Sync` because a
/// store's readers share it: positional reads take `&self`.
pub trait LogBackend: Send + Sync {
    /// Append bytes, returning the offset they were written at.
    fn append(&mut self, data: &[u8]) -> CssResult<u64>;

    /// Read exactly `len` bytes starting at `offset`. Readers of one
    /// store call this concurrently, so it must be safe to: no call may
    /// move state another call reads (a shared file offset, say).
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>>;

    /// Total bytes in the log.
    fn len(&self) -> u64;

    /// Whether the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush to stable storage (no-op for memory).
    fn sync(&mut self) -> CssResult<()>;

    /// Truncate the log to `len` bytes (used to drop a torn tail).
    fn truncate(&mut self, len: u64) -> CssResult<()>;
}

/// In-memory backend.
#[derive(Debug, Default)]
pub struct MemBackend {
    data: Vec<u8>,
}

impl MemBackend {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogBackend for MemBackend {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(data);
        Ok(offset)
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .ok_or_else(|| CssError::Storage("read range overflow".into()))?;
        if end > self.data.len() {
            return Err(CssError::Storage(format!(
                "read past end: {end} > {}",
                self.data.len()
            )));
        }
        Ok(self.data[start..end].to_vec())
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        if len as usize > self.data.len() {
            return Err(CssError::Storage("truncate beyond end".into()));
        }
        self.data.truncate(len as usize);
        Ok(())
    }
}

/// File-backed backend. Appends go through a single owned handle;
/// reads are positional reads on it (`pread`, so a unix), which leave
/// the handle's offset alone: concurrent readers never move each
/// other's.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    len: u64,
}

impl FileBackend {
    /// Open (creating if needed) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> CssResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(FileBackend { file, len })
    }
}

impl LogBackend for FileBackend {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let offset = self.len;
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        Ok(offset)
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        if offset + len as u64 > self.len {
            return Err(CssError::Storage(format!(
                "read past end: {} > {}",
                offset + len as u64,
                self.len
            )));
        }
        let mut buf = vec![0u8; len];
        std::os::unix::fs::FileExt::read_exact_at(&self.file, &mut buf, offset)?;
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn sync(&mut self) -> CssResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        if len > self.len {
            return Err(CssError::Storage("truncate beyond end".into()));
        }
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.len = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut b: impl LogBackend) {
        assert!(b.is_empty());
        let o1 = b.append(b"hello").unwrap();
        let o2 = b.append(b" world").unwrap();
        assert_eq!(o1, 0);
        assert_eq!(o2, 5);
        assert_eq!(b.len(), 11);
        assert_eq!(b.read_at(0, 5).unwrap(), b"hello");
        assert_eq!(b.read_at(5, 6).unwrap(), b" world");
        assert!(b.read_at(7, 10).is_err());
        b.sync().unwrap();
        b.truncate(5).unwrap();
        assert_eq!(b.len(), 5);
        assert!(b.truncate(100).is_err());
        let o3 = b.append(b"!").unwrap();
        assert_eq!(o3, 5);
        assert_eq!(b.read_at(0, 6).unwrap(), b"hello!");
    }

    #[test]
    fn mem_backend_contract() {
        exercise(MemBackend::new());
    }

    #[test]
    fn file_backend_contract() {
        let dir = std::env::temp_dir().join(format!("css-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contract.log");
        let _ = std::fs::remove_file(&path);
        exercise(FileBackend::open(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_reads_concurrently() {
        let dir = std::env::temp_dir().join(format!("css-storage-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.log");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        for i in 0..64u8 {
            b.append(&[i; 16]).unwrap();
        }
        // Each thread reads every record from its own starting point;
        // a read that another moved the offset under returns the wrong
        // record's bytes.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    for round in 0..200u64 {
                        let i = (t * 16 + round) % 64;
                        assert_eq!(b.read_at(i * 16, 16).unwrap(), [i as u8; 16]);
                    }
                });
            }
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("css-storage-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path).unwrap();
            b.append(b"durable").unwrap();
            b.sync().unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 7);
        assert_eq!(b.read_at(0, 7).unwrap(), b"durable");
        let _ = std::fs::remove_file(&path);
    }
}
