//! Durable storage substrate for the CSS platform.
//!
//! The Local Cooperation Gateway "persists each detail message notified
//! so that they can be retrieved even when the source systems are
//! un-accessible", and detail requests "may arrive ... even months
//! after the publication of the notification" (Section 4). That demands
//! a small, crash-safe store:
//!
//! - [`RecordLog`]: an append-only log of checksummed records over a
//!   pluggable backend (file or memory). Recovery scans tolerate a torn
//!   tail (partial final record after a crash) and surface genuine
//!   corruption as errors.
//! - [`KvStore`]: a keyed store layered on the log — puts and deletes
//!   are appended, an in-memory index maps keys to log offsets, and
//!   recovery replays the log. There is no compaction: its users write
//!   a key once (details) or a handful of times (a policy and its
//!   revocation).
//!
//! This is the persistence layer under the gateway's detail store, the
//! policy repository, and the audit log.

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod backend;
pub mod crc;
pub mod instrument;
pub mod kv;
pub mod log;

pub use backend::{FileBackend, LogBackend, MemBackend};
pub use instrument::InstrumentedBackend;
pub use kv::KvStore;
pub use log::{split_records, RecordLog, RecordPtr};

/// Little-endian `u32` from a 4-byte slice; `None` when the slice has
/// the wrong length. Frame decoding uses this so malformed lengths
/// surface as recoverable errors, never as a panic mid-replay.
pub(crate) fn le_u32(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}
