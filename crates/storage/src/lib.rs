//! Durable storage substrate for the CSS platform.
//!
//! The Local Cooperation Gateway "persists each detail message notified
//! so that they can be retrieved even when the source systems are
//! un-accessible", and detail requests "may arrive ... even months
//! after the publication of the notification" (Section 4). That demands
//! a small, crash-safe store:
//!
//! - [`RecordLog`]: an append-only log of checksummed records over a
//!   pluggable backend (file or memory), and the one store. Recovery
//!   scans tolerate a torn tail (partial final record after a crash)
//!   and surface genuine corruption as errors; each store rebuilds its
//!   own index from the recovery pass.
//! - [`encode_put`] / [`decode_put`]: the put record (a key and its
//!   value), the form of the gateway's detail log and of a legacy
//!   `policies.log`.
//!
//! This is the persistence layer under the gateway's detail store, the
//! events index and the audit log (whose control records are the
//! platform's policy and consent journal).

// The no-panic floor of the request path (production code returns
// `CssResult`), held by clippy under scripts/check.sh: DESIGN §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod backend;
pub mod crc;
pub mod instrument;
pub mod log;
mod put;

pub use backend::{FileBackend, LogBackend, MemBackend};
pub use instrument::InstrumentedBackend;
pub use log::{RecordLog, RecordPtr};
pub use put::{decode_put, encode_put};

/// Little-endian `u32` from a 4-byte slice; `None` when the slice has
/// the wrong length. Frame decoding uses this so malformed lengths
/// surface as recoverable errors, never as a panic mid-replay.
pub(crate) fn le_u32(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}
