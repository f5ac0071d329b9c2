//! Cryptographic primitives for the CSS platform, implemented in-repo.
//!
//! The paper requires two cryptographic capabilities:
//!
//! 1. "The identifying information of the person specified in the
//!    notification is stored in encrypted form to comply with the
//!    privacy regulations" (Section 4) — provided by [`SealedBox`],
//!    an encrypt-then-MAC construction over ChaCha20 + HMAC-SHA-256.
//! 2. The data controller "maintains logs of the access request for
//!    auditing purposes" — made tamper-evident by [`HashChain`].
//!
//! The primitives (SHA-256 per FIPS 180-4, ChaCha20 per RFC 8439,
//! HMAC per RFC 2104) are implemented from the specifications and
//! verified against published test vectors in each module's tests.
//! They are *reproduction-grade*: no constant-time hardening or key
//! zeroization is attempted, which is acceptable for a simulation
//! substrate but would not be for a production deployment.

pub mod chacha20;
pub mod chain;
pub mod hmac;
pub mod sealed;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use chain::{chain_step, ChainVerifyError, HashChain, Link};
pub use hmac::{hmac_sha256, HmacKey};
pub use sealed::{SealError, SealedBox};
pub use sha256::{from_hex, sha256, to_hex, Hex, Sha256};
