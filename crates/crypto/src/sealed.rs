//! Authenticated encryption of identifying data at rest.
//!
//! [`SealedBox`] implements encrypt-then-MAC: ChaCha20 for
//! confidentiality, HMAC-SHA-256 over `nonce || ciphertext` for
//! integrity. The events index uses it to store the identifying fields
//! of every notification in encrypted form, as the privacy regulation
//! cited by the paper requires.
//!
//! Nonces are derived from a caller-supplied unique sequence number
//! (the global event id), which the platform guarantees never repeats
//! under a given key.

use std::fmt;

use crate::chacha20::ChaCha20;
use crate::hmac::{verify_mac, HmacKey};
use crate::sha256::Sha256;

/// Failure to open a sealed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The payload is too short to contain a nonce and MAC.
    Truncated,
    /// The MAC did not verify — the payload was corrupted or forged.
    MacMismatch,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Truncated => f.write_str("sealed payload truncated"),
            SealError::MacMismatch => f.write_str("sealed payload failed authentication"),
        }
    }
}

impl std::error::Error for SealError {}

/// Symmetric authenticated-encryption context.
///
/// Layout of a sealed payload: `nonce (12) || ciphertext || mac (32)`.
#[derive(Clone)]
pub struct SealedBox {
    enc_key: [u8; 32],
    mac_key: HmacKey,
}

impl fmt::Debug for SealedBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("SealedBox{..}")
    }
}

const NONCE_LEN: usize = 12;
const MAC_LEN: usize = 32;

impl SealedBox {
    /// Derive independent encryption and MAC keys from a master key.
    pub fn new(master_key: &[u8]) -> Self {
        let derive = |label: &[u8]| {
            let mut h = Sha256::new();
            h.update(label);
            h.update(master_key);
            h.finalize()
        };
        SealedBox {
            enc_key: derive(b"css-enc-v1:"),
            mac_key: HmacKey::new(&derive(b"css-mac-v1:")),
        }
    }

    /// Minimum size overhead added to every plaintext.
    pub const OVERHEAD: usize = NONCE_LEN + MAC_LEN;

    /// Seal `plaintext` using `sequence` to derive the nonce.
    ///
    /// The caller must never reuse a sequence number with the same key;
    /// the platform uses the global event id, which is unique.
    pub fn seal(&self, sequence: u64, plaintext: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce_for(sequence);
        let cipher = ChaCha20::new(&self.enc_key, &nonce);
        let mut out = Vec::with_capacity(plaintext.len() + Self::OVERHEAD);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(&cipher.process(plaintext, 0));
        let mac = self.mac_key.mac(&out);
        out.extend_from_slice(&mac);
        out
    }

    /// Open a sealed payload, verifying its MAC.
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, SealError> {
        if sealed.len() < Self::OVERHEAD {
            return Err(SealError::Truncated);
        }
        let (body, mac_bytes) = sealed.split_at(sealed.len() - MAC_LEN);
        let expected = self.mac_key.mac(body);
        let actual: [u8; 32] = mac_bytes.try_into().expect("split length");
        if !verify_mac(&expected, &actual) {
            return Err(SealError::MacMismatch);
        }
        let (nonce_bytes, ciphertext) = body.split_at(NONCE_LEN);
        let nonce: [u8; 12] = nonce_bytes.try_into().expect("split length");
        let cipher = ChaCha20::new(&self.enc_key, &nonce);
        Ok(cipher.process(ciphertext, 0))
    }

    fn nonce_for(sequence: u64) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&sequence.to_le_bytes());
        nonce[8..].copy_from_slice(b"css!");
        nonce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx() -> SealedBox {
        SealedBox::new(b"controller master key")
    }

    #[test]
    fn seal_open_roundtrip() {
        let b = bx();
        let msg = b"Mario Rossi RSSMRA45C12L378Y";
        let sealed = b.seal(1, msg);
        assert_eq!(b.open(&sealed).unwrap(), msg);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let b = bx();
        let msg = b"identifying information";
        let sealed = b.seal(7, msg);
        // The ciphertext region must not contain the plaintext.
        assert!(sealed.windows(msg.len()).all(|w| w != msg.as_slice()));
    }

    #[test]
    fn tampering_detected() {
        let b = bx();
        let mut sealed = b.seal(2, b"payload");
        for i in 0..sealed.len() {
            sealed[i] ^= 0x80;
            assert_eq!(b.open(&sealed), Err(SealError::MacMismatch), "byte {i}");
            sealed[i] ^= 0x80;
        }
        assert!(b.open(&sealed).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        let b = bx();
        let sealed = b.seal(3, b"x");
        assert_eq!(b.open(&sealed[..10]), Err(SealError::Truncated));
        // Long enough for overhead but MAC now wrong.
        assert!(b.open(&sealed[..SealedBox::OVERHEAD]).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = bx().seal(4, b"secret");
        let other = SealedBox::new(b"different master key");
        assert_eq!(other.open(&sealed), Err(SealError::MacMismatch));
    }

    #[test]
    fn distinct_sequences_distinct_ciphertexts() {
        let b = bx();
        assert_ne!(b.seal(1, b"same"), b.seal(2, b"same"));
    }

    #[test]
    fn empty_plaintext() {
        let b = bx();
        let sealed = b.seal(5, b"");
        assert_eq!(sealed.len(), SealedBox::OVERHEAD);
        assert_eq!(b.open(&sealed).unwrap(), Vec::<u8>::new());
    }

    /// `(sequence, plaintext, sealed hex)` written by the code before
    /// the MAC key kept its pad states: the at-rest form must not move.
    fn pinned() -> [(u64, Vec<u8>, &'static str); 3] {
        [
            (
                1,
                b"Mario Rossi RSSMRA45C12L378Y".to_vec(),
                "01000000000000006373732196484bcec8f62e1a108652bc88da6e3efcf1e8ed\
                 01f9464a009d2f81beaf2cde64dd24509b62e33fc7f08ca609de4485aeab2037\
                 04c8dfafdd7ec472",
            ),
            (
                7,
                Vec::new(),
                "070000000000000063737321c65dfdf006cafb62d29467f14394f9507dbef238\
                 7aee9a2935802904ce24f803",
            ),
            (
                u64::MAX,
                vec![0xAB; 100],
                "ffffffffffffffff63737321839e8d35d2e58be47d83c8397fb9ac037cbc9740\
                 54ed7f3804d8c8ae8eb43313b4fb9cec4d67249a2df750d8d90d5792f4a64812\
                 9a1fe64fb5a2cb35d90bca93df5cbcc83facf8375af01e51290a9485aeebcdca\
                 7797da1f1715aa6381cb4bd5768530223a6d160255757e6a068702f5b16f97b1\
                 d84edf81032089e765394a7a2f1ddc6b",
            ),
        ]
    }

    #[test]
    fn blobs_sealed_before_the_key_state_open_and_seal_is_byte_identical() {
        let b = bx();
        for (sequence, plaintext, hex) in pinned() {
            let sealed = crate::sha256::from_hex(hex).expect("pinned hex");
            assert_eq!(b.open(&sealed).unwrap(), plaintext, "sequence {sequence}");
            assert_eq!(b.seal(sequence, &plaintext), sealed, "sequence {sequence}");
        }
    }

    #[test]
    fn debug_does_not_leak_keys() {
        assert_eq!(format!("{:?}", bx()), "SealedBox{..}");
    }
}
