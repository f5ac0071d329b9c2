//! Tamper-evident hash chains for the audit log.
//!
//! Every audit record is chained to its predecessor:
//! `h_i = SHA-256(h_{i-1} || seq_i || len(payload_i) || payload_i)`,
//! `seq_i` and the byte length each a little-endian `u64`, and `h_{-1}`
//! the digest of a fixed genesis label. An auditor holding the latest
//! head can detect any modification, insertion, deletion or reordering
//! of past records by re-deriving the chain.

use std::fmt;

use crate::sha256::Sha256;

/// A single link: the payload plus its chained digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Zero-based position in the chain.
    pub seq: u64,
    /// The record bytes this link covers.
    pub payload: Vec<u8>,
    /// The chained digest covering everything up to and including this
    /// payload.
    pub hash: [u8; 32],
}

/// Where chain verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainVerifyError {
    /// The link at `seq` carries a hash that does not re-derive.
    HashMismatch {
        /// Sequence number of the offending link.
        seq: u64,
    },
    /// Sequence numbers are not contiguous from zero.
    BadSequence {
        /// Expected sequence number.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
}

impl fmt::Display for ChainVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainVerifyError::HashMismatch { seq } => {
                write!(f, "hash chain broken at link {seq}")
            }
            ChainVerifyError::BadSequence { expected, found } => {
                write!(f, "bad link sequence: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ChainVerifyError {}

/// An append-only hash chain.
#[derive(Debug, Clone)]
pub struct HashChain {
    links: Vec<Link>,
    head: [u8; 32],
}

/// Digest of the empty chain (domain-separated genesis value).
fn genesis() -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"css-audit-chain-genesis-v1");
    h.finalize()
}

/// The one chain step: the digest of the link at position `seq`
/// (zero-based) over `payload`, given the digest `prev` of the link
/// before it (the head of an empty [`HashChain`] for the first).
/// [`HashChain::append`] is this plus keeping the payload; a log that
/// keeps its payloads elsewhere calls it directly and arrives at the
/// same heads.
pub fn chain_step(prev: &[u8; 32], seq: u64, payload: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&seq.to_le_bytes());
    h.update(&(payload.len() as u64).to_le_bytes());
    h.update(payload);
    h.finalize()
}

impl Default for HashChain {
    fn default() -> Self {
        Self::new()
    }
}

impl HashChain {
    /// An empty chain.
    pub fn new() -> Self {
        HashChain {
            links: Vec::new(),
            head: genesis(),
        }
    }

    /// Append a payload, returning the new link's sequence number.
    pub fn append(&mut self, payload: Vec<u8>) -> u64 {
        let seq = self.links.len() as u64;
        let hash = chain_step(&self.head, seq, &payload);
        self.head = hash;
        self.links.push(Link { seq, payload, hash });
        seq
    }

    /// The digest covering the entire chain so far.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// All links, in order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Re-derive every hash and compare. O(n).
    pub fn verify(&self) -> Result<(), ChainVerifyError> {
        Self::verify_links(&self.links)
    }

    /// Verify an externally stored sequence of links (e.g. reloaded from
    /// disk).
    fn verify_links(links: &[Link]) -> Result<(), ChainVerifyError> {
        let mut prev = genesis();
        for (i, link) in links.iter().enumerate() {
            if link.seq != i as u64 {
                return Err(ChainVerifyError::BadSequence {
                    expected: i as u64,
                    found: link.seq,
                });
            }
            let expect = chain_step(&prev, link.seq, &link.payload);
            if expect != link.hash {
                return Err(ChainVerifyError::HashMismatch { seq: link.seq });
            }
            prev = link.hash;
        }
        Ok(())
    }

    /// Rebuild a chain from stored links after verifying them.
    pub fn from_links(links: Vec<Link>) -> Result<Self, ChainVerifyError> {
        Self::verify_links(&links)?;
        let head = links.last().map(|l| l.hash).unwrap_or_else(genesis);
        Ok(HashChain { links, head })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HashChain {
        let mut c = HashChain::new();
        for i in 0..10u32 {
            c.append(format!("record-{i}").into_bytes());
        }
        c
    }

    #[test]
    fn verify_accepts_untampered() {
        assert!(sample().verify().is_ok());
        assert!(HashChain::new().verify().is_ok());
    }

    #[test]
    fn payload_tampering_detected() {
        let mut c = sample();
        c.links[3].payload = b"record-3-FORGED".to_vec();
        assert_eq!(c.verify(), Err(ChainVerifyError::HashMismatch { seq: 3 }));
    }

    #[test]
    fn hash_tampering_detected_downstream() {
        let mut c = sample();
        // Forge payload *and* recompute its hash — the next link breaks.
        c.links[3].payload = b"record-3-FORGED".to_vec();
        let prev = c.links[2].hash;
        c.links[3].hash = chain_step(&prev, 3, &c.links[3].payload);
        assert_eq!(c.verify(), Err(ChainVerifyError::HashMismatch { seq: 4 }));
    }

    #[test]
    fn deletion_detected() {
        let mut c = sample();
        c.links.remove(5);
        assert!(matches!(
            c.verify(),
            Err(ChainVerifyError::BadSequence { .. })
        ));
    }

    #[test]
    fn truncation_changes_head() {
        let c = sample();
        let mut truncated = HashChain::new();
        for l in &c.links[..5] {
            truncated.append(l.payload.clone());
        }
        assert!(truncated.verify().is_ok());
        assert_ne!(truncated.head(), c.head());
    }

    #[test]
    fn reordering_detected() {
        let mut c = sample();
        c.links.swap(2, 3);
        assert!(c.verify().is_err());
    }

    #[test]
    fn from_links_roundtrip() {
        let c = sample();
        let rebuilt = HashChain::from_links(c.links().to_vec()).unwrap();
        assert_eq!(rebuilt.head(), c.head());
        assert_eq!(rebuilt.len(), 10);
    }

    #[test]
    fn from_links_rejects_tampered() {
        let mut links = sample().links().to_vec();
        links[0].payload.push(b'!');
        assert!(HashChain::from_links(links).is_err());
    }

    #[test]
    fn heads_depend_on_content_and_order() {
        let mut a = HashChain::new();
        a.append(b"x".to_vec());
        a.append(b"y".to_vec());
        let mut b = HashChain::new();
        b.append(b"y".to_vec());
        b.append(b"x".to_vec());
        assert_ne!(a.head(), b.head());
    }
}
