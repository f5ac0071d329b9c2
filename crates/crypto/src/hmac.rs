//! HMAC-SHA-256 (RFC 2104).

use std::fmt;

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with its two pad blocks already absorbed.
///
/// The inner and outer SHA-256 states after `key ^ ipad` and
/// `key ^ opad` depend on the key alone, so whoever holds a long-lived
/// key derives them once here; every [`HmacKey::mac`] then starts from
/// a copy of each state and pays only for the message blocks.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The pad states are key material: never print them.
        f.write_str("HmacKey{..}")
    }
}

impl HmacKey {
    /// Absorb the pads of `key` (hashed first when longer than a block).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorbed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: absorbed(0x36),
            outer: absorbed(0x5c),
        }
    }

    /// HMAC-SHA-256 of `message` under this key.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Compute HMAC-SHA-256 of `message` under `key`: the one-shot form of
/// [`HmacKey`], for keys used once.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-length comparison of two MACs.
///
/// Not hardened against timing analysis beyond avoiding early exit;
/// adequate for the simulation substrate.
pub fn verify_mac(expected: &[u8; 32], actual: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{bodies, to_hex};

    /// RFC 4231 test cases 1, 2, 3, 4, 6 and 7 (key, data, HMAC-SHA-256).
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_vectors_through_the_key_type_and_the_one_shot_form() {
        for (key, data, expected) in rfc4231() {
            assert_eq!(to_hex(&HmacKey::new(&key).mac(&data)), expected);
            assert_eq!(to_hex(&hmac_sha256(&key, &data)), expected);
        }
    }

    /// RFC 2104 written out over one body of the compression function:
    /// `H((K ^ opad) || H((K ^ ipad) || text))`.
    fn hmac_through(body: bodies::Body, key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&bodies::digest(body, key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let inner = [&key_block.map(|b| b ^ 0x36)[..], message].concat();
        let outer = [
            &key_block.map(|b| b ^ 0x5c)[..],
            &bodies::digest(body, &inner),
        ]
        .concat();
        bodies::digest(body, &outer)
    }

    #[test]
    fn rfc4231_vectors_through_each_body() {
        for (name, body) in bodies::each() {
            for (key, data, expected) in rfc4231() {
                assert_eq!(
                    to_hex(&hmac_through(body, &key, &data)),
                    expected,
                    "{name} body"
                );
            }
        }
    }

    #[test]
    fn one_key_state_serves_many_messages() {
        let key = HmacKey::new(b"Jefe");
        let first = key.mac(b"what do ya want for nothing?");
        assert_eq!(
            key.mac(b"something else"),
            hmac_sha256(b"Jefe", b"something else")
        );
        assert_eq!(key.mac(b"what do ya want for nothing?"), first);
        // Every message length around the block boundaries.
        let long_key = HmacKey::new(&[0x5a; 64]);
        for len in 0..200 {
            let msg = vec![len as u8; len];
            assert_eq!(
                long_key.mac(&msg),
                hmac_sha256(&[0x5a; 64], &msg),
                "len {len}"
            );
        }
    }

    #[test]
    fn debug_does_not_leak_key_state() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey{..}");
    }

    #[test]
    fn verify_mac_detects_mismatch() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(verify_mac(&a, &b));
        b[31] ^= 1;
        assert!(!verify_mac(&a, &b));
    }
}
