//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes a step.
//!
//! Slicing-by-8: table `k` holds the CRC of a byte followed by `k`
//! zero bytes, so eight input bytes fold into the running value with
//! eight independent look-ups instead of eight dependent ones. The
//! polynomial, the initial value and the final inversion are the
//! classic ones; every checksum equals the bytewise algorithm's.

/// Lazily-built lookup tables for the reflected polynomial 0xEDB88320.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(8);
    for step in &mut steps {
        let lo = c ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][step[4] as usize]
            ^ t[2][step[5] as usize]
            ^ t[1][step[6] as usize]
            ^ t[0][step[7] as usize];
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-look-up-per-byte algorithm `crc32` replaced, kept as the
    /// reference the sliced one must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"record");
        let b = crc32(b"recorD");
        assert_ne!(a, b);
    }

    proptest! {
        /// Every length 0..=257 at every start offset 0..8 of one
        /// shared buffer: the eight-byte steps, the remainder loop and
        /// every alignment of the slice agree with the reference.
        #[test]
        fn equals_bytewise_at_every_length_and_offset(
            buffer in proptest::collection::vec(any::<u8>(), 265),
        ) {
            for offset in 0..8 {
                for len in 0..=257 {
                    let data = &buffer[offset..offset + len];
                    prop_assert_eq!(crc32(data), crc32_bytewise(data));
                }
            }
        }

        #[test]
        fn equals_bytewise_on_four_kib(
            buffer in proptest::collection::vec(any::<u8>(), 4096 + 7),
        ) {
            for offset in 0..8 {
                let data = &buffer[offset..offset + 4096];
                prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }
}
