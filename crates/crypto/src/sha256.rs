//! SHA-256 (FIPS 180-4).

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        // Every whole block goes to the compressor as one run, straight
        // from the caller's slice; only the tail is copied.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffered = tail.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // `update` never leaves a full buffer, so the 0x80 marker fits.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        digest_bytes(&self.state)
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The compression function over a run of whole 64-byte blocks: the
/// one place the two bodies fork. Padding, buffering, HMAC and the
/// chain above it are shared and never learn which body ran.
///
/// The choice is made per call from what the CPU reports (std caches
/// the CPUID answer, so the test is a load and a mask); there is no
/// switch to set. The portable body stays for hosts without the SHA
/// extensions and as the oracle the hardware body is tested against.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    if !compress_blocks_hardware(state, blocks) {
        compress_blocks_portable(state, blocks);
    }
}

/// Run the hardware body when this CPU has it; says whether it did.
#[cfg(target_arch = "x86_64")]
fn compress_blocks_hardware(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    let detected = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    if detected {
        // The workspace denies unsafe_code; this call and compat/
        // parking_lot's `replace_guard` are the two audited exceptions.
        // SAFETY: `compress_blocks_sha_ni` is a safe function — it
        // reaches memory only through its two references, in
        // bounds-checked safe code — so the one thing its caller owes
        // it is a CPU that executes the instruction sets named in its
        // `#[target_feature]`. The three checks above just established
        // that (sse2 is part of x86-64 itself).
        #[allow(unsafe_code)]
        unsafe {
            compress_blocks_sha_ni(state, blocks)
        };
    }
    detected
}

#[cfg(not(target_arch = "x86_64"))]
fn compress_blocks_hardware(_state: &mut [u32; 8], _blocks: &[u8]) -> bool {
    false
}

/// FIPS 180-4 §6.2.2 on the SHA extensions: `sha256rnds2` does two
/// rounds an instruction on the state split as (A B E F) / (C D G H),
/// `sha256msg1`/`sha256msg2` extend the schedule four words at a time,
/// and the state stays in two registers across the whole run.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    // Message words are big-endian; lanes are little-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks.as_chunks::<64>().0 {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The four newest groups of four schedule words, oldest first.
        let mut w = [_mm_setzero_si128(); 4];
        for (lanes, quad) in w.iter_mut().zip(block.as_chunks::<16>().0) {
            let quad = u128::from_le_bytes(*quad);
            *lanes = _mm_shuffle_epi8(_mm_set_epi64x((quad >> 64) as i64, quad as i64), byte_swap);
        }
        let [mut w0, mut w1, mut w2, mut w3] = w;
        for k in K.as_chunks::<4>().0 {
            let wk = _mm_add_epi32(
                w0,
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            // Two rounds on the low two lanes, two on the high two.
            // Each call returns the new (A B E F); the old one is the
            // new (C D G H).
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            // The group due four steps from now. The last four steps
            // compute one nobody reads: the schedule runs beside the
            // round chain, not on it, and that is cheaper than a branch.
            let sigma0 = _mm_sha256msg1_epu32(w0, w1);
            let next = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, _mm_alignr_epi8(w3, w2, 4)), w3);
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|lane| lane as u32);
}

/// FIPS 180-4 §6.2.2 as written: the schedule, then 64 scalar rounds.
/// Out of line, so the dispatcher above stays a test and a jump
/// instead of paying this body's frame on every hardware call.
#[inline(never)]
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Render bytes as lowercase hex (for logs, tests, and persisting
/// binary blobs inside XML documents).
pub fn to_hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        s.push(NIBBLES[usize::from(b >> 4)] as char);
        s.push(NIBBLES[usize::from(b & 0x0f)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must not panic
        // and must be distinct.
        let mut digests = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xAB; len];
            assert!(digests.insert(sha256(&data)));
        }
    }

    #[test]
    fn padding_boundaries_match_reference_digests() {
        // 0xAB repeated, at the lengths where the padding changes shape
        // (length fits / needs a block of its own / block-aligned);
        // digests from an independent implementation.
        for (len, hex) in [
            (
                55,
                "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            ),
            (
                56,
                "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            ),
            (
                63,
                "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            ),
            (
                64,
                "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            ),
            (
                119,
                "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            ),
            (
                120,
                "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            ),
        ] {
            assert_eq!(to_hex(&sha256(&vec![0xAB; len])), hex, "length {len}");
        }
    }
}

/// The two bodies of the compression function, each callable on its
/// own: what the tests here and in `hmac` run the published vectors
/// through, so neither body is covered only by way of the dispatcher.
#[cfg(test)]
pub(crate) mod bodies {
    use super::{compress_blocks_hardware, compress_blocks_portable, digest_bytes, H0};

    pub(crate) type Body = fn(&mut [u32; 8], &[u8]);

    fn hardware(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(compress_blocks_hardware(state, blocks));
    }

    /// The hardware body, or `None` (with a note on stderr) on a CPU
    /// without the extensions: its cases then return early, so the
    /// suite is green on any machine.
    pub(crate) fn hardware_body() -> Option<Body> {
        let present = compress_blocks_hardware(&mut [0; 8], &[]);
        if !present {
            eprintln!("no SHA extensions on this CPU: hardware body not exercised");
        }
        present.then_some(hardware as Body)
    }

    /// The portable body, and the hardware body where the CPU has it.
    pub(crate) fn each() -> Vec<(&'static str, Body)> {
        let mut bodies = vec![("portable", compress_blocks_portable as Body)];
        bodies.extend(hardware_body().map(|body| ("hardware", body)));
        bodies
    }

    /// SHA-256 of `message` through one body, padded here (FIPS 180-4
    /// §5.1.1) and compressed as a single run: independent of
    /// `Sha256`'s buffering.
    pub(crate) fn digest(body: Body, message: &[u8]) -> [u8; 32] {
        let mut padded = message.to_vec();
        padded.push(0x80);
        padded.resize((message.len() + 9).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        body(&mut state, &padded);
        digest_bytes(&state)
    }
}

#[cfg(test)]
mod body_tests {
    use super::bodies::{self, digest};
    use super::*;
    use proptest::prelude::*;

    /// FIPS 180-4 / NIST example messages: empty, `abc`, the 448-bit
    /// and the 896-bit message.
    const FIPS_180_4: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn fips_180_4_vectors_through_each_body() {
        for (name, body) in bodies::each() {
            for (message, hex) in FIPS_180_4 {
                assert_eq!(to_hex(&digest(body, message)), hex, "{name} body");
            }
            assert_eq!(
                to_hex(&digest(body, &vec![b'a'; 1_000_000])),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name} body, one million a"
            );
        }
    }

    /// Message lengths on and beside every padding boundary of the
    /// first two blocks, and anything up to five blocks.
    fn message_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..=320,
            54usize..=57,
            62usize..=65,
            118usize..=121,
            126usize..=129,
        ]
    }

    proptest! {
        /// The property the run-time choice rests on: from any state,
        /// over any run of blocks, the two bodies leave the same state.
        #[test]
        fn hardware_body_equals_portable_body(
            state in proptest::collection::vec(any::<u32>(), 8),
            blocks in (1usize..=8),
            fill in proptest::collection::vec(any::<u8>(), 8 * 64),
        ) {
            let Some(hardware) = bodies::hardware_body() else { return };
            let start: [u32; 8] = state.try_into().expect("eight words");
            let (mut portable, mut accelerated) = (start, start);
            compress_blocks_portable(&mut portable, &fill[..blocks * 64]);
            hardware(&mut accelerated, &fill[..blocks * 64]);
            prop_assert_eq!(portable, accelerated);
        }

        /// However a message is cut into `update` calls, the hasher
        /// (whichever body it dispatches to) agrees with each body run
        /// over the whole padded message.
        #[test]
        fn any_chunking_equals_each_body(
            len in message_len(),
            fill in proptest::collection::vec(any::<u8>(), 320),
            cuts in proptest::collection::vec(0usize..=130, 0..6),
        ) {
            let message = &fill[..len];
            let mut hasher = Sha256::new();
            let mut rest = message;
            for cut in cuts {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                hasher.update(head);
                rest = tail;
            }
            hasher.update(rest);
            let chunked = hasher.finalize();
            for (name, body) in bodies::each() {
                prop_assert_eq!(chunked, digest(body, message), "{} body, length {}", name, len);
            }
        }
    }
}

#[cfg(test)]
mod hex_tests {
    use super::*;

    #[test]
    fn hex_renders_every_byte_value() {
        let all: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&all);
        assert_eq!(hex.len(), 512);
        assert!(hex.starts_with("000102") && hex.ends_with("fdfeff"));
        assert!(hex.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')));
        assert_eq!(to_hex(&[]), "");
    }
}
