//! Attribute values as a decoder receives them.
//!
//! In the text form every value is text. The typed sink methods
//! ([`crate::XmlSink::attr_int`], [`crate::XmlSink::attr_bytes`],
//! [`crate::XmlSink::attr_keyword`]) write a number as decimal digits
//! (or the `Display` form of an id), bytes as lowercase hex and a
//! keyword as itself; the binary form ([`crate::binary`]) keeps the
//! number and the bytes as they are. [`crate::Attributes`] reads either
//! back through the same typed getter, so a decoder does not know which
//! form it was given.

use std::borrow::Cow;
use std::fmt;

/// One attribute's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// Text, unescaped: borrowed from the input unless an entity had to
    /// be expanded.
    Text(Cow<'a, str>),
    /// A number a typed sink method wrote (binary form only).
    Int(u64),
    /// Raw bytes a typed sink method wrote (binary form only).
    Bytes(&'a [u8]),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(text: &'a str) -> Self {
        Value::Text(Cow::Borrowed(text))
    }
}

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Bytes that display as lowercase hex — the text form of a bytes
/// attribute, written without an intermediate `String`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hex<'a>(pub &'a [u8]);

impl fmt::Display for Hex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 32 bytes a step: one `write_str` per 64 digits, not per digit.
        let mut digits = [0u8; 64];
        for chunk in self.0.chunks(32) {
            for (pair, b) in digits.chunks_exact_mut(2).zip(chunk) {
                pair[0] = NIBBLES[usize::from(b >> 4)];
                pair[1] = NIBBLES[usize::from(b & 0x0f)];
            }
            let text =
                std::str::from_utf8(&digits[..chunk.len() * 2]).expect("hex digits are ASCII");
            f.write_str(text)?;
        }
        Ok(())
    }
}

/// Inverse of [`Hex`]: `None` on an odd length or a non-hex character.
/// Either case of digit is accepted.
pub(crate) fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips_and_rejects_what_is_not_hex() {
        let all: Vec<u8> = (0..=255).collect();
        let text = Hex(&all).to_string();
        assert_eq!(&text[..8], "00010203");
        assert_eq!(from_hex(&text).unwrap(), all);
        assert_eq!(from_hex(&text.to_uppercase()).unwrap(), all);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        for bad in ["abc", "zz", "0g", "é0"] {
            assert!(from_hex(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn hex_writes_every_chunk_boundary_alike() {
        let all: Vec<u8> = (0..=255).collect();
        for len in [0, 1, 31, 32, 33, 64, 110, 256] {
            let naive: String = all[..len].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(Hex(&all[..len]).to_string(), naive);
        }
    }
}
