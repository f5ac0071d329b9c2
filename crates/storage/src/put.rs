//! The put record: a key and its value, as one record of a
//! [`RecordLog`](crate::RecordLog).
//!
//! Layout: `op (1) = 1 | key len (4, LE) | key | value len (4, LE) |
//! value`. The gateway's detail log holds one per detail message, under
//! `detail:<source event id>`; a legacy `policies.log` holds one per
//! policy, under `policy:<id>`. This module is the one encoder and the
//! one decoder of that form: each store keeps its own index.

use css_types::{CssError, CssResult};

const OP_PUT: u8 = 1;

/// Append the put record of `key` and `value` to `out`.
pub fn encode_put(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.push(OP_PUT);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Key and value of a put record, borrowed from it. A record that does
/// not parse, or of any op but a put (a delete an older build wrote),
/// is a `Storage` error naming what it is.
pub fn decode_put(payload: &[u8]) -> CssResult<(&[u8], &[u8])> {
    let err = || CssError::Storage("malformed put record".into());
    let (&op, rest) = payload.split_first().ok_or_else(err)?;
    let (key, rest) = length_prefixed(rest).ok_or_else(err)?;
    let (value, rest) = length_prefixed(rest).ok_or_else(err)?;
    if !rest.is_empty() {
        return Err(err());
    }
    if op != OP_PUT {
        return Err(CssError::Storage(format!("a record of op {op}, not a put")));
    }
    Ok((key, value))
}

/// The bytes a little-endian `u32` length says follow it, and the rest.
fn length_prefixed(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = crate::le_u32(bytes.get(..4)?)? as usize;
    let rest = &bytes[4..];
    (len <= rest.len()).then(|| rest.split_at(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_put(&mut out, key, value);
        out
    }

    /// Empty keys and values are legal, and a record is exactly its
    /// header, key and value.
    #[test]
    fn decode_takes_back_what_encode_wrote() {
        for (key, value) in [
            (&b"detail:7"[..], &b"<BloodTest/>"[..]),
            (b"", b"empty key"),
            (b"empty value", b""),
        ] {
            let record = encoded(key, value);
            assert_eq!(record.len(), 9 + key.len() + value.len());
            assert_eq!(decode_put(&record).unwrap(), (key, value));
        }
        // Encoding appends: two records back to back, the first intact.
        let mut both = encoded(b"a", b"1");
        encode_put(&mut both, b"b", b"2");
        assert_eq!(&both[..11], &encoded(b"a", b"1")[..]);
    }

    #[test]
    fn a_record_of_another_op_is_refused_naming_the_op() {
        let mut delete = encoded(b"k1", b"");
        delete[0] = 2;
        match decode_put(&delete) {
            Err(CssError::Storage(msg)) => assert_eq!(msg, "a record of op 2, not a put"),
            other => panic!("a delete record decoded: {other:?}"),
        }
    }

    #[test]
    fn a_record_cut_short_or_run_long_is_malformed() {
        let record = encoded(b"key", b"value");
        let mut long = record.clone();
        long.push(0);
        for bad in [&record[..record.len() - 1], &record[..3], &[], &long[..]] {
            assert!(
                matches!(decode_put(bad), Err(CssError::Storage(m)) if m == "malformed put record"),
                "{bad:?}"
            );
        }
    }
}
