//! Data subjects (patients / citizens).
//!
//! A notification message "contains only the data necessary to identify
//! a person (who)" — identifying but not sensitive information. The
//! platform stores these identifying fields **encrypted** inside the
//! events index. [`PersonIdentity`] is exactly that identifying tuple,
//! kept separate from any clinical payload.

use std::fmt;

use crate::id::PersonId;
use crate::time::Timestamp;

/// The identifying information of a person, as carried inside
/// notification messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PersonIdentity {
    /// Platform-wide identifier of the person.
    pub id: PersonId,
    /// National fiscal code (codice fiscale) or equivalent.
    pub fiscal_code: String,
    /// Given name.
    pub name: String,
    /// Family name.
    pub surname: String,
}

impl PersonIdentity {
    /// Canonical byte serialization used for encryption at rest in the
    /// events index. Fields are length-prefixed so the encoding is
    /// injective (no two identities share a serialization).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 12 + self.fiscal_code.len() + self.name.len() + self.surname.len(),
        );
        self.write_bytes(&mut out);
        out
    }

    /// Append the [`to_bytes`](Self::to_bytes) form to `out` — the one
    /// writer, for a caller that keeps its buffer between identities.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.value().to_le_bytes());
        for s in [&self.fiscal_code, &self.name, &self.surname] {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }

    /// Inverse of [`to_bytes`](Self::to_bytes). Slices the input in
    /// place: the three strings are all it allocates.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (id, [fiscal_code, name, surname]) = Self::fields_of(bytes)?;
        Some(PersonIdentity {
            id,
            fiscal_code: fiscal_code.to_owned(),
            name: name.to_owned(),
            surname: surname.to_owned(),
        })
    }

    /// The id of the identity `bytes` encode: what
    /// [`from_bytes`](Self::from_bytes) checks, without the strings —
    /// it allocates nothing.
    pub fn id_from_bytes(bytes: &[u8]) -> Option<PersonId> {
        Self::fields_of(bytes).map(|(id, _)| id)
    }

    /// The one reader of the serialization: the id and the three
    /// strings, in place. Every length prefix must fit, every string
    /// be UTF-8 and nothing follow the last.
    fn fields_of(bytes: &[u8]) -> Option<(PersonId, [&str; 3])> {
        let (id, mut rest) = bytes.split_first_chunk::<8>()?;
        let mut string = || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (raw, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
            rest = tail;
            std::str::from_utf8(raw).ok()
        };
        let fields = [string()?, string()?, string()?];
        rest.is_empty()
            .then_some((PersonId(u64::from_le_bytes(*id)), fields))
    }
}

impl fmt::Display for PersonIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({})", self.name, self.surname, self.fiscal_code)
    }
}

/// A full person record as kept by a source system.
///
/// Only [`PersonIdentity`] ever travels inside notifications; the rest
/// (birth date, address) stays at the source unless a detail schema
/// includes it explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    /// Identifying tuple used in notifications.
    pub identity: PersonIdentity,
    /// Date of birth.
    pub birth_date: Timestamp,
    /// Residential address.
    pub address: String,
    /// Municipality of residence.
    pub municipality: String,
}

impl Person {
    /// Shorthand for the platform-wide person id.
    pub fn id(&self) -> PersonId {
        self.identity.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident() -> PersonIdentity {
        PersonIdentity {
            id: PersonId(42),
            fiscal_code: "RSSMRA45C12L378Y".into(),
            name: "Mario".into(),
            surname: "Rossi".into(),
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let p = ident();
        let bytes = p.to_bytes();
        assert_eq!(PersonIdentity::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn bytes_roundtrip_empty_strings() {
        let p = PersonIdentity {
            id: PersonId(0),
            fiscal_code: String::new(),
            name: String::new(),
            surname: String::new(),
        };
        assert_eq!(PersonIdentity::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn truncated_bytes_rejected() {
        let bytes = ident().to_bytes();
        for cut in [0, 1, 7, 8, 11, bytes.len() - 1] {
            assert!(PersonIdentity::from_bytes(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn over_long_length_field_rejected() {
        let bytes = ident().to_bytes();
        // Each of the three length fields in turn claims one byte more
        // than follows it, then far more than any input holds.
        for at in [8, 8 + 4 + 16, 8 + 4 + 16 + 4 + 5] {
            let rest = (bytes.len() - at - 4) as u32;
            for len in [rest + 1, u32::MAX] {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
                assert!(PersonIdentity::from_bytes(&bad).is_none(), "{at} {len}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ident().to_bytes();
        bytes.push(0);
        assert!(PersonIdentity::from_bytes(&bytes).is_none());
    }

    #[test]
    fn non_utf8_rejected() {
        let mut bytes = ident().to_bytes();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert!(PersonIdentity::from_bytes(&bytes).is_none());
    }

    /// Every malformed input above, and the well-formed ones: the id
    /// reader accepts exactly what the full decoder accepts.
    #[test]
    fn the_id_reader_agrees_with_the_decoder() {
        let bytes = ident().to_bytes();
        let empty = PersonIdentity {
            id: PersonId(0),
            fiscal_code: String::new(),
            name: String::new(),
            surname: String::new(),
        };
        let mut cases = vec![bytes.clone(), empty.to_bytes()];
        cases.extend([0, 1, 7, 8, 11, bytes.len() - 1].map(|cut| bytes[..cut].to_vec()));
        for at in [8, 8 + 4 + 16, 8 + 4 + 16 + 4 + 5] {
            let rest = (bytes.len() - at - 4) as u32;
            for len in [rest + 1, u32::MAX] {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
                cases.push(bad);
            }
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        cases.push(trailing);
        let mut non_utf8 = bytes.clone();
        *non_utf8.last_mut().unwrap() = 0xFF;
        cases.push(non_utf8);
        for case in &cases {
            assert_eq!(
                PersonIdentity::id_from_bytes(case),
                PersonIdentity::from_bytes(case).map(|p| p.id),
                "{case:?}"
            );
        }
        assert_eq!(PersonIdentity::id_from_bytes(&bytes), Some(PersonId(42)));
    }

    #[test]
    fn display_formats_identity() {
        assert_eq!(ident().to_string(), "Mario Rossi (RSSMRA45C12L378Y)");
    }
}
