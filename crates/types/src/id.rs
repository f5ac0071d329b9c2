//! Strongly-typed identifiers.
//!
//! The paper distinguishes two identifiers for the same event: the
//! *global* event id (`eID`) minted by the data controller and
//! distributed inside notification messages, and the *source* event id
//! (`src_eID`) that is only meaningful inside the producer's own system.
//! The Policy Information Point maps one to the other (Section 5.2,
//! step 1 of Algorithm 1). Keeping them as distinct types makes it a
//! compile error to hand a consumer-visible id to a producer store.

use std::fmt;
use std::num::ParseIntError;
use std::str::FromStr;

/// `n` in decimal, zero-padded to at least `min_width` digits: what
/// `{:0min_width$}` writes, as one `write_str` of digits laid out on
/// the stack. Identifiers are formatted into every audit record, index
/// entry and detail message the platform stores.
fn write_zero_padded(f: &mut fmt::Formatter<'_>, n: u64, min_width: usize) -> fmt::Result {
    let mut digits = [b'0'; 20];
    let mut first = digits.len();
    let mut rest = n;
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let first = first.min(digits.len() - min_width);
    f.write_str(std::str::from_utf8(&digits[first..]).expect("decimal digits are ASCII"))
}

macro_rules! numeric_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value of the identifier.
            pub fn value(self) -> u64 {
                self.0
            }

            /// Short textual prefix used in the `Display` form.
            pub const PREFIX: &'static str = $prefix;
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(concat!($prefix, "-"))?;
                write_zero_padded(f, self.0, 8)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }

        impl FromStr for $name {
            type Err = IdParseError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let rest = s
                    .strip_prefix($prefix)
                    .and_then(|r| r.strip_prefix('-'))
                    .ok_or_else(|| IdParseError::BadPrefix {
                        expected: $prefix,
                        input: s.to_string(),
                    })?;
                let v = rest.parse::<u64>().map_err(IdParseError::BadNumber)?;
                Ok($name(v))
            }
        }
    };
}

numeric_id!(
    /// Global event identifier (`eID`): an artificial identifier generated
    /// by the data controller so events can be referenced independently of
    /// their producer.
    GlobalEventId,
    "evt"
);

numeric_id!(
    /// Source event identifier (`src_eID`): the identifier an event has
    /// inside the producer's local system; never shown to consumers.
    SourceEventId,
    "src"
);

numeric_id!(
    /// Identifier of an actor (organization or organizational unit).
    ActorId,
    "act"
);

numeric_id!(
    /// Identifier of a person (data subject / patient / citizen).
    PersonId,
    "per"
);

numeric_id!(
    /// Identifier of a privacy policy in the policy repository.
    PolicyId,
    "pol"
);

numeric_id!(
    /// Identifier of a subscription held by a data consumer.
    SubscriptionId,
    "sub"
);

numeric_id!(
    /// Identifier of a request-for-details, used for auditing.
    RequestId,
    "req"
);

/// Identifier of a class of event details (an entry in the event catalog).
///
/// Event types are named, versioned artifacts declared by a producer
/// (e.g. `blood-test` v1), so unlike the purely numeric ids they carry a
/// human-readable code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventTypeId {
    code: String,
    version: u32,
}

impl EventTypeId {
    /// Create a new event type identifier from a code and version.
    ///
    /// The code is normalized to lowercase; interior whitespace is
    /// replaced with hyphens so `Blood Test` and `blood-test` compare
    /// equal.
    pub fn new(code: impl AsRef<str>, version: u32) -> Self {
        let code = code
            .as_ref()
            .trim()
            .to_lowercase()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join("-");
        EventTypeId { code, version }
    }

    /// First version of a type with the given code.
    pub fn v1(code: impl AsRef<str>) -> Self {
        EventTypeId::new(code, 1)
    }

    /// The normalized code of the event type.
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The version of the event type.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Next version of the same code.
    pub fn next_version(&self) -> Self {
        EventTypeId {
            code: self.code.clone(),
            version: self.version + 1,
        }
    }
}

impl fmt::Display for EventTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.code)?;
        f.write_str("@v")?;
        write_zero_padded(f, u64::from(self.version), 1)
    }
}

impl FromStr for EventTypeId {
    type Err = IdParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (code, ver) = s.split_once("@v").ok_or_else(|| IdParseError::BadPrefix {
            expected: "<code>@v<version>",
            input: s.to_string(),
        })?;
        if code.is_empty() {
            return Err(IdParseError::BadPrefix {
                expected: "<code>@v<version>",
                input: s.to_string(),
            });
        }
        let version = ver.parse::<u32>().map_err(IdParseError::BadNumber)?;
        Ok(EventTypeId::new(code, version))
    }
}

/// Error produced when parsing an identifier from its textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdParseError {
    /// The textual prefix did not match the identifier type.
    BadPrefix {
        /// Prefix the identifier type expects.
        expected: &'static str,
        /// The offending input.
        input: String,
    },
    /// The numeric part failed to parse.
    BadNumber(ParseIntError),
}

impl fmt::Display for IdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdParseError::BadPrefix { expected, input } => {
                write!(
                    f,
                    "expected identifier with prefix {expected:?}, got {input:?}"
                )
            }
            IdParseError::BadNumber(e) => write!(f, "invalid numeric id component: {e}"),
        }
    }
}

impl std::error::Error for IdParseError {}

/// Monotonic generator for numeric identifiers.
///
/// Each subsystem that mints ids (the controller for `eID`s, producers
/// for `src_eID`s) holds one of these. Thread-safe.
#[derive(Debug)]
pub struct IdGenerator {
    next: std::sync::atomic::AtomicU64,
}

impl IdGenerator {
    /// A generator whose first issued value is `start`.
    pub fn starting_at(start: u64) -> Self {
        IdGenerator {
            next: std::sync::atomic::AtomicU64::new(start),
        }
    }

    /// Issue the next raw value.
    pub fn next_value(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Issue the next value converted into the requested id type.
    pub fn next_id<T: From<u64>>(&self) -> T {
        T::from(self.next_value())
    }

    /// Ensure all future values are strictly greater than `value`
    /// (restart support: resume past recovered identifiers).
    pub fn advance_past(&self, value: u64) {
        self.next
            .fetch_max(value + 1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Default for IdGenerator {
    fn default() -> Self {
        IdGenerator::starting_at(1)
    }
}

/// The shard owning routing key `key` on a plane of `n` shards
/// (`n ≥ 1`): Fibonacci multiply-shift, so sequential ids do not
/// cluster. Every sharded plane routes through this one function —
/// the mapping is part of the at-rest layout (a reopened directory
/// must find each citizen on the shard that wrote them).
pub fn shard_of(key: u64, n: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let id = GlobalEventId(42);
        let s = id.to_string();
        assert_eq!(s, "evt-00000042");
        assert_eq!(s.parse::<GlobalEventId>().unwrap(), id);
    }

    #[test]
    fn display_equals_the_format_machinery_at_every_width() {
        for n in [0, 7, 99_999_999, 100_000_000, 12_345_678_901, u64::MAX] {
            assert_eq!(ActorId(n).to_string(), format!("act-{n:08}"));
            assert_eq!(SourceEventId(n).to_string(), format!("src-{n:08}"));
        }
        for v in [0, 1, 10, u32::MAX] {
            assert_eq!(EventTypeId::new("x", v).to_string(), format!("x@v{v}"));
        }
    }

    #[test]
    fn parse_rejects_wrong_prefix() {
        let err = "src-00000042".parse::<GlobalEventId>().unwrap_err();
        assert!(matches!(err, IdParseError::BadPrefix { .. }));
    }

    #[test]
    fn parse_rejects_garbage_number() {
        let err = "evt-xyz".parse::<GlobalEventId>().unwrap_err();
        assert!(matches!(err, IdParseError::BadNumber(_)));
    }

    #[test]
    fn event_type_id_normalizes_code() {
        let a = EventTypeId::new("Blood Test", 1);
        let b = EventTypeId::v1("blood-test");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "blood-test@v1");
    }

    #[test]
    fn event_type_id_parse_roundtrip() {
        let id = EventTypeId::new("autonomy-assessment", 3);
        assert_eq!(id.to_string().parse::<EventTypeId>().unwrap(), id);
    }

    #[test]
    fn event_type_id_parse_rejects_missing_version() {
        assert!("blood-test".parse::<EventTypeId>().is_err());
        assert!("@v1".parse::<EventTypeId>().is_err());
    }

    #[test]
    fn event_type_next_version() {
        let id = EventTypeId::v1("discharge");
        assert_eq!(id.next_version().version(), 2);
        assert_eq!(id.next_version().code(), "discharge");
    }

    #[test]
    fn generator_is_monotonic() {
        let g = IdGenerator::default();
        let a: GlobalEventId = g.next_id();
        let b: GlobalEventId = g.next_id();
        assert!(b.value() > a.value());
    }

    #[test]
    fn shard_routing_is_pinned() {
        // (key, shard at n = 1, 2, 8) as routed since the planes were
        // sharded; a change here strands persisted records.
        let table: [(u64, usize, usize, usize); 16] = [
            (0x0, 0, 0, 0),
            (0x1, 0, 1, 1),
            (0x2, 0, 0, 2),
            (0x3, 0, 0, 4),
            (0x7, 0, 0, 2),
            (0x8, 0, 1, 3),
            (0x2a, 0, 0, 6),
            (0x64, 0, 1, 5),
            (0xff, 0, 1, 5),
            (0x100, 0, 1, 7),
            (0x3e8, 0, 1, 1),
            (0xffff, 0, 0, 0),
            (0xdead_beef, 0, 1, 7),
            (0x1_0000_0000, 0, 1, 5),
            (0x8000_0000_0000_3039, 0, 1, 3),
            (u64::MAX, 0, 0, 6),
        ];
        for (key, one, two, eight) in table {
            assert_eq!(
                (shard_of(key, 1), shard_of(key, 2), shard_of(key, 8)),
                (one, two, eight),
                "key {key:#x}"
            );
        }
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property, expressed here as a size/behavior sanity
        // check: both wrap u64 but display differently.
        assert_ne!(GlobalEventId(7).to_string(), SourceEventId(7).to_string());
    }
}
