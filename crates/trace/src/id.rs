//! Trace and span identifiers.
//!
//! Both are deterministic: a trace id mixes the caller's clock reading
//! with a process-local counter, a span id is purely sequential. Under
//! a simulated clock the very same run produces the very same ids,
//! which is what makes trace assertions in tests exact instead of
//! pattern matches.

use std::fmt;
use std::str::FromStr;

/// Identifier shared by every span of one request's causal tree, and
/// stamped into the audit records the request produces.
///
/// The `Display` form is 16 lowercase hex digits (the audit XML and the
/// Chrome export both use it); [`TraceId::from_str`] parses it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint an id from a clock reading and a sequence number.
    ///
    /// The millisecond timestamp fills the high 32 bits and the counter
    /// the low 32, so ids are unique per process as long as fewer than
    /// 2³² traces start on the same clock value, and sort roughly by
    /// start time. Counters start at 1, so a minted id is never zero.
    pub fn mint(now_millis: u64, counter: u64) -> TraceId {
        TraceId(((now_millis & 0xFFFF_FFFF) << 32) | (counter & 0xFFFF_FFFF))
    }

    /// Raw numeric value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for TraceId {
    fn from(value: u64) -> Self {
        TraceId(value)
    }
}

impl From<TraceId> for u64 {
    fn from(id: TraceId) -> u64 {
        id.0
    }
}

impl FromStr for TraceId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u64::from_str_radix(s, 16).map(TraceId)
    }
}

/// Identifier of one span within its collector, assigned sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Raw numeric value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_deterministic() {
        assert_eq!(TraceId::mint(5, 1), TraceId::mint(5, 1));
        assert_ne!(TraceId::mint(5, 1), TraceId::mint(5, 2));
        assert_ne!(TraceId::mint(5, 1), TraceId::mint(6, 1));
    }

    #[test]
    fn mint_layout_sorts_by_time() {
        assert!(TraceId::mint(10, 900) < TraceId::mint(11, 1));
    }

    #[test]
    fn mint_never_zero_with_positive_counter() {
        assert_ne!(TraceId::mint(0, 1), TraceId(0));
    }

    #[test]
    fn display_roundtrips() {
        let id = TraceId::mint(0x1234, 42);
        let text = id.to_string();
        assert_eq!(text.len(), 16);
        assert_eq!(text.parse::<TraceId>().unwrap(), id);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-hex!".parse::<TraceId>().is_err());
    }
}
