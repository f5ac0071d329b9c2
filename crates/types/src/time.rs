//! Timestamps and clocks.
//!
//! The platform needs time in three places: the *when* of a notification
//! message, the validity window of privacy policies ("valid until" in the
//! elicitation tool, Fig. 7), and audit records. Because detail requests
//! "may arrive months after the publication of the notification", tests
//! and benchmarks need a clock they can advance by months in an instant —
//! [`SimClock`] provides that; production code uses [`SystemClock`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::id::put_zero_padded;

/// Milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Duration of `n` milliseconds.
    pub const fn millis(n: u64) -> Self {
        Duration(n)
    }

    /// Duration of `n` seconds.
    pub const fn seconds(n: u64) -> Self {
        Duration(n * 1_000)
    }

    /// Duration of `n` minutes.
    pub const fn minutes(n: u64) -> Self {
        Duration(n * 60_000)
    }

    /// Duration of `n` hours.
    pub const fn hours(n: u64) -> Self {
        Duration(n * 3_600_000)
    }

    /// Duration of `n` days.
    pub const fn days(n: u64) -> Self {
        Duration(n * 86_400_000)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }
}

impl Timestamp {
    /// The Unix epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// This timestamp advanced by `d`.
    pub fn plus(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// This timestamp rewound by `d` (saturating at the epoch).
    pub fn minus(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// Elapsed time from `earlier` to `self` (zero if `earlier` is later).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    /// A civil date-time assuming no leap seconds, good enough for logs
    /// and XML payloads: `YYYY-MM-DDThh:mm:ss.mmmZ`, the year padded to
    /// four digits and wider years in full. Laid out right to left on
    /// the stack and written at once, since every stored `DateTime`
    /// field is written through here.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (days, secs) = (self.0 / 86_400_000, self.0 / 1000 % 86_400);
        let (y, mo, d) = civil_from_days(days as i64);
        // The widest, at `u64::MAX`, is a nine-digit year and 20 more.
        let mut text = [0; 32];
        let mut at = text.len();
        for (n, width, after) in [
            (self.0 % 1000, 3, b'Z'),
            (secs % 60, 2, b'.'),
            (secs % 3600 / 60, 2, b':'),
            (secs / 3600, 2, b':'),
            (u64::from(d), 2, b'T'),
            (u64::from(mo), 2, b'-'),
            (y as u64, 4, b'-'),
        ] {
            at -= 1;
            text[at] = after;
            at = put_zero_padded(&mut text, at, n, width);
        }
        f.write_str(std::str::from_utf8(&text[at..]).expect("digits and separators are ASCII"))
    }
}

/// Convert a day count since 1970-01-01 into (year, month, day).
/// Algorithm from Howard Hinnant's `civil_from_days`.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// A source of the current time.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Timestamp;
}

/// Wall-clock time from the operating system.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        let ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Timestamp(ms)
    }
}

/// A manually-advanced clock for deterministic tests and simulations.
///
/// Cloning shares the underlying instant, so a platform and its test
/// harness can hold the same clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A simulated clock starting at the given instant.
    pub fn starting_at(t: Timestamp) -> Self {
        SimClock {
            now: Arc::new(AtomicU64::new(t.0)),
        }
    }

    /// Advance the clock by `d` and return the new instant.
    pub fn advance(&self, d: Duration) -> Timestamp {
        let v = self.now.fetch_add(d.0, Ordering::SeqCst) + d.0;
        Timestamp(v)
    }

    /// Jump the clock to an absolute instant (must not go backwards).
    pub fn set(&self, t: Timestamp) {
        self.now.fetch_max(t.0, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t.plus(Duration::seconds(2)), Timestamp(3_000));
        assert_eq!(t.minus(Duration::seconds(2)), Timestamp::EPOCH);
        assert_eq!(Timestamp(5_000).since(t), Duration(4_000));
        assert_eq!(t.since(Timestamp(5_000)), Duration(0));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::days(1).as_millis(), 86_400_000);
        assert_eq!(Duration::hours(2), Duration::minutes(120));
    }

    #[test]
    fn display_renders_epoch() {
        assert_eq!(Timestamp::EPOCH.to_string(), "1970-01-01T00:00:00.000Z");
    }

    /// The `write!` form the direct writer replaced: the reference the
    /// stored bytes of every `DateTime` field are pinned to.
    fn formatted(t: Timestamp) -> String {
        let total_secs = t.0 / 1000;
        let millis = t.0 % 1000;
        let (days, secs) = (total_secs / 86_400, total_secs % 86_400);
        let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
        let (y, mo, d) = civil_from_days(days as i64);
        format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
    }

    /// 10000-01-01T00:00:00.000Z, the first instant with a five-digit year.
    const YEAR_10000: u64 = 253_402_300_800_000;

    proptest::proptest! {
        /// Byte for byte what `write!` wrote, over the whole range:
        /// four-digit years, wider ones and the boundary between.
        #[test]
        fn display_writes_what_the_formatter_wrote(ms in proptest::prop_oneof![
            0..YEAR_10000,
            YEAR_10000 - 86_400_000..YEAR_10000 + 86_400_000,
            proptest::prelude::any::<u64>(),
        ]) {
            proptest::prop_assert_eq!(Timestamp(ms).to_string(), formatted(Timestamp(ms)));
        }
    }

    #[test]
    fn display_at_the_ends_of_the_range() {
        for ms in [0, 999, YEAR_10000 - 1, YEAR_10000, u64::MAX] {
            assert_eq!(Timestamp(ms).to_string(), formatted(Timestamp(ms)), "{ms}");
        }
        assert_eq!(
            Timestamp(YEAR_10000).to_string(),
            "10000-01-01T00:00:00.000Z"
        );
    }

    #[test]
    fn display_renders_known_date() {
        // 2010-09-13 (SDM 2010 timeframe) at 12:00:00 UTC.
        let days_to_2010_09_13 = 14_865u64;
        let t = Timestamp(days_to_2010_09_13 * 86_400_000 + 12 * 3_600_000);
        assert_eq!(t.to_string(), "2010-09-13T12:00:00.000Z");
    }

    #[test]
    fn sim_clock_advances_and_shares_state() {
        let c = SimClock::starting_at(Timestamp(100));
        let c2 = c.clone();
        c.advance(Duration::millis(50));
        assert_eq!(c2.now(), Timestamp(150));
        c2.set(Timestamp(1_000));
        assert_eq!(c.now(), Timestamp(1_000));
        // set never goes backwards
        c2.set(Timestamp(10));
        assert_eq!(c.now(), Timestamp(1_000));
    }

    #[test]
    fn system_clock_is_after_2020() {
        assert!(SystemClock.now().as_millis() > 1_577_836_800_000);
    }
}

#[cfg(test)]
mod calendar_tests {
    use super::*;

    fn ts(days: u64) -> Timestamp {
        Timestamp(days * 86_400_000)
    }

    #[test]
    fn leap_year_dates_render_correctly() {
        // 2000-02-29 is day 11016 since the epoch (2000 is a leap year
        // despite being divisible by 100, because it divides 400).
        assert_eq!(ts(11_016).to_string(), "2000-02-29T00:00:00.000Z");
        // 1900 was not a leap year; 2100 will not be. Check the days
        // around 2024-02-29 (day 19782).
        assert_eq!(ts(19_782).to_string(), "2024-02-29T00:00:00.000Z");
        assert_eq!(ts(19_783).to_string(), "2024-03-01T00:00:00.000Z");
    }

    #[test]
    fn year_boundaries() {
        // 2009-12-31 → 2010-01-01 (the CSS deployment period).
        assert_eq!(ts(14_609).to_string(), "2009-12-31T00:00:00.000Z");
        assert_eq!(ts(14_610).to_string(), "2010-01-01T00:00:00.000Z");
    }

    #[test]
    fn end_of_day_millis() {
        let t = Timestamp(86_400_000 - 1);
        assert_eq!(t.to_string(), "1970-01-01T23:59:59.999Z");
    }
}
