//! The one monotonic clock of the timing layers.
//!
//! A [`StageTimer`](crate::StageTimer) boundary and a live span's edge
//! read the clock here and nowhere else, so a debug build can count the
//! reads an operation costs, per thread, the way
//! `css_crypto::sealed::ledger` counts seals and opens. A release build
//! counts nothing: its [`reads`] is `None`.

use std::time::Instant;

#[cfg(debug_assertions)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Read the monotonic clock.
pub fn now() -> Instant {
    #[cfg(debug_assertions)]
    READS.set(READS.get() + 1);
    Instant::now()
}

/// The clock reads this thread has made through [`now`]; `None` in a
/// release build, which keeps no count.
pub fn reads() -> Option<u64> {
    #[cfg(debug_assertions)]
    return Some(READS.get());
    #[cfg(not(debug_assertions))]
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    fn every_read_is_counted_on_its_own_thread() {
        let before = reads().unwrap();
        now();
        std::thread::spawn(now).join().unwrap();
        now();
        assert_eq!(reads(), Some(before + 2));
    }

    /// Release builds carry no counter: a read is `Instant::now`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_reads_are_not_counted() {
        now();
        assert_eq!(reads(), None);
    }
}
