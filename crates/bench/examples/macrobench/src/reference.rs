//! The reference kernel: how fast the host is running right now.
//!
//! The sandbox is a small VM on a shared host whose neighbours slow it
//! by 20–60 % for seconds to minutes at a time (README.md, "Noise"): a
//! whole run can fall into such a stretch, and then no statistic over
//! the run's own windows recovers the speed of the code. So the
//! benchmark keeps executing one small fixed piece of work of its own
//! — allocation, fill and formatting, what every platform operation
//! spends much of its time on, and what the slow stretches hit hardest
//! (a register-only loop does not slow at all) — beside the platform
//! operations it times, and reports every time *at reference speed*:
//! multiplied by [`REFERENCE_NS`] ÷ the kernel's median time in the
//! same window. The kernel calls nothing of the platform, so a change
//! to the platform cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the seed commit's machine when nothing slows
/// it. A constant of the benchmark: on another machine every reported
/// time scales by one common factor, and comparisons hold.
pub const REFERENCE_NS: f64 = 3_500.0;

/// Buffers one execution allocates.
const BUFFERS: usize = 16;

/// The reference kernel and its evolving input.
pub struct Reference {
    x: u64,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Execute the kernel once; how long it took, in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let start = Instant::now();
        let mut x = self.x;
        let mut keep: Vec<(Vec<u8>, String)> = Vec::with_capacity(BUFFERS);
        for i in 0..BUFFERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut buffer = vec![0u8; 64 + (x >> 8) as usize % 512];
            buffer[0] = x as u8;
            keep.push((buffer, format!("{x:x}-{i}")));
        }
        self.x = x ^ black_box(&keep).len() as u64;
        drop(keep);
        start.elapsed().as_nanos() as u64
    }
}

/// Median of kernel times (sorted in place; upper middle of an even
/// count). The slice must not be empty.
pub fn median_ns(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64
}

/// The factor that turns a time measured while the kernel took
/// `kernel_ns` into the time at reference speed.
pub fn to_reference(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_scales_towards_the_reference() {
        let mut reference = Reference::new();
        let mut ns: Vec<u64> = (0..50).map(|_| reference.run()).collect();
        assert!(median_ns(&mut ns) > 0.0);
        // A host running the kernel at half speed halves reported times.
        assert_eq!(to_reference(2.0 * REFERENCE_NS), 0.5);
        assert_eq!(median_ns(&mut [9, 1, 5]), 5.0);
    }
}
