//! Percentiles, medians and the quiet-window rule every latency and
//! throughput metric of the macro benchmark is reported by.

/// How many samples must lie beyond a percentile's rank for it to be
/// reported as measured (choosing-metrics: "the highest percentile that
/// has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support quantile `q` under the [`MIN_BEYOND`] guard.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= MIN_BEYOND as f64
}

/// Nearest-rank quantile of `samples` (sorted in place). `None` when
/// the slice is empty.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of a small set of values (mean of the middle two for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Share of a run's windows, counted from the best one, that decides
/// a metric: the host this runs on alternates between a fast and a
/// slow state for seconds to minutes at a time (README.md, "Noise"),
/// so a median over windows reports whichever state covered most of
/// the run, while the value a tenth of the way in from the best window
/// reports the fast state whenever a tenth of the run saw it.
pub const QUIET_SHARE: f64 = 0.1;

/// Which end of a metric's windows is the best one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The quiet-window value of per-window `values`: the nearest-rank
/// [`QUIET_SHARE`] quantile counted from the best window (of 48
/// windows, the fifth best). `None` when empty.
pub fn quiet(values: &[f64], better: Better) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let rank = ((v.len() as f64 * QUIET_SHARE).ceil() as usize).clamp(1, v.len());
    Some(match better {
        Better::Lower => v[rank - 1],
        Better::Higher => v[v.len() - rank],
    })
}

/// A latency quantile reported as the [`quiet`] value over windows of
/// the per-window quantile — stalled and slowed windows move the far
/// end of the windows' values, not the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQuantile {
    /// Quiet-window value, in the samples' unit.
    pub value: f64,
    /// Whether every window had [`MIN_BEYOND`] samples beyond the rank.
    pub supported: bool,
    /// Windows the sample was split into.
    pub windows: usize,
}

/// Split `samples` (in arrival order) into as many equal windows, at
/// most `max_windows`, as leave every window [`MIN_BEYOND`] samples
/// beyond quantile `q`; take the quantile of each window and report
/// the [`quiet`] value across windows. A kind too rare for even one supported
/// window is reported from the pooled sample with `supported: false`.
/// `None` when there are no samples at all.
pub fn window_quantile(samples: &[u64], q: f64, max_windows: usize) -> Option<WindowQuantile> {
    let per_window_min = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
    let windows = (samples.len() / per_window_min).clamp(1, max_windows.max(1));
    let size = samples.len() / windows;
    let mut per_window = Vec::with_capacity(windows);
    for w in 0..windows {
        // The last window takes the remainder so no sample is dropped.
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * size
        };
        per_window.push(percentile(&mut samples[w * size..end].to_vec(), q)? as f64);
    }
    Some(WindowQuantile {
        value: quiet(&per_window, Better::Lower)?,
        supported: supports(size, q),
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
    }

    #[test]
    fn guard_needs_ten_samples_beyond_the_rank() {
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(5_000, 0.999));
        assert!(supports(10_000, 0.999));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quiet_value_is_a_tenth_in_from_the_best_window() {
        let windows: Vec<f64> = (1..=48).rev().map(f64::from).collect();
        assert_eq!(quiet(&windows, Better::Lower), Some(5.0));
        assert_eq!(quiet(&windows, Better::Higher), Some(44.0));
        assert_eq!(quiet(&[7.0], Better::Lower), Some(7.0));
        assert_eq!(quiet(&[3.0, 9.0], Better::Higher), Some(9.0));
        assert_eq!(quiet(&[], Better::Lower), None);
    }

    #[test]
    fn quiet_windows_decide_when_most_of_the_run_was_slowed() {
        // Forty windows slowed to around 130, eight quiet ones at 100.
        let samples: Vec<u64> = (0..48u64)
            .flat_map(|w| {
                let base = if w % 6 == 0 { 100 } else { 130 + w };
                (0..1_000u64).map(move |i| base + (i % 3))
            })
            .collect();
        let q = window_quantile(&samples, 0.99, 48).unwrap();
        assert!(q.value < 110.0, "slowed windows leaked: {}", q.value);
        assert!(q.supported);
        assert_eq!(q.windows, 48);
    }

    #[test]
    fn rare_kinds_get_fewer_but_supported_windows() {
        // 2 400 samples support two p99 windows, not five.
        let samples: Vec<u64> = (0..2_400).collect();
        let q = window_quantile(&samples, 0.99, 5).unwrap();
        assert_eq!(q.windows, 2);
        assert!(q.supported);
        // The same sample supports five p50 windows.
        assert_eq!(window_quantile(&samples, 0.5, 5).unwrap().windows, 5);
        // Below one supported window the pooled value is flagged.
        let few: Vec<u64> = (0..999).collect();
        let q = window_quantile(&few, 0.99, 5).unwrap();
        assert_eq!(q.windows, 1);
        assert!(!q.supported);
        assert_eq!(q.value, 989.0);
        assert!(window_quantile(&[], 0.5, 5).is_none());
    }
}
