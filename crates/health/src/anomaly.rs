//! EWMA + MAD drift detection over a chronicle series.
//!
//! The detector watches one value per sampler tick (for histograms,
//! the per-tick p99 the store computes anyway) and keeps two
//! exponentially weighted baselines: the **EWMA** of the value (what
//! "normal" looks like) and the **MAD** — the EWMA of the absolute
//! deviation from that mean (how much "normal" wobbles). A tick whose
//! deviation exceeds `k × MAD` is anomalous. While anomalous the
//! baselines **freeze**: a sustained regression must not teach the
//! detector that 5 ms is the new normal, so the drift stays visible
//! (as the plane's own `Degraded` health check) until the
//! metric actually recovers.
//!
//! The rising edge of the anomalous state is the incident hook: the
//! plane's tick uses it to freeze the blackbox ring with the relevant
//! history window embedded in the bundle.

use parking_lot::Mutex;

/// EWMA smoothing factor in `(0, 1]`; higher adapts faster.
const ALPHA: f64 = 0.3;
/// Deviation multiplier: a tick is anomalous past `K × MAD`.
const K: f64 = 6.0;
/// Ticks observed before the detector starts judging.
const WARMUP: u64 = 8;

/// What one observation concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AnomalyVerdict {
    /// This tick *entered* the anomalous state (the capture trigger).
    pub edge: bool,
    /// The detector is currently in the anomalous state.
    pub anomalous: bool,
    /// The observed value.
    pub value: f64,
    /// The frozen/learned baseline (EWMA).
    pub expected: f64,
}

/// Point-in-time detector state for the health check and the bundle's
/// history section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnomalyStatus {
    /// The watched metric.
    pub metric: String,
    /// Whether the series is currently drifting.
    pub anomalous: bool,
    /// Last observed value.
    pub value: f64,
    /// Learned baseline at the last observation.
    pub expected: f64,
    /// Rising edges seen so far.
    pub edges: u64,
}

#[derive(Default)]
struct DetectorState {
    ewma: f64,
    mad: f64,
    samples: u64,
    anomalous: bool,
    edges: u64,
    last_value: f64,
}

/// An EWMA+MAD drift detector over one metric. `&self` everywhere —
/// the plane's tick writes, the health check and ops JSON read.
pub(crate) struct AnomalyDetector {
    /// The history metric watched (histograms are watched through
    /// their per-tick p99).
    metric: String,
    state: Mutex<DetectorState>,
}

impl AnomalyDetector {
    /// A fresh detector over `metric`; it starts judging after
    /// [`WARMUP`] ticks.
    pub(crate) fn new(metric: impl Into<String>) -> AnomalyDetector {
        AnomalyDetector {
            metric: metric.into(),
            state: Mutex::default(),
        }
    }

    /// The watched metric name.
    pub(crate) fn metric(&self) -> &str {
        &self.metric
    }

    /// Feed one per-tick value. Returns the verdict; `verdict.edge` is
    /// the trigger for an incident capture.
    pub(crate) fn observe(&self, value: f64) -> AnomalyVerdict {
        let mut s = self.state.lock();
        s.samples += 1;
        s.last_value = value;
        if s.samples == 1 {
            s.ewma = value;
        }
        let deviation = (value - s.ewma).abs();
        // The wobble floor keeps a near-constant warmup (MAD ≈ 0) from
        // flagging harmless jitter: the band is never tighter than 20%
        // of the baseline.
        let band = K * s.mad.max(s.ewma.abs() * 0.2);
        let judging = s.samples > WARMUP;
        let was = s.anomalous;
        if judging && deviation > band {
            s.anomalous = true;
        } else if s.anomalous && deviation <= band / 2.0 {
            // Hysteresis: recover only once clearly back inside the band.
            s.anomalous = false;
        }
        let edge = s.anomalous && !was;
        if edge {
            s.edges += 1;
        }
        // Baselines learn only from normal ticks (and warmup): an
        // outage must not become the new normal.
        if !s.anomalous {
            s.ewma = (1.0 - ALPHA) * s.ewma + ALPHA * value;
            s.mad = (1.0 - ALPHA) * s.mad + ALPHA * deviation;
        }
        AnomalyVerdict {
            edge,
            anomalous: s.anomalous,
            value,
            expected: s.ewma,
        }
    }

    /// Current state, for the health check and ops JSON.
    pub(crate) fn status(&self) -> AnomalyStatus {
        let s = self.state.lock();
        AnomalyStatus {
            metric: self.metric.clone(),
            anomalous: s.anomalous,
            value: s.last_value,
            expected: s.ewma,
            edges: s.edges,
        }
    }
}

#[cfg(test)]
impl AnomalyDetector {
    /// Ticks observed so far.
    pub(crate) fn samples(&self) -> u64 {
        self.state.lock().samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_then_degraded(detector: &AnomalyDetector, healthy: u64) -> Option<u64> {
        // Jittery but healthy baseline around 50 µs.
        for i in 0..healthy {
            let jitter = (i % 5) as f64 * 1_500.0;
            let v = detector.observe(50_000.0 + jitter);
            assert!(!v.anomalous, "healthy tick {i} flagged: {v:?}");
        }
        // Degraded: a 100× p99 regression. The acceptance criterion:
        // the state must flip within 2 ticks of the regression.
        (1..=2u64).find(|_| detector.observe(5_000_000.0).edge)
    }

    #[test]
    fn flips_within_two_ticks_of_a_regression() {
        let detector = AnomalyDetector::new("stage.total");
        let flipped_at = healthy_then_degraded(&detector, 30);
        assert_eq!(flipped_at, Some(1), "regression flagged on first tick");
        assert!(detector.status().anomalous);
        let status = detector.status();
        assert_eq!(status.edges, 1);
        assert!(
            status.expected < 100_000.0,
            "baseline did not chase the spike"
        );
    }

    #[test]
    fn edge_fires_once_per_episode_and_recovers() {
        let detector = AnomalyDetector::new("stage.total");
        assert!(healthy_then_degraded(&detector, 20).is_some());
        // Sustained regression: anomalous, but no second edge.
        for _ in 0..20 {
            let v = detector.observe(5_000_000.0);
            assert!(v.anomalous);
            assert!(!v.edge, "sustained drift must not re-trigger");
        }
        // Recovery: back inside the (frozen) band clears the state.
        for _ in 0..5 {
            detector.observe(50_000.0);
        }
        assert!(!detector.status().anomalous, "recovered");
        // A second episode fires a second edge.
        let v = detector.observe(5_000_000.0);
        assert!(v.edge, "fresh episode re-triggers");
        assert_eq!(detector.status().edges, 2);
    }

    #[test]
    fn warmup_never_judges() {
        let detector = AnomalyDetector::new("m");
        // Wild swings inside warmup (8 ticks) must not flag.
        for v in [10.0, 9_000_000.0, 5.0, 2_000_000.0] {
            assert!(!detector.observe(v).anomalous, "warmup must not judge");
        }
    }

    #[test]
    fn constant_series_tolerates_proportional_jitter() {
        let detector = AnomalyDetector::new("m");
        for _ in 0..50 {
            assert!(!detector.observe(100_000.0).anomalous);
        }
        // 10% wobble sits inside the 20% floor band.
        assert!(!detector.observe(110_000.0).anomalous);
        // 10× does not.
        assert!(detector.observe(1_000_000.0).anomalous);
    }
}
