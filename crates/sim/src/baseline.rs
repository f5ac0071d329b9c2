//! Baseline integration architectures (experiments E1 and E8).
//!
//! The paper motivates CSS against the status quo of Fig. 1 — manual,
//! point-to-point document exchange where "data owners ... do not have
//! any fine-grained control on the data they exchange" and "either they
//! make the data inaccessible ... or they release more data than
//! required". These analytic models let the tests compare three
//! architectures on identical workload parameters:
//!
//! - **point-to-point**: every producer-consumer pair needs its own
//!   channel; full documents travel on every exchange;
//! - **full-push pub/sub**: a bus removes the channel explosion, but
//!   details are pushed inside notifications, so sensitive data still
//!   reaches every subscriber;
//! - **two-phase CSS**: notifications carry no sensitive payload;
//!   details travel only on explicit, policy-filtered requests.

use crate::metrics::ExposureReport;

/// Workload parameters shared by the three models.
#[derive(Debug, Clone, Copy)]
pub struct FlowParams {
    /// Producer organizations.
    pub producers: usize,
    /// Consumer organizations.
    pub consumers: usize,
    /// Events published in the window under study.
    pub events: usize,
    /// Consumers interested in (subscribed to) each event.
    pub interested_per_event: usize,
    /// Fraction of notified consumers that actually need the details.
    pub detail_request_prob: f64,
    /// Bytes of a notification (who/what/when/where).
    pub notification_bytes: usize,
    /// Bytes of a full detail document.
    pub detail_bytes: usize,
    /// Bytes of the sensitive portion of a detail document.
    pub sensitive_bytes: usize,
    /// Fraction of the detail document the applicable policy allows.
    pub allowed_fraction: f64,
}

impl Default for FlowParams {
    fn default() -> Self {
        FlowParams {
            producers: 4,
            consumers: 5,
            events: 1_000,
            interested_per_event: 3,
            detail_request_prob: 0.3,
            notification_bytes: 200,
            detail_bytes: 2_000,
            sensitive_bytes: 1_200,
            allowed_fraction: 0.5,
        }
    }
}

/// Fig. 1's world: direct document exchange between every pair.
pub fn point_to_point_exposure(p: &FlowParams) -> ExposureReport {
    let deliveries = p.events * p.interested_per_event;
    let needless = (deliveries as f64 * (1.0 - p.detail_request_prob)).round() as usize;
    ExposureReport {
        // Every producer must integrate with every consumer.
        channels: p.producers * p.consumers,
        messages: deliveries,
        total_bytes: deliveries * p.detail_bytes,
        // The full document, sensitive data included, goes to everyone
        // interested.
        sensitive_bytes: deliveries * p.sensitive_bytes,
        unnecessary_disclosures: needless,
        unserved_needs: 0,
    }
}

/// Pub/sub without the two-phase privacy layer: details ride inside the
/// notification.
pub fn full_push_exposure(p: &FlowParams) -> ExposureReport {
    let deliveries = p.events * p.interested_per_event;
    let needless = (deliveries as f64 * (1.0 - p.detail_request_prob)).round() as usize;
    ExposureReport {
        // Each party integrates once, with the bus.
        channels: p.producers + p.consumers,
        messages: deliveries,
        total_bytes: deliveries * p.detail_bytes,
        sensitive_bytes: deliveries * p.sensitive_bytes,
        unnecessary_disclosures: needless,
        unserved_needs: 0,
    }
}

/// The CSS model: summary first, filtered details on explicit request.
pub fn two_phase_exposure(p: &FlowParams) -> ExposureReport {
    let deliveries = p.events * p.interested_per_event;
    let requests = (deliveries as f64 * p.detail_request_prob).round() as usize;
    let allowed_detail = (p.detail_bytes as f64 * p.allowed_fraction).round() as usize;
    let allowed_sensitive = (p.sensitive_bytes as f64 * p.allowed_fraction).round() as usize;
    ExposureReport {
        channels: p.producers + p.consumers,
        // Notifications to everyone interested, plus request/response
        // round-trips for those that need details.
        messages: deliveries + 2 * requests,
        total_bytes: deliveries * p.notification_bytes
            + requests * (p.notification_bytes / 2 + allowed_detail),
        // Sensitive data moves only inside permitted, filtered responses.
        sensitive_bytes: requests * allowed_sensitive,
        unnecessary_disclosures: 0,
        unserved_needs: 0,
    }
}

/// The paper's other failure mode: "either they make the data
/// inaccessible (over-constraining approach) or they release more data
/// than required". Here sources share nothing beyond notifications:
/// perfect privacy, but every legitimate detail need goes unserved.
pub fn over_constrained_exposure(p: &FlowParams) -> ExposureReport {
    let deliveries = p.events * p.interested_per_event;
    let needs = (deliveries as f64 * p.detail_request_prob).round() as usize;
    ExposureReport {
        channels: p.producers + p.consumers,
        messages: deliveries,
        total_bytes: deliveries * p.notification_bytes,
        sensitive_bytes: 0,
        unnecessary_disclosures: 0,
        unserved_needs: needs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_constraining_trades_disclosure_for_unserved_needs() {
        let p = FlowParams::default();
        let closed = over_constrained_exposure(&p);
        let css = two_phase_exposure(&p);
        assert_eq!(closed.sensitive_bytes, 0);
        assert!(closed.unserved_needs > 0);
        // CSS serves every legitimate need with bounded disclosure.
        assert_eq!(css.unserved_needs, 0);
        assert!(css.sensitive_bytes > 0);
    }

    #[test]
    fn channel_counts_cross_over_with_scale() {
        // Point-to-point channels grow multiplicatively, bus channels
        // additively: at 2x2 they tie, beyond that the bus wins.
        let small = FlowParams {
            producers: 2,
            consumers: 2,
            ..Default::default()
        };
        assert_eq!(point_to_point_exposure(&small).channels, 4);
        assert_eq!(two_phase_exposure(&small).channels, 4);
        let large = FlowParams {
            producers: 20,
            consumers: 30,
            ..Default::default()
        };
        assert_eq!(point_to_point_exposure(&large).channels, 600);
        assert_eq!(two_phase_exposure(&large).channels, 50);
    }

    #[test]
    fn two_phase_minimizes_sensitive_exposure() {
        let p = FlowParams::default();
        let ptp = point_to_point_exposure(&p);
        let push = full_push_exposure(&p);
        let css = two_phase_exposure(&p);
        assert_eq!(ptp.sensitive_bytes, push.sensitive_bytes);
        assert!(css.sensitive_bytes < ptp.sensitive_bytes / 2);
        assert_eq!(css.unnecessary_disclosures, 0);
        assert!(ptp.unnecessary_disclosures > 0);
    }

    #[test]
    fn two_phase_costs_more_messages_at_high_request_rates() {
        // The trade-off: when *everyone* wants details, two-phase pays
        // extra round-trips.
        let hot = FlowParams {
            detail_request_prob: 1.0,
            ..Default::default()
        };
        let css = two_phase_exposure(&hot);
        let push = full_push_exposure(&hot);
        assert!(css.messages > push.messages);
        // But still discloses less when policies filter fields.
        assert!(css.sensitive_bytes < push.sensitive_bytes);
    }

    #[test]
    fn zero_request_rate_moves_no_sensitive_bytes() {
        let cold = FlowParams {
            detail_request_prob: 0.0,
            ..Default::default()
        };
        let css = two_phase_exposure(&cold);
        assert_eq!(css.sensitive_bytes, 0);
        assert_eq!(css.messages, cold.events * cold.interested_per_event);
    }
}
