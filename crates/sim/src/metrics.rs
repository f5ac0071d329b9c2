//! Exposure metrics compared across integration architectures.

/// What an integration architecture cost in messages and disclosure.
///
/// Produced by the baselines and by the CSS measurement so experiments
/// E1 and E8 can compare like with like.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExposureReport {
    /// Distinct communication channels that had to be provisioned
    /// (point-to-point links, or topics + gateway links for CSS).
    pub channels: usize,
    /// Messages sent in total (documents, notifications, detail
    /// responses).
    pub messages: usize,
    /// Total payload bytes moved.
    pub total_bytes: usize,
    /// Bytes of *sensitive* field values that crossed an organization
    /// boundary.
    pub sensitive_bytes: usize,
    /// Count of sensitive field values disclosed to consumers that had
    /// no need for them (over-disclosure events).
    pub unnecessary_disclosures: usize,
    /// Count of legitimate detail needs that went unserved (the
    /// over-constraining failure mode: caregivers lacking data).
    pub unserved_needs: usize,
}
