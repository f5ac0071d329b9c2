//! The four workloads. Rates, counts and mixes are constants of the
//! benchmark: they are changed only by a `benchmark` issue, never to
//! make a number look better (see README.md).

/// What one generated operation is, as the metrics see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// publish → route → every notified actor holds the message.
    Notify,
    /// Detail request the oracle expects to be permitted.
    Permit,
    /// Detail request the oracle expects to be denied.
    Deny,
    /// `inquire_by_person`.
    Inquiry,
    /// `inquire_between`.
    Between,
    /// Citizen profile (PHR) view.
    Profile,
    /// Citizen audit-trail view.
    Trail,
    /// Citizen opt-out / opt-in.
    Consent,
    /// Policy define / revoke.
    Policy,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 9] = [
        Kind::Notify,
        Kind::Permit,
        Kind::Deny,
        Kind::Inquiry,
        Kind::Between,
        Kind::Profile,
        Kind::Trail,
        Kind::Consent,
        Kind::Policy,
    ];

    /// Dense index for per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Why the generator expects a detail request to be denied — a
/// generation heuristic only; the expected reason itself always comes
/// from the oracle's reference decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyKind {
    /// A purpose no policy lists.
    WrongPurpose,
    /// The requester's only policy on the class was just revoked.
    Revoked,
    /// The requester's policy is past its validity window.
    Expired,
    /// The citizen opted out.
    ConsentOut,
}

/// One workload: a world size, a traffic mix and its fixed load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Storage on real files (`DirProvider`) instead of memory.
    pub durable: bool,
    /// Adds the org → unit → role consumer hierarchy and its policies.
    pub hierarchy: bool,
    /// Citizens in the world.
    pub citizens: usize,
    /// Events published during set-up at the nominal `--seconds`.
    pub preload: usize,
    /// Share of preloaded (and generated) traffic about the 20 % of
    /// citizens "in care".
    pub care_share: f64,
    /// Operation mix in percent (sums to 100).
    pub mix: &'static [(Kind, u32)],
    /// How intended denials are provoked, in percent (sums to 100).
    pub deny: &'static [(DenyKind, u32)],
    /// Open-loop arrival rate, operations per second.
    pub rate: f64,
    /// Closed-loop operations per thread count, summed over the rounds,
    /// per second of `--seconds`.
    pub closed_per_s: usize,
}

/// The `--seconds` value the constants below are sized for; it is the
/// `run_seconds` of `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 20;
/// Share of `--seconds` the open-loop segments last in total (by
/// construction: `rate × OPEN_SHARE × seconds` arrivals on a schedule).
pub const OPEN_SHARE: f64 = 0.6;
/// Traced-replay operations per second of `--seconds`.
pub const TRACE_PER_S: usize = 1_000;
/// Rounds a run is split into. Each round is an open-loop segment, a
/// one-thread closed-loop burst and a two-thread closed-loop burst, so
/// every metric has one window per round spread over the whole run, and
/// a stretch of a few seconds in which the host runs at full speed
/// covers enough of them to decide the metric (`stats::quiet`).
pub const ROUNDS: usize = 48;
/// Discarded warm-up operations before the measured rounds.
pub const WARMUP_OPS: usize = 5_000;
/// Controller shards, pinned so results do not depend on the host's
/// core count.
pub const SHARDS: usize = 2;
/// Client threads of the two-thread bursts, and lanes of the model.
pub const CLIENTS: usize = 2;

const WRONG_PURPOSE_ONLY: &[(DenyKind, u32)] = &[(DenyKind::WrongPurpose, 100)];
const INGEST_MIX: &[(Kind, u32)] = &[
    (Kind::Notify, 65),
    (Kind::Permit, 15),
    (Kind::Deny, 5),
    (Kind::Inquiry, 10),
    (Kind::Profile, 5),
];

/// The workloads, in the order `run.sh` interleaves them. All but
/// `durable_ingest` are listed in `BENCHMARK.json`; `durable_ingest`
/// is the same mix as `ingest_heavy` on real files, whose timings on a
/// shared disk spread too widely to gate anything on (see README.md).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_mix",
        durable: false,
        hierarchy: false,
        citizens: 3_000,
        preload: 30_000,
        care_share: 0.6,
        mix: &[
            (Kind::Notify, 20),
            (Kind::Permit, 45),
            (Kind::Deny, 10),
            (Kind::Inquiry, 20),
            (Kind::Profile, 5),
        ],
        deny: WRONG_PURPOSE_ONLY,
        rate: 4_000.0,
        closed_per_s: 1_500,
    },
    Workload {
        name: "ingest_heavy",
        durable: false,
        hierarchy: false,
        citizens: 4_000,
        preload: 24_000,
        care_share: 0.6,
        mix: INGEST_MIX,
        deny: WRONG_PURPOSE_ONLY,
        rate: 3_000.0,
        closed_per_s: 1_000,
    },
    Workload {
        name: "durable_ingest",
        durable: true,
        hierarchy: false,
        citizens: 2_000,
        preload: 4_000,
        care_share: 0.6,
        mix: INGEST_MIX,
        deny: WRONG_PURPOSE_ONLY,
        rate: 1_000.0,
        closed_per_s: 300,
    },
    Workload {
        name: "inquiry_deep",
        durable: false,
        hierarchy: false,
        citizens: 1_500,
        preload: 30_000,
        care_share: 0.6,
        mix: &[
            (Kind::Notify, 10),
            (Kind::Permit, 10),
            (Kind::Deny, 10),
            (Kind::Inquiry, 55),
            (Kind::Between, 5),
            (Kind::Profile, 10),
        ],
        deny: WRONG_PURPOSE_ONLY,
        rate: 2_400.0,
        closed_per_s: 800,
    },
    Workload {
        name: "access_churn",
        durable: false,
        hierarchy: true,
        citizens: 4_000,
        preload: 20_000,
        care_share: 0.6,
        mix: &[
            (Kind::Notify, 5),
            (Kind::Permit, 35),
            (Kind::Deny, 35),
            (Kind::Inquiry, 10),
            (Kind::Policy, 4),
            (Kind::Consent, 10),
            (Kind::Trail, 1),
        ],
        deny: &[
            (DenyKind::WrongPurpose, 40),
            (DenyKind::Revoked, 20),
            (DenyKind::Expired, 20),
            (DenyKind::ConsentOut, 20),
        ],
        rate: 3_400.0,
        closed_per_s: 1_500,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Events published during set-up for a run of `seconds`: the
    /// nominal preload scaled like every other count, but never fewer
    /// than one event per citizen.
    pub fn preload_for(&self, seconds: u64) -> usize {
        (self.preload * seconds as usize / NOMINAL_SECONDS as usize).max(self.citizens)
    }

    /// Open-loop operations per round for a run of `seconds`.
    pub fn open_ops_per_round(&self, seconds: u64) -> usize {
        ((self.rate * OPEN_SHARE * seconds as f64) as usize / ROUNDS).max(1)
    }

    /// Closed-loop operations per burst (one per round and thread
    /// count) for a run of `seconds`; divisible by the client threads.
    pub fn closed_ops_per_round(&self, seconds: u64) -> usize {
        (self.closed_per_s * seconds as usize / (ROUNDS * CLIENTS)).max(1) * CLIENTS
    }

    /// Traced-replay operations for a run of `seconds`.
    pub fn trace_ops(&self, seconds: u64) -> usize {
        TRACE_PER_S * seconds as usize
    }

    /// When the `k`-th of `of` expiring policies ends, in simulated
    /// milliseconds (one per operation) after set-up. Validity windows
    /// "expire mid-run", spread over the rounds, and always inside an
    /// open-loop segment: there one thread drives the clock, so the
    /// oracle knows on which side of the boundary every request falls.
    pub fn expiry_offset_ms(&self, seconds: u64, k: usize, of: usize) -> u64 {
        let open = self.open_ops_per_round(seconds);
        let per_round = open + 2 * self.closed_ops_per_round(seconds);
        let per_segment = of.div_ceil(ROUNDS);
        let (round, slot) = (k % ROUNDS, k / ROUNDS);
        (WARMUP_OPS + round * per_round + (slot + 1) * open / (per_segment + 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one_hundred() {
        for w in &WORKLOADS {
            assert_eq!(w.mix.iter().map(|(_, p)| p).sum::<u32>(), 100, "{}", w.name);
            assert_eq!(
                w.deny.iter().map(|(_, p)| p).sum::<u32>(),
                100,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_round_supports_a_median_of_each_gated_kind() {
        // notify, permit, deny and inquiry carry p50 metrics with one
        // window per round: each needs over the 20 samples a median
        // window needs, in every round (the mix is dealt, not drawn, so
        // the count per round does not vary). The ungated
        // `durable_ingest` is too slow for that many and gets fewer,
        // larger windows from `window_quantile`.
        for w in WORKLOADS.iter().filter(|w| !w.durable) {
            let per_round = w.open_ops_per_round(NOMINAL_SECONDS);
            for (kind, pct) in w.mix {
                if matches!(
                    kind,
                    Kind::Notify | Kind::Permit | Kind::Deny | Kind::Inquiry
                ) {
                    let expected = per_round * *pct as usize / 100;
                    assert!(expected >= 30, "{} {kind:?}: {expected}", w.name);
                }
            }
        }
    }

    #[test]
    fn bursts_split_evenly_between_client_threads() {
        for w in &WORKLOADS {
            for s in [1, 7, NOMINAL_SECONDS] {
                assert_eq!(w.closed_ops_per_round(s) % CLIENTS, 0);
                assert!(w.open_ops_per_round(s) >= 1);
            }
        }
    }
}
