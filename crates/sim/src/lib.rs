//! Synthetic Trentino scenario and workload generation.
//!
//! The paper evaluates the CSS platform on the social-health ecosystem
//! of the Trentino region (Section 2): hospitals, municipalities, a
//! telecare company, the social welfare department, family doctors and
//! the provincial governance exchanging events about citizens in care.
//! Real deployment data is not available (it is health data), so this
//! crate generates the closest synthetic equivalent:
//!
//! - [`scenario`]: builds a fully-wired platform with the region's
//!   organizations, event classes and the policy matrix the paper's
//!   examples imply (family doctors see clinical results for treatment,
//!   the governance sees only `age`/`sex`/`autonomy_score` for
//!   statistics, ...);
//! - [`generator`]: seeded random workloads over that scenario —
//!   publishes, subscription drains, purpose-stated detail requests;
//! - [`pathway`]: correlated *elderly care pathway* event sequences
//!   (discharge → assessment → home care → meals → telecare), the
//!   process the paper's monitoring targets;
//! - [`baseline`]: the two comparators used by experiments E1 and E8 —
//!   **point-to-point document exchange** (the pre-CSS world of Fig. 1)
//!   and **full-push pub/sub** (no two-phase privacy layer).

pub mod baseline;
pub mod generator;
pub mod metrics;
pub mod pathway;
pub mod scenario;

pub use baseline::{
    full_push_exposure, over_constrained_exposure, point_to_point_exposure, two_phase_exposure,
};
pub use generator::{run_workload, synth_details, WorkloadConfig, WorkloadReport};
pub use metrics::ExposureReport;
pub use pathway::{run_pathway, PathwayReport};
pub use scenario::{Orgs, Scenario, ScenarioConfig};
