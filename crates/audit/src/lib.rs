//! The audit subsystem.
//!
//! A central promise of the CSS platform is accountability: the data
//! controller "maintains logs of the access request for auditing
//! purposes" and the architecture exists partly so one can "trace how
//! data is used by whom and for what purpose and ... answer auditing
//! inquiry by the privacy guarantor or the data subject herself"
//! (Sections 2 and 4).
//!
//! - [`AuditRecord`]: one structured entry — who did what, to which
//!   event, about which person, for which purpose, with which outcome.
//! - [`AuditShards`]: the append-only, hash-chained
//!   ([`css_crypto::HashChain`]) log, partitioned into one persisted
//!   shard per backend it is opened on; tampering with any past record
//!   is detectable from the chain head.
//! - [`AuditQuery`]: the inquiry interface ("who accessed the data of
//!   person X, and why?").
//! - [`report`]: aggregate summaries (accesses per purpose, denial
//!   rates) of the kind the governing body needs.

mod log;
pub mod query;
pub mod record;
pub mod report;
pub mod shards;

pub use query::AuditQuery;
pub use record::{AuditAction, AuditOutcome, AuditRecord};
pub use report::AuditReport;
pub use shards::AuditShards;
