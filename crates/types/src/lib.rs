//! Shared vocabulary for the CSS platform.
//!
//! This crate defines the domain types every other CSS crate speaks:
//! strongly-typed identifiers, the organizational actor hierarchy used by
//! privacy policies, purposes of use, timestamps and clocks, person
//! (data-subject) records, and the common error type.
//!
//! The types mirror Section 5.1 of the paper: an *actor* reflects the
//! hierarchical structure of an organization (e.g. `Hospital S. Maria`
//! with a `Laboratory` department inside it), a *purpose* is the stated
//! reason for a data access (healthcare treatment, statistical analysis,
//! administration, ...), and events are identified both by a *global*
//! identifier minted by the data controller and a *source* identifier
//! private to the producer.

pub mod actor;
pub mod error;
pub mod id;
pub mod person;
pub mod purpose;
pub mod time;

pub use actor::{Actor, ActorKind, ActorRegistry};
pub use error::{CssError, CssResult, DenyReason};
pub use id::{
    shard_of, ActorId, EventTypeId, GlobalEventId, IdGenerator, IdParseError, PersonId, PolicyId,
    RequestId, SourceEventId, SubscriptionId,
};
pub use person::{Person, PersonIdentity};
pub use purpose::Purpose;
pub use time::{Clock, Duration, SimClock, SystemClock, Timestamp};
