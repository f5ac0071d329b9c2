//! # css-core — the CSS platform facade
//!
//! This crate assembles the subsystem crates into the system of the
//! paper and exposes the API a deployment would program against:
//!
//! - [`CssPlatform`]: one data controller plus the gateways of every
//!   producer, wired over the in-process service bus;
//! - [`ProducerHandle`]: what a source system (hospital, telecare
//!   company, municipality) sees — declare event classes, publish
//!   events, author privacy policies;
//! - [`ConsumerHandle`]: what a consumer (family doctor, social welfare
//!   department, governance) sees — subscribe, inquire the index,
//!   request details with a stated purpose;
//! - [`PolicyWizard`]: the Privacy Requirements Elicitation Tool of
//!   Section 6, as a validated step-by-step builder;
//! - [`pending`]: the pending-access-request flow of Section 5 — a
//!   consumer asks for a class it has no policy for, the producer is
//!   notified and guided to define one.
//!
//! ## Quickstart
//!
//! ```
//! use css_core::prelude::*;
//!
//! let mut platform = CssPlatform::in_memory();
//! let hospital = platform.register_organization("Hospital S. Maria").unwrap();
//! let doctor = platform.register_organization("Family Doctor").unwrap();
//! platform.join(hospital, Role::Producer).unwrap();
//! platform.join(doctor, Role::Consumer).unwrap();
//!
//! // Producer declares a class of events.
//! let schema = EventSchema::new(EventTypeId::v1("blood-test"), "Blood Test", hospital)
//!     .field(FieldDef::required("PatientId", FieldKind::Integer))
//!     .field(FieldDef::required("Result", FieldKind::Text).sensitive());
//! platform.producer(hospital).unwrap().declare(&schema, Some("health/laboratory")).unwrap();
//!
//! // Producer authors a policy through the elicitation wizard.
//! platform
//!     .producer(hospital).unwrap()
//!     .policy_wizard(&EventTypeId::v1("blood-test")).unwrap()
//!     .select_fields(["PatientId", "Result"]).unwrap()
//!     .grant_to([doctor]).unwrap()
//!     .for_purposes([Purpose::HealthcareTreatment])
//!     .labeled("doctor-access", "treatment access")
//!     .save().unwrap();
//! ```

// A queue-full signal is never dropped: a filing's `Result` is neither
// bound to `_` nor turned into a discarded `Option` (a bare statement
// is rustc's `unused_must_use`). Held by clippy under scripts/check.sh:
// DESIGN §9.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok))]

pub mod citizen;
pub mod consumer;
pub mod elicitation;
pub mod ops;
pub mod pending;
pub mod platform;
pub mod producer;
pub mod provider;

pub use citizen::CitizenHandle;
pub use consumer::{ConsumerHandle, Delivered, Subscription};
/// The capacity in which an organization joins the platform
/// ([`CssPlatform::join`]): the contract role the controller signs.
pub use css_controller::ParticipantRole as Role;
pub use elicitation::{PolicyWizard, WizardError};
pub use pending::{AccessRequest, AccessRequestStatus, DEFAULT_PENDING_CAPACITY};
pub use platform::{default_shard_count, CssPlatform, CssPlatformBuilder};
pub use producer::ProducerHandle;
pub use provider::{BackendProvider, DirProvider, MemoryProvider};

pub use css_health::OpsHandle;

/// Commonly used items across the whole platform.
pub mod prelude {
    pub use crate::{
        CitizenHandle, ConsumerHandle, CssPlatform, CssPlatformBuilder, Delivered, PolicyWizard,
        ProducerHandle, Role, Subscription,
    };
    pub use css_controller::{ConsentDecision, ConsentScope, Credential};
    pub use css_event::{
        DetailMessage, EventDetails, EventSchema, FieldDef, FieldKind, FieldValue,
        NotificationMessage, PrivacyAwareEvent,
    };
    pub use css_policy::{PrivacyPolicy, ValidityWindow};
    pub use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
    pub use css_types::{
        Actor, ActorId, Clock, CssError, CssResult, DenyReason, Duration, EventTypeId,
        GlobalEventId, PersonId, PersonIdentity, Purpose, SimClock, Timestamp,
    };
}
