//! # CSS — Privacy-Preserving Event-Driven Integration
//!
//! Umbrella crate re-exporting the full CSS platform. See `README.md`
//! for a guided tour and `DESIGN.md` for the subsystem inventory.
//!
//! ```
//! use css::prelude::*;
//! ```

pub use css_audit as audit;
pub use css_bus as bus;
pub use css_controller as controller;
pub use css_core as core;
pub use css_crypto as crypto;
pub use css_event as event;
pub use css_gateway as gateway;
pub use css_health as health;
pub use css_monitor as monitor;
pub use css_policy as policy;
pub use css_registry as registry;
pub use css_sim as sim;
pub use css_storage as storage;
pub use css_telemetry as telemetry;
pub use css_trace as trace;
pub use css_types as types;
pub use css_xml as xml;

/// Commonly used items, re-exported in one place.
pub mod prelude {
    pub use css_core::prelude::*;
}
