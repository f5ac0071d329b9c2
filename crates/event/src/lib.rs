//! The event model of the CSS platform.
//!
//! "Events are the atomic pieces of information exchanged between data
//! producers and data consumers" (Section 4). An event is carried by two
//! messages at different levels of detail and sensitiveness:
//!
//! - the [`NotificationMessage`] — *who / what / when / where*, no
//!   sensitive payload; it is what travels on the bus and sits in the
//!   events index;
//! - the [`DetailMessage`] — the full payload ([`EventDetails`], a list
//!   of typed fields per Definition 1), kept at the producer and only
//!   released field-by-field through the policy enforcer.
//!
//! [`EventSchema`] plays the role of the XSD "installed" in the event
//! catalog: it declares the fields of a class of event details and
//! validates instances. [`EventDetails::blank_outside`] implements the
//! paper's obligation semantics — "fields that are not authorized are
//! left empty" — which the gateway applies *in* the decode of a stored
//! message ([`StoredDetail::finish`]: a field outside the allowed set
//! is type-checked and never built), and
//! [`EventDetails::is_privacy_safe`] is Definition 4.
//!
//! A gateway stores each detail message in a compact record form
//! ([`DetailMessage::encode_record`]) and reads what it stored, in that
//! form or in the XML form it wrote before, through [`StoredDetail`].
//! The XML form ([`DetailMessage::to_xml`]) is what travels and what
//! the paper shows.

pub mod details;
pub mod field;
pub mod message;
pub mod notification;
pub mod schema;

pub use details::{EventDetails, FieldMask};
pub use field::{Decimal, FieldDef, FieldKind, FieldValue};
pub use message::{
    DetailDecoder, DetailMessage, PrivacyAwareEvent, StoredDetail, DETAIL_RECORD_V1,
};
pub use notification::NotificationMessage;
pub use schema::{EventSchema, InstanceNames};
