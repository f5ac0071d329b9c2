//! Minimal XML infrastructure for the CSS platform.
//!
//! The paper exchanges everything as XML: event details are described by
//! XSD schemas "installed" in the event catalog, privacy policies are
//! serialized as XACML documents, and messages travel as XML envelopes
//! over the service bus. This crate provides the small, dependency-free
//! XML subset the platform needs:
//!
//! - an element tree model with a builder API ([`Element`]),
//! - a sink interface types encode themselves through ([`sink`]):
//!   streamed straight to text, or built into a tree,
//! - a writer with correct escaping ([`writer`]),
//! - the matching source interface types decode themselves from
//!   ([`reader`]): tokens pulled off the text in place, or replayed
//!   from a tree — and [`parse`], those tokens folded into a tree,
//! - the binary form of the same documents ([`binary`]), which the
//!   at-rest logs write, and [`Stored`], the source that reads a stored
//!   payload in whichever form its first byte names; its varint and
//!   length-prefix primitives ([`put_varint`], [`put_text`],
//!   [`read_varint`], [`read_slice`]) also write and read the gateway's
//!   detail records.
//!
//! What an event class allows (typed fields, required / optional,
//! enumerations — the paper's XSD) is `css_event::EventSchema`: one
//! validator, the one every publish runs.
//!
//! The subset deliberately excludes DTDs, namespace resolution,
//! processing instructions and entities beyond the five predefined ones —
//! none of which the platform's message formats use.

pub mod binary;
pub mod doc;
pub mod escape;
pub mod parser;
pub mod reader;
pub mod sink;
mod value;
pub mod writer;

pub use binary::{
    put_text, put_varint, read_slice, read_varint, BinarySink, Names, Stored, BINARY_V1,
};
pub use doc::{Element, Node};
pub use parser::{parse, ParseError};
pub use reader::{Attributes, Reader, Token, TreeSource, XmlSource};
pub use sink::{StreamSink, TreeSink, XmlSink};
pub use value::Value;
pub use writer::{to_document_string, to_string, to_string_pretty};
