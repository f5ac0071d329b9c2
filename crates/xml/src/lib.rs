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
//!   from a tree — and [`parse`], those tokens folded into a tree.
//!
//! What an event class allows (typed fields, required / optional,
//! enumerations — the paper's XSD) is `css_event::EventSchema`: one
//! validator, the one every publish runs.
//!
//! The subset deliberately excludes DTDs, namespace resolution,
//! processing instructions and entities beyond the five predefined ones —
//! none of which the platform's message formats use.

pub mod doc;
pub mod escape;
pub mod parser;
pub mod reader;
pub mod sink;
pub mod writer;

pub use doc::{Element, Node};
pub use parser::{parse, ParseError};
pub use reader::{Attributes, Reader, Token, TreeSource, XmlSource};
pub use sink::{StreamSink, TreeSink, XmlSink};
pub use writer::{to_document_string, to_string, to_string_pretty};
