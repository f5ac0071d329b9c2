//! The sink interface: one encoder per type, two destinations.
//!
//! A type that has an XML form writes it once, as calls on an
//! [`XmlSink`]: open an element, give it attributes, text and child
//! elements, close it. Where the calls go decides what comes out:
//!
//! - [`StreamSink`] appends the serialized text straight to a `String`
//!   — the write path of the at-rest logs, which need the bytes and
//!   never the tree;
//! - [`TreeSink`] builds the [`Element`] tree — for documents that are
//!   read back, queried or shown.
//!
//! [`crate::to_string`] is a tree walk into a [`StreamSink`], so both
//! routes produce the same bytes and tag syntax and escaping are
//! written down once, here and in [`crate::escape`].

use std::fmt::{self, Write};

use crate::doc::{Element, Node};
use crate::escape::escape_tail;

/// Receiver of one document's open / attribute / text / close events.
///
/// Attributes of an element must all be given before its first text or
/// child, as in the serialized form; values are anything `Display` and
/// are escaped by the sink.
pub trait XmlSink {
    /// Start an element; it becomes the current one.
    fn open(&mut self, name: &str);

    /// Add an attribute to the current element.
    fn attr(&mut self, key: &str, value: impl fmt::Display);

    /// Add a run of text to the current element. An empty run still
    /// counts as content: the element serializes as `<a></a>`, not as
    /// `<a/>`.
    fn text(&mut self, text: impl fmt::Display);

    /// End the current element; its parent becomes current again.
    fn close(&mut self);

    /// A child element holding only text.
    fn leaf(&mut self, name: &str, text: impl fmt::Display) {
        self.open(name);
        self.text(text);
        self.close();
    }
}

/// An element [`StreamSink`] has opened and not yet closed.
struct OpenElement {
    /// Where its name sits in the output (the end tag copies it).
    name: std::ops::Range<usize>,
    /// Whether an element (not just text) was written inside it; the
    /// indented form puts the end tag of such an element on its own
    /// line.
    has_element_child: bool,
}

/// The sink that serializes: every call appends to the borrowed
/// `String`, nothing else is retained beyond the names of the elements
/// still open.
pub struct StreamSink<'a> {
    out: &'a mut String,
    open: Vec<OpenElement>,
    /// The current element's start tag still lacks its `>` (or `/>`).
    in_start_tag: bool,
    /// Spaces per nesting level of the indented form; `None` writes no
    /// insignificant whitespace.
    indent: Option<usize>,
}

impl<'a> StreamSink<'a> {
    /// Serialize compactly onto the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        StreamSink {
            out,
            open: Vec::new(),
            in_start_tag: false,
            indent: None,
        }
    }

    /// Serialize onto the end of `out` with `width`-space indentation,
    /// one element per line; text stays inline so values remain
    /// whitespace-exact.
    pub(crate) fn indented(out: &'a mut String, width: usize) -> Self {
        StreamSink {
            indent: Some(width),
            ..StreamSink::new(out)
        }
    }

    /// Finish the current start tag, if one is pending: content follows.
    fn end_start_tag(&mut self) {
        if self.in_start_tag {
            self.out.push('>');
            self.in_start_tag = false;
        }
    }

    /// In the indented form, start a new line at nesting level `depth`.
    fn new_line(&mut self, depth: usize) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', depth * width));
        }
    }

    fn write_escaped(&mut self, value: impl fmt::Display, attr: bool) {
        let start = self.out.len();
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        escape_tail(self.out, start, attr);
    }
}

impl XmlSink for StreamSink<'_> {
    fn open(&mut self, name: &str) {
        self.end_start_tag();
        if let Some(parent) = self.open.last_mut() {
            parent.has_element_child = true;
            self.new_line(self.open.len());
        }
        self.out.push('<');
        let start = self.out.len();
        self.out.push_str(name);
        self.open.push(OpenElement {
            name: start..self.out.len(),
            has_element_child: false,
        });
        self.in_start_tag = true;
    }

    fn attr(&mut self, key: &str, value: impl fmt::Display) {
        debug_assert!(self.in_start_tag, "attribute {key:?} after content");
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
        self.write_escaped(value, true);
        self.out.push('"');
    }

    fn text(&mut self, text: impl fmt::Display) {
        self.end_start_tag();
        self.write_escaped(text, false);
    }

    fn close(&mut self) {
        let element = self.open.pop().expect("close without a matching open");
        if self.in_start_tag {
            self.out.push_str("/>");
            self.in_start_tag = false;
            return;
        }
        if element.has_element_child {
            self.new_line(self.open.len());
        }
        self.out.push_str("</");
        self.out.extend_from_within(element.name);
        self.out.push('>');
    }
}

/// The sink that builds the [`Element`] tree.
#[derive(Default)]
pub struct TreeSink {
    /// Elements opened and not yet closed, outermost first.
    open: Vec<Element>,
    root: Option<Element>,
}

impl TreeSink {
    /// The tree of the document `encode` writes — how a type's
    /// `to_xml()` is derived from its encoder.
    ///
    /// # Panics
    /// Panics unless `encode` opens and closes exactly one root
    /// element — an encoder that leaves the sink otherwise is a
    /// programming error.
    pub fn build(encode: impl FnOnce(&mut TreeSink)) -> Element {
        let mut tree = TreeSink::default();
        encode(&mut tree);
        tree.into_root()
    }

    /// The finished tree (same panics as [`TreeSink::build`]).
    pub(crate) fn into_root(self) -> Element {
        assert!(self.open.is_empty(), "element left open in a TreeSink");
        self.root.expect("no element was written into the TreeSink")
    }

    fn current(&mut self) -> &mut Element {
        self.open.last_mut().expect("no element is open")
    }
}

impl XmlSink for TreeSink {
    fn open(&mut self, name: &str) {
        self.open.push(Element::new(name));
    }

    fn attr(&mut self, key: &str, value: impl fmt::Display) {
        self.current()
            .attributes
            .push((key.to_string(), value.to_string()));
    }

    fn text(&mut self, text: impl fmt::Display) {
        self.current().children.push(Node::Text(text.to_string()));
    }

    fn close(&mut self) {
        let element = self.open.pop().expect("close without a matching open");
        match self.open.last_mut() {
            Some(parent) => parent.children.push(Node::Element(element)),
            None => {
                assert!(self.root.is_none(), "second root element in a TreeSink");
                self.root = Some(element);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sink: &mut impl XmlSink) {
        sink.open("a");
        sink.attr("k", "v\"1\"");
        sink.attr("n", 42);
        sink.leaf("b", "1 < 2");
        sink.open("c");
        sink.close();
        sink.leaf("d", "");
        sink.close();
    }

    #[test]
    fn stream_and_tree_agree() {
        let mut streamed = String::new();
        sample(&mut StreamSink::new(&mut streamed));
        assert_eq!(
            streamed,
            r#"<a k="v&quot;1&quot;" n="42"><b>1 &lt; 2</b><c/><d></d></a>"#
        );
        let tree = TreeSink::build(sample);
        assert_eq!(
            tree,
            Element::new("a")
                .attr("k", "v\"1\"")
                .attr("n", "42")
                .child(Element::leaf("b", "1 < 2"))
                .child(Element::new("c"))
                .child(Element::leaf("d", ""))
        );
        assert_eq!(crate::to_string(&tree), streamed);
    }

    #[test]
    fn stream_appends_after_existing_content() {
        let mut out = String::from("header|");
        let mut sink = StreamSink::new(&mut out);
        sink.open("x");
        sink.leaf("y", "z");
        sink.close();
        assert_eq!(out, "header|<x><y>z</y></x>");
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn unfinished_tree_panics() {
        TreeSink::build(|tree| tree.open("a"));
    }
}
