//! Serialization of element trees to XML text.

use crate::doc::{Element, Node};
use crate::sink::{StreamSink, XmlSink};

/// Serialize compactly (no insignificant whitespace).
pub fn to_string(root: &Element) -> String {
    let mut out = String::with_capacity(256);
    walk(root, &mut StreamSink::new(&mut out));
    out
}

/// Serialize as a standalone document: XML declaration followed by the
/// pretty-printed root element — the form messages take on the wire.
pub fn to_document_string(root: &Element) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(&to_string_pretty(root));
    out
}

/// Serialize with two-space indentation, one element per line.
///
/// Elements whose children are only text stay on one line so values
/// remain whitespace-exact.
pub fn to_string_pretty(root: &Element) -> String {
    let mut out = String::with_capacity(512);
    walk(root, &mut StreamSink::indented(&mut out, 2));
    out.push('\n');
    out
}

/// Replay a tree as sink calls.
fn walk(e: &Element, sink: &mut StreamSink<'_>) {
    sink.open(&e.name);
    for (k, v) in &e.attributes {
        sink.attr(k, v);
    }
    for child in &e.children {
        match child {
            Node::Element(el) => walk(el, sink),
            Node::Text(t) => sink.text(t),
        }
    }
    sink.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree of one element, written out as a struct literal.
    fn element(name: &str, attributes: &[(&str, &str)], children: Vec<Node>) -> Element {
        Element {
            name: name.into(),
            attributes: attributes
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            children,
        }
    }

    fn text(t: &str) -> Node {
        Node::Text(t.into())
    }

    #[test]
    fn compact_serialization() {
        let e = element(
            "a",
            &[("k", "v")],
            vec![
                Node::Element(element("b", &[], vec![text("text")])),
                Node::Element(Element::new("c")),
            ],
        );
        assert_eq!(to_string(&e), r#"<a k="v"><b>text</b><c/></a>"#);
    }

    #[test]
    fn escaping_applied() {
        let e = element("a", &[("q", r#"x"y"#)], vec![text("1 < 2 & 3")]);
        assert_eq!(to_string(&e), r#"<a q="x&quot;y">1 &lt; 2 &amp; 3</a>"#);
    }

    #[test]
    fn pretty_keeps_text_leaves_inline() {
        let e = element(
            "root",
            &[],
            vec![Node::Element(element("name", &[], vec![text("Mario")]))],
        );
        let s = to_string_pretty(&e);
        assert_eq!(s, "<root>\n  <name>Mario</name>\n</root>\n");
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(to_string(&Element::new("empty")), "<empty/>");
    }

    #[test]
    fn document_string_has_declaration_and_parses() {
        let e = element(
            "Notification",
            &[],
            vec![Node::Element(element("What", &[], vec![text("x")]))],
        );
        let doc = to_document_string(&e);
        assert!(doc.starts_with("<?xml version=\"1.0\""));
        assert_eq!(crate::parser::parse(&doc).unwrap(), e);
    }

    #[test]
    fn pretty_nested() {
        let c = element("c", &[], vec![text("x")]);
        let e = element(
            "a",
            &[],
            vec![Node::Element(element("b", &[], vec![Node::Element(c)]))],
        );
        let s = to_string_pretty(&e);
        assert_eq!(s, "<a>\n  <b>\n    <c>x</c>\n  </b>\n</a>\n");
    }
}
