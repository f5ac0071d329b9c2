//! The streaming sink writes the bytes the tree writer always wrote.
//!
//! `reference` below is the recursive writer `css_xml::to_string` was
//! before it became a tree walk into [`StreamSink`], kept verbatim
//! (with its own copy of the escaping) as the implementation every
//! stored byte was produced by.

use css_xml::{parse, to_string, to_string_pretty, Element, Node, StreamSink, XmlSink};
use proptest::prelude::*;

mod reference {
    use css_xml::{Element, Node};

    fn escape(s: &str, attr: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if attr => out.push_str("&quot;"),
                '\'' if attr => out.push_str("&apos;"),
                other => out.push(other),
            }
        }
        out
    }

    pub fn to_string(root: &Element) -> String {
        let mut out = String::new();
        write_element(&mut out, root, None, 0);
        out
    }

    pub fn to_string_pretty(root: &Element) -> String {
        let mut out = String::new();
        write_element(&mut out, root, Some(2), 0);
        out.push('\n');
        out
    }

    fn write_element(out: &mut String, e: &Element, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                if depth > 0 {
                    out.push('\n');
                }
                for _ in 0..depth * width {
                    out.push(' ');
                }
            }
        };
        pad(out, depth);
        out.push('<');
        out.push_str(&e.name);
        for (k, v) in &e.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v, true));
            out.push('"');
        }
        if e.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        let text_only = e.children.iter().all(|n| matches!(n, Node::Text(_)));
        for child in &e.children {
            match child {
                Node::Element(el) => write_element(out, el, indent, depth + 1),
                Node::Text(t) => out.push_str(&escape(t, false)),
            }
        }
        if let Some(width) = indent {
            if !text_only {
                out.push('\n');
                for _ in 0..depth * width {
                    out.push(' ');
                }
            }
        }
        out.push_str("</");
        out.push_str(&e.name);
        out.push('>');
    }
}

/// Replay a tree as sink calls, the way an encoder would make them.
fn replay(e: &Element, sink: &mut impl XmlSink) {
    sink.open(&e.name);
    for (k, v) in &e.attributes {
        sink.attr(k, v);
    }
    for child in &e.children {
        match child {
            Node::Element(el) => replay(el, sink),
            Node::Text(t) => sink.text(t),
        }
    }
    sink.close();
}

/// What the parser makes of a serialized tree: adjacent text runs are
/// one run, and a run of only whitespace is dropped.
fn as_parsed(e: &Element) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attributes = e.attributes.clone();
    let mut run: Option<String> = None;
    let flush = |run: &mut Option<String>, out: &mut Element| {
        if let Some(text) = run.take() {
            if !text.trim().is_empty() {
                out.children.push(Node::Text(text));
            }
        }
    };
    for child in &e.children {
        match child {
            Node::Text(t) => run.get_or_insert_with(String::new).push_str(t),
            Node::Element(el) => {
                flush(&mut run, &mut out);
                out.children.push(Node::Element(as_parsed(el)));
            }
        }
    }
    flush(&mut run, &mut out);
    out
}

/// Text and attribute values: printable ASCII weighted towards the
/// five characters that need escaping, plus some non-ASCII.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z &<>\"']{0,12}",
        "[ -~]{0,24}",
        "[a-zà-ÿ€ ]{0,8}",
        Just(String::new()),
    ]
}

fn name() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.:-]{0,8}"
}

fn attributes() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::btree_map(name(), value(), 0..4).prop_map(|m| m.into_iter().collect())
}

fn element() -> impl Strategy<Value = Element> {
    let leaf = (
        name(),
        attributes(),
        proptest::collection::vec(value(), 0..3),
    )
        .prop_map(|(name, attributes, texts)| Element {
            name,
            attributes,
            children: texts.into_iter().map(Node::Text).collect(),
        });
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            name(),
            attributes(),
            proptest::collection::vec(
                prop_oneof![inner.prop_map(Node::Element), value().prop_map(Node::Text)],
                0..5,
            ),
        )
            .prop_map(|(name, attributes, children)| Element {
                name,
                attributes,
                children,
            })
    })
}

proptest! {
    #[test]
    fn streamed_bytes_equal_the_reference_writer(tree in element()) {
        let mut streamed = String::new();
        replay(&tree, &mut StreamSink::new(&mut streamed));
        prop_assert_eq!(&streamed, &reference::to_string(&tree));
        prop_assert_eq!(&to_string(&tree), &streamed);
        prop_assert_eq!(to_string_pretty(&tree), reference::to_string_pretty(&tree));
        prop_assert_eq!(parse(&streamed).unwrap(), as_parsed(&tree));
    }

    #[test]
    fn tree_sink_rebuilds_the_tree(tree in element()) {
        let rebuilt = css_xml::TreeSink::build(|sink| replay(&tree, sink));
        prop_assert_eq!(rebuilt, tree);
    }
}
