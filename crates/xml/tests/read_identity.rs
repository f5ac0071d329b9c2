//! The tokenizer reads back what the writers write, and every other
//! spelling of the same document.
//!
//! Two generators. `canonical` makes trees of the shape every platform
//! document has — an element holds either one run of visible text or
//! only elements — which both writers must round-trip exactly.
//! `doc` makes a document together with one of its many serialized
//! spellings (either quote style, entities or character references
//! where a plain character would do, CDATA sections, comments,
//! whitespace wherever the grammar allows it) and the tree that
//! spelling must parse to.

use css_xml::{parse, to_string, to_string_pretty, Element, Node};
use proptest::prelude::*;

/// Names: the four punctuation marks a name may hold, letters of more
/// than one script.
fn name() -> impl Strategy<Value = String> {
    "[A-Za-z_:àéñüжλ][A-Za-z0-9_.:àéñüжλ-]{0,8}"
}

/// Characters of values: all five that have an entity, whitespace of
/// both kinds, letters beyond ASCII.
const VALUE_CHARS: &str = "[a-z0-9&<>\"' \n\t\u{a0}é€]";

fn canonical() -> impl Strategy<Value = Element> {
    let text = "[a-z0-9&<>\"' é€]{0,6}[a-z0-9&<>\"'é€][a-z0-9&<>\"' é€]{0,6}";
    let attributes = || {
        proptest::collection::btree_map(name(), "[a-z0-9&<>\"' \n\t\u{a0}é€]{0,10}", 0..4)
            .prop_map(|m| m.into_iter().collect::<Vec<_>>())
    };
    let leaf =
        (name(), attributes(), proptest::option::of(text)).prop_map(|(name, attributes, text)| {
            Element {
                name,
                attributes,
                children: text.into_iter().map(Node::Text).collect(),
            }
        });
    leaf.prop_recursive(4, 32, 4, move |inner| {
        (
            name(),
            attributes(),
            proptest::collection::vec(inner.prop_map(Node::Element), 1..5),
        )
            .prop_map(|(name, attributes, children)| Element {
                name,
                attributes,
                children,
            })
    })
}

/// How one character of a value is written.
#[derive(Debug, Clone, Copy)]
enum Spelling {
    /// As itself where the grammar lets it stand, else as its entity.
    Plain,
    /// As its predefined entity if it has one, else as itself.
    Entity,
    /// `&#N;`
    Decimal,
    /// `&#xN;`
    Hex,
}

type Spelled = Vec<(char, Spelling)>;

fn spelled_value() -> impl Strategy<Value = Spelled> {
    let spelling = prop_oneof![
        Just(Spelling::Plain),
        Just(Spelling::Plain),
        Just(Spelling::Entity),
        Just(Spelling::Decimal),
        Just(Spelling::Hex),
    ];
    proptest::collection::vec(
        (
            VALUE_CHARS.prop_map(|s| s.chars().next().expect("one char")),
            spelling,
        ),
        0..8,
    )
}

fn write_spelled(out: &mut String, value: &Spelled, quote: Option<char>) {
    for &(c, spelling) in value {
        let entity = match c {
            '&' => Some("&amp;"),
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '"' => Some("&quot;"),
            '\'' => Some("&apos;"),
            _ => None,
        };
        let must_escape = matches!(c, '&' | '<') || Some(c) == quote;
        match (spelling, entity) {
            (Spelling::Decimal, _) => out.push_str(&format!("&#{};", c as u32)),
            (Spelling::Hex, _) => out.push_str(&format!("&#x{:X};", c as u32)),
            (Spelling::Entity, Some(e)) => out.push_str(e),
            (Spelling::Plain, Some(e)) if must_escape => out.push_str(e),
            _ => out.push(c),
        }
    }
}

/// One thing between an element's tags.
#[derive(Debug, Clone)]
enum Piece {
    Text(Spelled),
    CData(String),
    Comment(String),
    Child(Doc),
}

/// An element and how its tags are laid out.
#[derive(Debug, Clone)]
struct Doc {
    name: String,
    /// Name, value, whether single-quoted.
    attributes: Vec<(String, Spelled, bool)>,
    /// Whitespace used inside the tags, wherever it may go.
    pad: String,
    pieces: Vec<Piece>,
}

fn doc() -> impl Strategy<Value = Doc> {
    let attributes = || {
        proptest::collection::btree_map(name(), (spelled_value(), any::<bool>()), 0..4).prop_map(
            |m| {
                m.into_iter()
                    .map(|(k, (v, q))| (k, v, q))
                    .collect::<Vec<_>>()
            },
        )
    };
    let flat_piece = || {
        prop_oneof![
            spelled_value().prop_map(Piece::Text),
            spelled_value().prop_map(Piece::Text),
            "[a-z <&\"' \n]{0,6}".prop_map(Piece::CData),
            "[a-z <&>' ]{0,6}".prop_map(Piece::Comment),
        ]
    };
    let leaf = (
        name(),
        attributes(),
        "[ \n\t]{0,2}",
        proptest::collection::vec(flat_piece(), 0..4),
    )
        .prop_map(|(name, attributes, pad, pieces)| Doc {
            name,
            attributes,
            pad,
            pieces,
        });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            name(),
            attributes(),
            "[ \n\t]{0,2}",
            proptest::collection::vec(
                prop_oneof![inner.prop_map(Piece::Child), flat_piece()],
                0..5,
            ),
        )
            .prop_map(|(name, attributes, pad, pieces)| Doc {
                name,
                attributes,
                pad,
                pieces,
            })
    })
}

fn write_doc(out: &mut String, doc: &Doc) {
    out.push('<');
    out.push_str(&doc.name);
    for (key, value, single) in &doc.attributes {
        let quote = if *single { '\'' } else { '"' };
        // At least one separator before an attribute; `pad` around `=`.
        out.push(' ');
        out.push_str(&doc.pad);
        out.push_str(key);
        out.push_str(&doc.pad);
        out.push('=');
        out.push_str(&doc.pad);
        out.push(quote);
        write_spelled(out, value, Some(quote));
        out.push(quote);
    }
    out.push_str(&doc.pad);
    // An empty element is written both ways: `<a/>` and `<a ></a >`.
    if doc.pieces.is_empty() && doc.pad.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for piece in &doc.pieces {
        match piece {
            Piece::Text(value) => write_spelled(out, value, None),
            Piece::CData(body) => {
                out.push_str("<![CDATA[");
                out.push_str(body);
                out.push_str("]]>");
            }
            Piece::Comment(body) => {
                out.push_str("<!--");
                out.push_str(body);
                out.push_str("-->");
            }
            Piece::Child(child) => write_doc(out, child),
        }
    }
    out.push_str("</");
    out.push_str(&doc.name);
    out.push_str(&doc.pad);
    out.push('>');
}

/// The tree a spelling stands for: text pieces that touch are one run,
/// a run of only whitespace is no node, a CDATA section is always one,
/// a comment is nothing but ends the run before it.
fn meaning(doc: &Doc) -> Element {
    fn flush(run: &mut String, out: &mut Element) {
        if !run.trim().is_empty() {
            out.children.push(Node::Text(std::mem::take(run)));
        }
        run.clear();
    }
    let mut out = Element::new(doc.name.clone());
    for (key, value, _) in &doc.attributes {
        out.attributes
            .push((key.clone(), value.iter().map(|&(c, _)| c).collect()));
    }
    let mut run = String::new();
    for piece in &doc.pieces {
        match piece {
            Piece::Text(value) => run.extend(value.iter().map(|&(c, _)| c)),
            Piece::CData(body) => {
                flush(&mut run, &mut out);
                out.children.push(Node::Text(body.clone()));
            }
            Piece::Comment(_) => flush(&mut run, &mut out),
            Piece::Child(child) => {
                flush(&mut run, &mut out);
                out.children.push(Node::Element(meaning(child)));
            }
        }
    }
    flush(&mut run, &mut out);
    out
}

proptest! {
    #[test]
    fn both_writers_round_trip_exactly(tree in canonical()) {
        prop_assert_eq!(&parse(&to_string(&tree)).unwrap(), &tree);
        prop_assert_eq!(&parse(&to_string_pretty(&tree)).unwrap(), &tree);
    }

    #[test]
    fn every_spelling_parses_to_its_meaning(
        doc in doc(),
        declaration in any::<bool>(),
        before in "[ \n]{0,2}",
        after in "[ \n]{0,2}",
    ) {
        let mut text = String::new();
        if declaration {
            text.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        }
        text.push_str(&before);
        text.push_str("<!-- head -->");
        write_doc(&mut text, &doc);
        text.push_str(&after);
        text.push_str("<!-- tail -->");
        text.push_str(&after);
        let parsed = parse(&text).map_err(|e| format!("{e} in {text:?}"));
        prop_assert_eq!(parsed, Ok(meaning(&doc)));
    }
}
