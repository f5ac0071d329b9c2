//! Parsing serialized text into an [`Element`] tree.
//!
//! The grammar lives in [`crate::reader`]; [`parse`] is its tokens
//! folded into a tree. No platform path calls it: every document the
//! platform reads back is decoded from [`crate::Reader`] tokens, and
//! the tree stays for the macrobench's probes, its last reader.

use std::fmt;

use css_types::CssError;

use crate::doc::Element;
use crate::reader::{Reader, Token, XmlSource};
use crate::sink::{TreeSink, XmlSink};
use crate::value::Value;

/// Error produced when parsing malformed XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for CssError {
    fn from(e: ParseError) -> Self {
        CssError::Serialization(e.to_string())
    }
}

/// Parse a complete document into its root element.
///
/// Trailing content after the root element (other than whitespace or
/// comments) is an error, as is an empty document.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut reader = Reader::new(input);
    let mut tree = TreeSink::default();
    loop {
        match reader.next()? {
            Token::Open(name) => tree.open(name),
            Token::Attr(key, Value::Text(text)) => tree.attr(key, text),
            // The text form reads every value as text.
            Token::Attr(key, _) => return Err(reader.err(format!("typed value for {key:?}"))),
            Token::Text(text) => tree.text(text),
            Token::Close => tree.close(),
            Token::Eof => return Ok(tree.into_root()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Node;
    use crate::writer::{to_string, to_string_pretty};

    fn pair(key: &str, value: &str) -> (String, String) {
        (key.into(), value.into())
    }

    #[test]
    fn parses_simple_document() {
        let text = r#"<a k="v"><b>text</b><c/></a>"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.attributes, [pair("k", "v")]);
        let b = Element {
            children: vec![Node::Text("text".into())],
            ..Element::new("b")
        };
        assert_eq!(
            doc.children,
            [Node::Element(b), Node::Element(Element::new("c"))]
        );
        assert_eq!(to_string(&doc), text);
    }

    #[test]
    fn writer_parser_roundtrip() {
        let e = Element {
            attributes: vec![
                pair("PolicyId", "p-1"),
                pair("note", r#"quotes " and ' here"#),
            ],
            children: vec![
                Node::Element(Element {
                    children: vec![Node::Element(Element {
                        children: vec![Node::Text("family doctor & co".into())],
                        ..Element::new("Subject")
                    })],
                    ..Element::new("Target")
                }),
                Node::Element(Element {
                    attributes: vec![pair("Effect", "Permit")],
                    ..Element::new("Rule")
                }),
            ],
            ..Element::new("Policy")
        };
        let compact = parse(&to_string(&e)).unwrap();
        assert_eq!(compact, e);
        let pretty = parse(&to_string_pretty(&e)).unwrap();
        assert_eq!(pretty, e);
    }

    #[test]
    fn accepts_declaration_and_comments() {
        let doc = parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- header -->\n<root>\n  <!-- inner -->\n  <x>1</x>\n</root>\n<!-- trailer -->",
        )
        .unwrap();
        assert_eq!(to_string(&doc), "<root><x>1</x></root>");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse("<r><![CDATA[a <raw> & b]]></r>").unwrap();
        assert_eq!(doc.children, [Node::Text("a <raw> & b".into())]);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        for bad in [
            "<a>",
            "<a",
            "<a href=",
            "<a href=\"x",
            "<a><!-- never closed",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_bad_name_start() {
        assert!(parse("<1a/>").is_err());
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a k='v \"w\"'/>").unwrap();
        assert_eq!(doc.attributes, [pair("k", "v \"w\"")]);
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.children.len(), 1);
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let doc = parse(r#"<a k="1 &lt; 2">&amp;&#65;</a>"#).unwrap();
        assert_eq!(doc.attributes, [pair("k", "1 < 2")]);
        assert_eq!(doc.children, [Node::Text("&A".into())]);
    }

    #[test]
    fn deeply_nested_roundtrip() {
        let text = (0..64).fold("<leaf>bottom</leaf>".to_string(), |inner, i| {
            format!("<level{i}>{inner}</level{i}>")
        });
        let parsed = parse(&text).unwrap();
        assert_eq!(to_string(&parsed), text);
        let (mut depth, mut at) = (1, &parsed);
        while let [Node::Element(child)] = at.children.as_slice() {
            (depth, at) = (depth + 1, child);
        }
        assert_eq!((depth, at.name.as_str()), (65, "leaf"));
    }
}
