//! The XML element tree: a name, attributes and children, no methods
//! beyond its constructor. What reads a tree replays it through
//! [`crate::TreeSource`].

/// A node inside an element: either a child element or a run of text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (unescaped form).
    Text(String),
}

/// An XML element: name, attributes (in insertion order), children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name, possibly with a namespace prefix (`xacml:Policy`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// A new empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Token, TreeSource, XmlSource};

    /// A tree is read through a [`TreeSource`], whose answers are the
    /// ones the tree's accessors gave before decoders became its only
    /// readers.
    fn sample() -> Element {
        let text = r#"<Event id="evt-1"><Who>Mario Rossi</Who><What>blood test</What><Where org="hospital">Laboratory</Where></Event>"#;
        parse(text).unwrap()
    }

    #[test]
    fn builder_and_accessors() {
        let e = sample();
        let mut src = TreeSource::new(&e);
        assert_eq!(src.root().unwrap(), "Event");
        let (attrs, first) = src.attributes(["id", "missing"]).unwrap();
        assert_eq!(attrs.get("id"), Some("evt-1"));
        assert_eq!(attrs.get("missing"), None);
        let mut found = Vec::new();
        src.children(["Who", "Nope", "Where"], first, |src, _, name| {
            found.push((name, src.text_content()?.into_owned()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            found,
            [
                ("Who", "Mario Rossi".into()),
                ("Where", "Laboratory".into())
            ]
        );
    }

    #[test]
    fn find_all_filters_by_name() {
        let e = parse("<Fields><Field>a</Field><Field>b</Field><Other>c</Other></Fields>").unwrap();
        let mut src = TreeSource::new(&e);
        src.root().unwrap();
        let first = src.next().unwrap();
        assert_eq!(src.texts("Field", first).unwrap(), ["a", "b"]);
    }

    #[test]
    fn text_content_concatenates_and_trims() {
        let e = Element {
            children: vec![Node::Text("  hello ".into()), Node::Text("world  ".into())],
            ..Element::new("t")
        };
        let mut src = TreeSource::new(&e);
        src.root().unwrap();
        assert_eq!(src.text_content().unwrap(), "hello world");
    }

    #[test]
    fn walk_and_subtree_size() {
        let e = sample();
        let mut src = TreeSource::new(&e);
        let mut elements = 0;
        loop {
            match src.next().unwrap() {
                Token::Open(_) => elements += 1,
                Token::Eof => break,
                _ => {}
            }
        }
        assert_eq!(elements, 4);
    }
}
