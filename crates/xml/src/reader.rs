//! The source interface: one decoder per type, two origins.
//!
//! The read-side mirror of [`crate::sink`]. A type that has an XML form
//! decodes it once, from the tokens it pulls off an [`XmlSource`]: an
//! element opens, gives its attributes, text and child elements, and
//! closes. Where the tokens come from decides what is read:
//!
//! - [`Reader`] tokenizes serialized text in place — the read path of
//!   every document the platform reads back: the at-rest logs, a
//!   journaled policy's XACML, a message;
//! - [`TreeSource`] replays an [`Element`] tree — what a type's
//!   `from_xml(&Element)` feeds its decoder, kept for the macrobench's
//!   probes, the tree's last reader.
//!
//! [`crate::parse`] is a fold of a [`Reader`] into a
//! [`crate::TreeSink`], so the grammar, the name rules and every
//! [`ParseError`] are written down once, here.
//!
//! Supported: elements, attributes (single or double quoted), text with
//! the predefined entities and numeric character references, comments,
//! CDATA sections, and an optional leading XML declaration. Not
//! supported (by design): DTDs, processing instructions other than the
//! declaration, external entities.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use css_types::{CssError, CssResult};

use crate::doc::{Element, Node};
use crate::escape::unescape;
use crate::parser::ParseError;
use crate::value::{from_hex, Value};

/// One step of a document, as a decoder sees it. Names and values
/// borrow from the input; a value is owned only where an entity had to
/// be expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// A start tag: the named element becomes the current one.
    Open(&'a str),
    /// An attribute of the current element. All of them come before its
    /// first text or child, as in the serialized form.
    Attr(&'a str, Value<'a>),
    /// A run of the current element's character data, unescaped. Runs
    /// of nothing but whitespace between markup are not reported; a
    /// CDATA section always is, verbatim.
    Text(Cow<'a, str>),
    /// The current element ended; its parent becomes current again.
    Close,
    /// The document ended: one root element, and nothing after it but
    /// whitespace and comments.
    Eof,
}

/// Supplier of one document's tokens, pulled one at a time.
pub trait XmlSource<'a>: Sized {
    /// The next token. After [`Token::Eof`] every further call returns
    /// it again; after an error the source is spent.
    fn next(&mut self) -> Result<Token<'a>, ParseError>;

    /// The name the root element opens with — the first token of
    /// every document.
    fn root(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Token::Open(name) => Ok(name),
            _ => Err(ParseError {
                offset: 0,
                message: "expected the root element".into(),
            }),
        }
    }

    /// The attributes of the element just opened that `names` lists,
    /// and the first token of the element's content (or its
    /// [`Token::Close`]). The others are read past.
    fn attributes<const N: usize>(
        &mut self,
        names: [&'static str; N],
    ) -> Result<(Attributes<'a, N>, Token<'a>), ParseError> {
        let mut found = Attributes {
            names,
            values: [const { None }; N],
        };
        loop {
            match self.next()? {
                Token::Attr(key, value) => {
                    if let Some(slot) = found.slot(key) {
                        // The first of a name counts, as on the tree.
                        found.values[slot].get_or_insert(value);
                    }
                }
                content => return Ok((found, content)),
            }
        }
    }

    /// The name the next child element of the current element opens
    /// with, where the element's remaining content starts with the
    /// token `first`: text before the child is read past. `None` once
    /// the current element has ended.
    fn child(&mut self, first: Token<'a>) -> Result<Option<&'a str>, ParseError> {
        let mut token = first;
        loop {
            match token {
                Token::Open(name) => return Ok(Some(name)),
                Token::Close | Token::Eof => return Ok(None),
                Token::Attr(..) | Token::Text(_) => {}
            }
            token = self.next()?;
        }
    }

    /// Read through the end of the current element, whose content
    /// starts with the token `first`.
    fn skip_rest(&mut self, first: Token<'a>) -> Result<(), ParseError> {
        let mut depth = 1usize;
        let mut token = first;
        loop {
            match token {
                Token::Open(_) => depth += 1,
                Token::Close if depth == 1 => return Ok(()),
                Token::Close => depth -= 1,
                Token::Eof => return Ok(()),
                Token::Attr(..) | Token::Text(_) => {}
            }
            token = self.next()?;
        }
    }

    /// Read through the end of the element just opened.
    fn skip_element(&mut self) -> Result<(), ParseError> {
        let first = self.next()?;
        self.skip_rest(first)
    }

    /// The text of the element just opened, read through its end: its
    /// own text runs concatenated, then trimmed. Its attributes and
    /// child elements are read past.
    fn text_content(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.next()? {
                Token::Text(run) if text.is_empty() => text = run,
                Token::Text(run) => text.to_mut().push_str(&run),
                Token::Open(_) => self.skip_element()?,
                Token::Close | Token::Eof => break,
                Token::Attr(..) => {}
            }
        }
        Ok(match text {
            Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
            Cow::Owned(s) if s.trim().len() == s.len() => Cow::Owned(s),
            Cow::Owned(s) => Cow::Owned(s.trim().to_string()),
        })
    }

    /// Open the root element, which must be named `name`; otherwise the
    /// error is `bad`'s, given `wrong root <found>`.
    fn root_named(&mut self, name: &str, bad: impl Fn(String) -> CssError) -> CssResult<()> {
        match self.root()? {
            root if root == name => Ok(()),
            root => Err(bad(format!("wrong root <{root}>"))),
        }
    }

    /// Read the children of the current element, whose remaining
    /// content starts with the token `first`, through the element's
    /// end: `visit` reads the first child of each of `names` from just
    /// after its name (and is given the name's index and the name),
    /// every other child is read past.
    fn children<const N: usize>(
        &mut self,
        names: [&str; N],
        first: Token<'a>,
        mut visit: impl FnMut(&mut Self, usize, &'a str) -> CssResult<()>,
    ) -> CssResult<()> {
        let mut seen = [false; N];
        let mut token = first;
        while let Some(child) = self.child(token)? {
            match names.iter().position(|name| *name == child) {
                Some(at) if !seen[at] => {
                    seen[at] = true;
                    visit(self, at, child)?;
                }
                _ => self.skip_element()?,
            }
            token = self.next()?;
        }
        Ok(())
    }

    /// Read the children of the current element, whose remaining
    /// content starts with the token `first`, through the element's
    /// end: `visit` reads each child named `name` from just after its
    /// name, every other child is read past.
    fn each(
        &mut self,
        name: &str,
        first: Token<'a>,
        mut visit: impl FnMut(&mut Self) -> CssResult<()>,
    ) -> CssResult<()> {
        let mut token = first;
        while let Some(child) = self.child(token)? {
            if child == name {
                visit(self)?;
            } else {
                self.skip_element()?;
            }
            token = self.next()?;
        }
        Ok(())
    }

    /// The text ([`XmlSource::text_content`]) of each child named `name`
    /// of the current element, whose remaining content starts with the
    /// token `first`, read through the element's end ([`XmlSource::each`]).
    fn texts(&mut self, name: &str, first: Token<'a>) -> CssResult<Vec<Cow<'a, str>>> {
        let mut texts = Vec::new();
        self.each(name, first, |src| {
            texts.push(src.text_content()?);
            Ok(())
        })?;
        Ok(texts)
    }

    /// Read to the end of the document: a decoder that has what it
    /// needs still owes the check that the rest is well-formed.
    fn finish(&mut self) -> Result<(), ParseError> {
        while self.next()? != Token::Eof {}
        Ok(())
    }
}

/// The attributes a decoder asked an element for by name
/// ([`XmlSource::attributes`]); of a name given twice, the first.
pub struct Attributes<'a, const N: usize> {
    names: [&'static str; N],
    values: [Option<Value<'a>>; N],
}

impl<'a, const N: usize> Attributes<'a, N> {
    fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    /// The value of an attribute, if the element had it. A value of
    /// another kind than a getter asks for counts as absent.
    fn value(&self, name: &str) -> Option<&Value<'a>> {
        self.values[self.slot(name)?].as_ref()
    }

    /// Text of an attribute, if the element had it.
    pub fn get(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    /// Move the text of an attribute out: borrowed from the input
    /// unless an entity had to be expanded in it.
    pub fn take(&mut self, name: &str) -> Option<Cow<'a, str>> {
        let slot = self.slot(name)?;
        match self.values[slot].take()? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    /// The text of an attribute the document must have, parsed as `T`.
    /// Absent or unparsable, the error is `bad`'s, given `missing
    /// <name>` or `bad <name>: <why>`.
    pub fn required<T: FromStr>(&self, name: &str, bad: impl Fn(String) -> CssError) -> CssResult<T>
    where
        T::Err: fmt::Display,
    {
        let text = self
            .get(name)
            .ok_or_else(|| bad(format!("missing {name}")))?;
        text.parse()
            .map_err(|err| bad(format!("bad {name}: {err}")))
    }

    /// A number [`crate::XmlSink::attr_int`] wrote: parsed from its
    /// text form, or taken as stored.
    pub fn int<T: FromStr + From<u64>>(&self, name: &str) -> Option<Result<T, T::Err>> {
        match self.value(name)? {
            Value::Text(text) => Some(text.parse()),
            Value::Int(n) => Some(Ok(T::from(*n))),
            Value::Bytes(_) => None,
        }
    }

    /// Bytes [`crate::XmlSink::attr_bytes`] wrote: decoded from their
    /// hex text (`Some(None)` when that is not hex), or borrowed as
    /// stored.
    pub fn bytes(&self, name: &str) -> Option<Option<Cow<'a, [u8]>>> {
        match self.value(name)? {
            Value::Text(text) => Some(from_hex(text).map(Cow::Owned)),
            Value::Bytes(bytes) => Some(Some(Cow::Borrowed(*bytes))),
            Value::Int(_) => None,
        }
    }

    /// Which of `keywords` [`crate::XmlSink::attr_keyword`] wrote:
    /// `Some(None)` when the value is none of them.
    pub fn keyword(&self, name: &str, keywords: &[&str]) -> Option<Option<usize>> {
        match self.value(name)? {
            Value::Text(text) => Some(keywords.iter().position(|k| *k == text)),
            Value::Int(n) => Some(usize::try_from(*n).ok().filter(|&i| i < keywords.len())),
            Value::Bytes(_) => None,
        }
    }
}

/// Where a [`Reader`] is in the grammar.
#[derive(Clone, Copy)]
enum State {
    /// Before the root element.
    Prolog,
    /// Inside a start tag, after its name.
    StartTag,
    /// Inside an element, between its start and end tags.
    Content,
    /// After the root element.
    Epilog,
}

/// The source that tokenizes text: scans the input byte-wise, keeps
/// nothing beyond the names of the elements still open and of the
/// attributes of the current start tag.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    state: State,
    /// Elements opened and not yet closed, outermost first.
    open: Vec<&'a str>,
    /// Attributes the current start tag has given so far.
    seen: Vec<&'a str>,
}

/// The whitespace of `char::is_whitespace` below U+0080. (Not
/// `u8::is_ascii_whitespace`, which leaves out the vertical tab.)
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

impl<'a> Reader<'a> {
    /// Tokenize `input` from its start.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            state: State::Prolog,
            open: Vec::with_capacity(8),
            seen: Vec::new(),
        }
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The character at `at`, which is a character boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.input[at..].chars().next()
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if is_ascii_space(b) {
                self.pos += 1;
            } else if b < 0x80 {
                return;
            } else {
                match self.char_at(self.pos) {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                }
            }
        }
    }

    /// Skip past `end` searched from `from`; `None` when it never comes.
    fn skip_past(&mut self, from: usize, end: &str) -> Option<&'a str> {
        let body = &self.input[from..];
        let at = body.find(end)?;
        self.pos = from + at + end.len();
        Some(&body[..at])
    }

    /// Skip whitespace and comments between top-level constructs. An
    /// unterminated comment runs to the end of the input.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if !self.rest().starts_with("<!--") {
                return;
            }
            if self.skip_past(self.pos, "-->").is_none() {
                self.pos = self.input.len();
                return;
            }
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_ws();
        if self.rest().starts_with("<?xml") {
            self.skip_past(self.pos, "?>");
        }
        self.skip_misc();
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else if b < 0x80 {
                break;
            } else {
                match self.char_at(self.pos) {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        let name = &self.input[start..self.pos];
        match name.bytes().next() {
            None => Err(self.err("expected a name")),
            Some(b'0'..=b'9' | b'-' | b'.') => {
                Err(self.err(format!("invalid name start in {name:?}")))
            }
            Some(_) => Ok(name),
        }
    }

    fn attr_value(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = match self.char_at(self.pos) {
            Some(q @ ('"' | '\'')) => q as u8,
            other => {
                self.pos += other.map_or(0, char::len_utf8);
                return Err(self.err("expected quoted attribute value"));
            }
        };
        self.pos += 1;
        let start = self.pos;
        let stop = self.input.as_bytes()[start..]
            .iter()
            .position(|&b| b == quote || b == b'<');
        let Some(len) = stop else {
            self.pos = self.input.len();
            return Err(self.err("unterminated attribute value"));
        };
        self.pos = start + len;
        if self.peek() == Some(b'<') {
            return Err(self.err("'<' not allowed in attribute value"));
        }
        let raw = &self.input[start..self.pos];
        self.pos += 1; // closing quote
        unescape(raw).ok_or_else(|| self.err(format!("bad entity in attribute value {raw:?}")))
    }

    /// Name of the innermost open element.
    fn current(&self) -> &'a str {
        self.open.last().copied().unwrap_or_default()
    }

    /// The start tag at the cursor, up to and including its name.
    fn open_tag(&mut self) -> Result<Token<'a>, ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        self.open.push(name);
        self.seen.clear();
        self.state = State::StartTag;
        Ok(Token::Open(name))
    }

    fn close(&mut self) -> Token<'a> {
        self.open.pop();
        self.state = if self.open.is_empty() {
            State::Epilog
        } else {
            State::Content
        };
        Token::Close
    }

    /// The next attribute or the end of the start tag; `None` when the
    /// tag ended with `>` and content follows.
    fn in_start_tag(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'/') => {
                self.pos += 1;
                self.expect(">")?;
                Ok(Some(self.close()))
            }
            Some(b'>') => {
                self.pos += 1;
                self.state = State::Content;
                Ok(None)
            }
            Some(_) => {
                let key = self.name()?;
                self.skip_ws();
                self.expect("=")?;
                self.skip_ws();
                let value = self.attr_value()?;
                if self.seen.contains(&key) {
                    return Err(self.err(format!("duplicate attribute {key:?}")));
                }
                self.seen.push(key);
                Ok(Some(Token::Attr(key, Value::Text(value))))
            }
            None => Err(self.err("unterminated start tag")),
        }
    }

    /// The next token of an element's content; `None` when what stood
    /// at the cursor was a comment or insignificant whitespace.
    fn in_content(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let rest = self.rest();
        if rest.starts_with("<!--") {
            let body = self.pos + 4;
            return match self.skip_past(body, "-->") {
                Some(_) => Ok(None),
                None => {
                    self.pos = body;
                    Err(self.err("unterminated comment"))
                }
            };
        }
        if rest.starts_with("<![CDATA[") {
            let body = self.pos + 9;
            return match self.skip_past(body, "]]>") {
                Some(text) => Ok(Some(Token::Text(Cow::Borrowed(text)))),
                None => {
                    self.pos = body;
                    Err(self.err("unterminated CDATA section"))
                }
            };
        }
        if rest.starts_with("</") {
            self.pos += 2;
            let end_name = self.name()?;
            let name = self.current();
            if end_name != name {
                return Err(self.err(format!(
                    "mismatched end tag: expected </{name}>, found </{end_name}>"
                )));
            }
            self.skip_ws();
            self.expect(">")?;
            return Ok(Some(self.close()));
        }
        match rest.bytes().next() {
            Some(b'<') => self.open_tag().map(Some),
            Some(_) => {
                let raw = &rest[..rest.find('<').unwrap_or(rest.len())];
                self.pos += raw.len();
                let text =
                    unescape(raw).ok_or_else(|| self.err(format!("bad entity in text {raw:?}")))?;
                Ok((!text.trim().is_empty()).then_some(Token::Text(text)))
            }
            None => Err(self.err(format!("unterminated element <{}>", self.current()))),
        }
    }
}

impl<'a> XmlSource<'a> for Reader<'a> {
    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        loop {
            let token = match self.state {
                State::Prolog => {
                    self.skip_prolog();
                    return self.open_tag();
                }
                State::StartTag => self.in_start_tag()?,
                State::Content => self.in_content()?,
                State::Epilog => {
                    self.skip_misc();
                    if self.pos != self.input.len() {
                        return Err(self.err("unexpected content after root element"));
                    }
                    return Ok(Token::Eof);
                }
            };
            if let Some(token) = token {
                return Ok(token);
            }
        }
    }
}

/// An element [`TreeSource`] has opened and not yet closed.
struct OpenElement<'a> {
    attributes: std::slice::Iter<'a, (String, String)>,
    children: std::slice::Iter<'a, Node>,
}

/// The source that replays a tree: how a type's `from_xml(&Element)` is
/// derived from its decoder. It never fails, and it reports every text
/// node it finds — a tree holds what a parse or a builder put there.
pub struct TreeSource<'a> {
    root: Option<&'a Element>,
    /// Elements opened and not yet closed, outermost first.
    open: Vec<OpenElement<'a>>,
}

impl<'a> TreeSource<'a> {
    /// Replay the document whose root element is `root`.
    pub fn new(root: &'a Element) -> Self {
        TreeSource {
            root: Some(root),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, element: &'a Element) -> Token<'a> {
        self.open.push(OpenElement {
            attributes: element.attributes.iter(),
            children: element.children.iter(),
        });
        Token::Open(&element.name)
    }
}

impl<'a> XmlSource<'a> for TreeSource<'a> {
    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        let Some(current) = self.open.last_mut() else {
            return Ok(match self.root.take() {
                Some(root) => self.enter(root),
                None => Token::Eof,
            });
        };
        if let Some((key, value)) = current.attributes.next() {
            return Ok(Token::Attr(key, Value::from(value.as_str())));
        }
        Ok(match current.children.next() {
            Some(Node::Text(text)) => Token::Text(Cow::Borrowed(text)),
            Some(Node::Element(child)) => self.enter(child),
            None => {
                self.open.pop();
                Token::Close
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn tokens<'a>(mut src: impl XmlSource<'a>) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        loop {
            let token = src.next().unwrap();
            let done = token == Token::Eof;
            out.push(token);
            if done {
                return out;
            }
        }
    }

    const SAMPLE: &str = "<?xml version=\"1.0\"?>\n<a k=\"v\" n='1 &lt; 2'>\n  <b>text</b><!-- c --><c/>\n  tail &amp; <![CDATA[ <raw> ]]></a>\n<!-- after -->";

    #[test]
    fn token_stream_of_a_document() {
        use Token::*;
        assert_eq!(
            tokens(Reader::new(SAMPLE)),
            vec![
                Open("a"),
                Attr("k", "v".into()),
                Attr("n", "1 < 2".into()),
                Open("b"),
                Text("text".into()),
                Close,
                Open("c"),
                Close,
                Text("\n  tail & ".into()),
                Text(" <raw> ".into()),
                Close,
                Eof,
            ]
        );
    }

    #[test]
    fn values_without_entities_are_borrowed_from_the_input() {
        let owned: Vec<bool> = tokens(Reader::new(SAMPLE))
            .into_iter()
            .filter_map(|t| match t {
                Token::Attr(_, Value::Text(v)) | Token::Text(v) => Some(matches!(v, Cow::Owned(_))),
                _ => None,
            })
            .collect();
        // k, n (entity), "text", the tail run (entity), the CDATA body.
        assert_eq!(owned, [false, true, false, true, false]);
    }

    #[test]
    fn a_tree_replays_as_the_tokens_it_was_parsed_from() {
        let tree = parse(SAMPLE).unwrap();
        assert_eq!(tokens(TreeSource::new(&tree)), tokens(Reader::new(SAMPLE)));
        // Eof repeats on both.
        let mut reader = Reader::new("<a/>");
        reader.finish().unwrap();
        assert_eq!(reader.next().unwrap(), Token::Eof);
        let mut replay = TreeSource::new(&tree);
        replay.finish().unwrap();
        assert_eq!(replay.next().unwrap(), Token::Eof);
    }

    #[test]
    fn helpers_answer_what_the_tree_accessors_answer() {
        let text = "<r other='0' n='1 &amp; 2' m='3'><skip a='1'><deep>x</deep>y</skip><v j='2'> a<i>no</i>b<![CDATA[ c ]]> </v><e/><w>\n</w></r>";
        let tree = parse(text).unwrap();
        fn drive<'a>(mut src: impl XmlSource<'a>) -> Vec<String> {
            assert_eq!(src.root().unwrap(), "r");
            let (mut attrs, mut first) = src.attributes(["n", "m", "absent"]).unwrap();
            assert_eq!(attrs.get("n"), Some("1 & 2"));
            assert_eq!(attrs.get("absent"), None);
            assert_eq!(attrs.get("other"), None, "not asked for");
            assert_eq!(attrs.take("m").as_deref(), Some("3"));
            assert_eq!(attrs.get("m"), None, "taken");
            let mut out = Vec::new();
            while let Some(child) = src.child(first).unwrap() {
                match child {
                    "skip" => src.skip_element().unwrap(),
                    _ => out.push(src.text_content().unwrap().into_owned()),
                }
                first = src.next().unwrap();
            }
            src.finish().unwrap();
            out
        }
        // What the tree's `child_text` answered for `v`, `e` and `w`.
        let expected = ["ab c", "", ""];
        assert_eq!(drive(Reader::new(text)), expected);
        assert_eq!(drive(TreeSource::new(&tree)), expected);
    }

    /// The decoders' helpers: the root checked by name, the first child
    /// of each name visited, every child of one name, required
    /// attributes worded by the caller.
    #[test]
    fn decoder_helpers_read_both_sources_alike() {
        let text = "<r id='7' bad='x'><a>1</a><b k='v'/><a>2</a><c>3</c><a>4</a></r>";
        let tree = parse(text).unwrap();
        fn drive<'a>(mut src: impl XmlSource<'a>) -> Vec<String> {
            let bad = |msg: String| CssError::Serialization(msg);
            src.root_named("r", bad).unwrap();
            let (attrs, first) = src.attributes(["id", "bad", "absent"]).unwrap();
            assert_eq!(attrs.required::<u64>("id", bad).unwrap(), 7);
            let err = |name| attrs.required::<u64>(name, bad).unwrap_err().to_string();
            assert!(err("bad").ends_with("bad bad: invalid digit found in string"));
            assert!(err("absent").ends_with("missing absent"));
            let mut firsts = Vec::new();
            src.children(["c", "a"], first, |src, at, name| {
                firsts.push(format!("{at} {name} {}", src.text_content()?));
                Ok(())
            })
            .unwrap();
            src.finish().unwrap();
            firsts
        }
        fn every<'a>(mut src: impl XmlSource<'a>) -> Vec<String> {
            src.root().unwrap();
            let first = src.next().unwrap();
            let texts = src.texts("a", first).unwrap();
            texts.into_iter().map(Cow::into_owned).collect()
        }
        let expected = ["1 a 1", "0 c 3"];
        assert_eq!(drive(Reader::new(text)), expected);
        assert_eq!(drive(TreeSource::new(&tree)), expected);
        assert_eq!(every(Reader::new(text)), ["1", "2", "4"]);
        assert_eq!(every(TreeSource::new(&tree)), ["1", "2", "4"]);
        let wrong = Reader::new("<q/>").root_named("r", CssError::Serialization);
        assert!(matches!(wrong, Err(CssError::Serialization(m)) if m == "wrong root <q>"));
    }

    /// Every construct the grammar rejects, with the message and byte
    /// offset the recursive-descent parser this tokenizer replaced
    /// reported for it (captured from that parser before it went).
    #[test]
    fn malformed_input_fails_where_and_how_it_always_did() {
        let table: &[(&str, &str, usize)] = &[
            ("", "expected \"<\"", 0),
            ("   ", "expected \"<\"", 3),
            ("junk", "expected \"<\"", 0),
            ("<", "expected a name", 1),
            ("< a/>", "expected a name", 1),
            ("<1a/>", "invalid name start in \"1a\"", 3),
            ("<-a/>", "invalid name start in \"-a\"", 3),
            ("<.a/>", "invalid name start in \".a\"", 3),
            ("<a", "unterminated start tag", 2),
            ("<a ", "unterminated start tag", 3),
            ("<a/", "expected \">\"", 3),
            ("<a/x", "expected \">\"", 3),
            ("<a / >", "expected \">\"", 4),
            ("<a b", "expected \"=\"", 4),
            ("<a b>", "expected \"=\"", 4),
            ("<a b=", "expected quoted attribute value", 5),
            ("<a b=c", "expected quoted attribute value", 6),
            ("<a b=“x”/>", "expected quoted attribute value", 8),
            ("<a b=\"x", "unterminated attribute value", 7),
            ("<a b='x", "unterminated attribute value", 7),
            ("<a b=\"x<\"/>", "'<' not allowed in attribute value", 7),
            (
                "<a b=\"&bad;\"/>",
                "bad entity in attribute value \"&bad;\"",
                12,
            ),
            (
                "<a b='&#xZZ;'/>",
                "bad entity in attribute value \"&#xZZ;\"",
                13,
            ),
            ("<a x=\"1\" x=\"2\"/>", "duplicate attribute \"x\"", 14),
            (
                "<a x=\"1\" y='2' x='&bad;'/>",
                "bad entity in attribute value \"&bad;\"",
                24,
            ),
            ("<a =\"1\"/>", "expected a name", 3),
            ("<a>", "unterminated element <a>", 3),
            ("<a><b>", "unterminated element <b>", 6),
            ("<a><b/>", "unterminated element <a>", 7),
            ("<a>text", "unterminated element <a>", 7),
            ("<a>&bad;</a>", "bad entity in text \"&bad;\"", 8),
            (
                "<a>&unterminated</a>",
                "bad entity in text \"&unterminated\"",
                16,
            ),
            ("<a>&#65</a>", "bad entity in text \"&#65\"", 7),
            (
                "<a>x &#xD800; y</a>",
                "bad entity in text \"x &#xD800; y\"",
                15,
            ),
            ("<a>&#1114112;</a>", "bad entity in text \"&#1114112;\"", 13),
            ("<a><!-- never closed", "unterminated comment", 7),
            ("<a><![CDATA[ never", "unterminated CDATA section", 12),
            (
                "<a></b>",
                "mismatched end tag: expected </a>, found </b>",
                6,
            ),
            (
                "<a><b></a></b>",
                "mismatched end tag: expected </b>, found </a>",
                9,
            ),
            ("<a></a", "expected \">\"", 6),
            ("<a></a x>", "expected \">\"", 7),
            ("<a></>", "expected a name", 5),
            ("<a></1>", "invalid name start in \"1\"", 6),
            ("<a><!x></a>", "expected a name", 4),
            ("<a><?pi?></a>", "expected a name", 4),
            ("<a/><b/>", "unexpected content after root element", 4),
            ("<a/>junk", "unexpected content after root element", 4),
            (
                "<a/> <!-- c --> x",
                "unexpected content after root element",
                16,
            ),
            ("<a></a></a>", "unexpected content after root element", 7),
            ("<?xml version=\"1.0\"", "expected a name", 1),
            ("<?xml version=\"1.0\"?>", "expected \"<\"", 21),
            ("<!-- unterminated", "expected \"<\"", 17),
            ("<!-- c -->", "expected \"<\"", 10),
            ("\u{feff}<a/>", "expected \"<\"", 0),
            ("<!DOCTYPE a><a/>", "expected a name", 1),
            (
                "<a><b x=\"1\" x=\"2\"></b></a>",
                "duplicate attribute \"x\"",
                17,
            ),
            (
                "<ré><élève></éleve></ré>",
                "mismatched end tag: expected </élève>, found </éleve>",
                22,
            ),
            ("<a>\u{a0}<b", "unterminated start tag", 7),
            ("<a b=\"1\" 2c=\"x\"/>", "invalid name start in \"2c\"", 11),
            ("<a b=\"1\" c", "expected \"=\"", 10),
            ("<a><b/></a >x", "unexpected content after root element", 12),
            (
                "<a>t<b>u</b>&lt;&zzz;</a>",
                "bad entity in text \"&lt;&zzz;\"",
                21,
            ),
        ];
        for &(input, message, offset) in table {
            let err = parse(input).expect_err(input);
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{input:?}"
            );
            // Pulling tokens by hand stops at the same place.
            let mut reader = Reader::new(input);
            assert_eq!(reader.finish().expect_err(input), err, "{input:?}");
        }
    }

    /// Leniencies the replaced parser had and stored documents may rely
    /// on: they stay.
    #[test]
    fn accepted_oddities_stay_accepted() {
        // An unterminated comment after the root runs to the end.
        assert_eq!(parse("<a/><!-- never closed").unwrap(), Element::new("a"));
        // Between top-level constructs `<!-->` is a whole comment.
        assert_eq!(parse("<!--><a/>").unwrap(), Element::new("a"));
        // Attributes need no whitespace between them; Unicode
        // whitespace separates as well as ASCII does.
        assert_eq!(
            parse("<a\u{a0}b = '1'c=\"2\"\u{b}/>").unwrap(),
            Element {
                attributes: vec![("b".into(), "1".into()), ("c".into(), "2".into())],
                ..Element::new("a")
            }
        );
        // Names: any alphanumeric of any script, `:` may lead.
        assert_eq!(parse("<:٣é/>").unwrap(), Element::new(":٣é"));
        // A CDATA section is a text node whatever it holds; a run that
        // unescapes to whitespace is none.
        assert_eq!(
            parse("<a><![CDATA[]]>&#32;\u{2028}<![CDATA[ ]]></a>").unwrap(),
            Element {
                children: vec![Node::Text("".into()), Node::Text(" ".into())],
                ..Element::new("a")
            }
        );
    }
}
