//! The binary form of a stored document.
//!
//! The at-rest logs write each record through the encoder that writes
//! its XML form ([`XmlSink`]), into a [`BinarySink`], and read it back
//! with the decoder that reads its XML form ([`XmlSource`]), off a
//! `BinarySource` (which [`Stored::open`] hands out). The binary form keeps the document's open /
//! attribute / text / close events and drops what text spends on them:
//! names become one-byte codes, numbers varints, bytes stay bytes.
//!
//! A payload is the format byte [`BINARY_V1`] — never `<`, the first
//! byte of every text payload, so one byte tells the two apart
//! ([`Stored`]) — then one token after another. A token is a tag byte
//! whose top three bits say what it is and whose low five bits are a
//! name, as an index into the [`Names`] a log gives both sides:
//!
//! | tag        | token                  | followed by          |
//! |------------|------------------------|----------------------|
//! | `0x00`     | close                  | —                    |
//! | `0x01`     | text                   | length, UTF-8 bytes  |
//! | `0x20 + n` | open element `n`       | —                    |
//! | `0x40 + n` | attribute `n`, text    | length, UTF-8 bytes  |
//! | `0x60 + n` | attribute `n`, number  | the number           |
//! | `0x80 + n` | attribute `n`, bytes   | length, bytes        |
//!
//! Lengths and numbers are LEB128 varints in their shortest form. Every
//! value is written as the sink is handed it: text is not escaped, and
//! decodes to exactly what the text form decodes to.
//!
//! Format bytes are one namespace across the stored forms: `0x01` is
//! this layout, `0x02` is kept for its successor, and `0x03` is the
//! gateway's detail record (`css_event::StoredDetail`), which has no
//! tokens and shares only the varint and length-prefix primitives.

use std::borrow::Cow;
use std::fmt::{self, Write};

use crate::parser::ParseError;
use crate::reader::{Reader, Token, XmlSource};
use crate::sink::XmlSink;
use crate::value::Value;

/// The first byte of every binary payload: the version of this layout.
pub const BINARY_V1: u8 = 0x01;

const CLOSE: u8 = 0x00;
const TEXT: u8 = 0x01;
const OPEN: u8 = 0x20;
const ATTR_TEXT: u8 = 0x40;
const ATTR_INT: u8 = 0x60;
const ATTR_BYTES: u8 = 0x80;
const KIND: u8 = 0xe0;
const CODE: u8 = 0x1f;

/// The element and attribute names one log's records use, in code
/// order: the dictionary both sides of the binary form share. A name's
/// code is its position, so a list only ever grows at the end.
#[derive(Debug, Clone, Copy)]
pub struct Names(&'static [&'static str]);

impl Names {
    /// The dictionary `names`, which holds at most 32, each once.
    pub const fn new(names: &'static [&'static str]) -> Self {
        assert!(
            names.len() <= 32,
            "a binary dictionary holds at most 32 names"
        );
        Names(names)
    }

    /// The code of `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in the dictionary: an encoder that
    /// writes a name its log did not list is a programming error, which
    /// the encoder's tests find.
    fn code(&self, name: &str) -> u8 {
        match self.0.iter().position(|n| *n == name) {
            Some(code) => code as u8,
            None => panic!("{name:?} is not in the binary dictionary {:?}", self.0),
        }
    }

    fn name(&self, code: u8) -> Option<&'static str> {
        self.0.get(usize::from(code)).copied()
    }
}

/// `n` as a shortest-form LEB128 varint: the bytes and how many.
fn varint(mut n: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while n >= 0x80 {
        bytes[len] = (n as u8) | 0x80;
        n >>= 7;
        len += 1;
    }
    bytes[len] = n as u8;
    (bytes, len + 1)
}

/// Append `n` as a shortest-form LEB128 varint. This and the three
/// functions below are the primitives of every binary at-rest layout:
/// this module's token form, and the record form of a gateway's detail
/// messages (`css_event::StoredDetail`).
pub fn put_varint(out: &mut Vec<u8>, n: u64) {
    let (bytes, len) = varint(n);
    out.extend_from_slice(&bytes[..len]);
}

/// Append `value`'s `Display` form, its length first. The length is
/// written as one byte and widened in place in the rare case it needs
/// more, so nothing is formatted twice or into a second buffer.
pub fn put_text(out: &mut Vec<u8>, value: impl fmt::Display) {
    let at = out.len();
    out.push(0);
    write!(Appender(out), "{value}").expect("writing to a Vec cannot fail");
    let len = out.len() - at - 1;
    let (prefix, width) = varint(len as u64);
    if width == 1 {
        out[at] = prefix[0];
    } else {
        out.splice(at..=at, prefix[..width].iter().copied());
    }
}

fn truncated(at: usize) -> ParseError {
    ParseError {
        offset: at,
        message: "truncated binary payload".into(),
    }
}

/// The shortest-form LEB128 varint at `input[*pos..]`; `pos` moves past
/// it. An overlong form, one that overflows 64 bits and one cut short
/// are errors.
pub fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, ParseError> {
    let at = *pos;
    let err = |message: &str| ParseError {
        offset: at,
        message: message.into(),
    };
    let mut n = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *input.get(*pos).ok_or_else(|| truncated(*pos))?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(err("varint overflows 64 bits"));
        }
        n |= bits << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(err("varint not in shortest form"));
            }
            return Ok(n);
        }
    }
    Err(err("varint longer than 10 bytes"))
}

/// The length-prefixed bytes at `input[*pos..]`, borrowed; `pos` moves
/// past them. A length that runs past the end of `input` is an error.
pub fn read_slice<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ParseError> {
    let at = *pos;
    let len = read_varint(input, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= input.len())
        .ok_or_else(|| ParseError {
            offset: at,
            message: "length runs past the payload".into(),
        })?;
    let bytes = &input[*pos..end];
    *pos = end;
    Ok(bytes)
}

/// `fmt::Write` onto the end of a byte vector.
struct Appender<'v>(&'v mut Vec<u8>);

impl Write for Appender<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// The sink that writes the binary form onto the end of a byte vector;
/// each root element it opens starts a payload with [`BINARY_V1`].
pub struct BinarySink<'a> {
    out: &'a mut Vec<u8>,
    names: Names,
    depth: usize,
    /// The code after the last name written: where the next name's
    /// search starts.
    next: usize,
}

impl<'a> BinarySink<'a> {
    /// Write onto the end of `out`, naming elements and attributes by
    /// their codes in `names`.
    pub fn new(out: &'a mut Vec<u8>, names: Names) -> Self {
        BinarySink {
            out,
            names,
            depth: 0,
            next: 0,
        }
    }

    /// Write `name`'s tag, looking for its code from the one after the
    /// last name written first: an encoder writes names in dictionary
    /// order. A name listed once has one code wherever it is found, so
    /// the bytes are [`Names::code`]'s (which debug builds check).
    fn tag(&mut self, kind: u8, name: &str) {
        let ahead = self.names.0.get(self.next..).unwrap_or_default();
        let code = ahead.iter().position(|n| *n == name);
        let code = code.map_or_else(|| self.names.code(name), |at| (self.next + at) as u8);
        debug_assert_eq!(code, self.names.code(name), "{name:?} listed twice");
        self.next = usize::from(code) + 1;
        self.out.push(kind | code);
    }
}

impl XmlSink for BinarySink<'_> {
    fn open(&mut self, name: &str) {
        if self.depth == 0 {
            self.out.push(BINARY_V1);
        }
        self.tag(OPEN, name);
        self.depth += 1;
    }

    fn attr(&mut self, key: &str, value: impl fmt::Display) {
        self.tag(ATTR_TEXT, key);
        put_text(self.out, value);
    }

    fn text(&mut self, text: impl fmt::Display) {
        self.out.push(TEXT);
        put_text(self.out, text);
    }

    fn close(&mut self) {
        self.depth = self
            .depth
            .checked_sub(1)
            .expect("close without a matching open");
        self.out.push(CLOSE);
    }

    fn attr_int<T: Copy + Into<u64> + fmt::Display>(&mut self, key: &str, value: T) {
        self.tag(ATTR_INT, key);
        put_varint(self.out, value.into());
    }

    fn attr_bytes(&mut self, key: &str, value: &[u8]) {
        self.tag(ATTR_BYTES, key);
        put_varint(self.out, value.len() as u64);
        self.out.extend_from_slice(value);
    }

    fn attr_keyword(&mut self, key: &str, keywords: &[&str], index: usize) {
        debug_assert!(index < keywords.len(), "keyword {index} of {keywords:?}");
        self.tag(ATTR_INT, key);
        put_varint(self.out, index as u64);
    }
}

/// The source that reads one binary payload in place. It borrows every
/// text and bytes value from the payload and keeps nothing but its
/// position and depth.
struct BinarySource<'a> {
    input: &'a [u8],
    pos: usize,
    names: Names,
    depth: usize,
    /// The root element has been opened.
    started: bool,
    /// The current element has had no text or child yet.
    in_start_tag: bool,
}

impl<'a> BinarySource<'a> {
    /// Read `payload`, whose first byte is [`BINARY_V1`], decoding
    /// names through `names`.
    fn new(payload: &'a [u8], names: Names) -> Self {
        BinarySource {
            input: payload,
            pos: 1,
            names,
            depth: 0,
            started: false,
            in_start_tag: false,
        }
    }

    fn err(&self, offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, ParseError> {
        let byte = *self
            .input
            .get(self.pos)
            .ok_or_else(|| truncated(self.pos))?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, ParseError> {
        read_varint(self.input, &mut self.pos)
    }

    fn slice(&mut self) -> Result<&'a [u8], ParseError> {
        read_slice(self.input, &mut self.pos)
    }

    fn text(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let at = self.pos;
        let bytes = self.slice()?;
        std::str::from_utf8(bytes)
            .map(Cow::Borrowed)
            .map_err(|_| self.err(at, "text not UTF-8"))
    }
}

impl<'a> XmlSource<'a> for BinarySource<'a> {
    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        if self.started && self.depth == 0 {
            return if self.pos == self.input.len() {
                Ok(Token::Eof)
            } else {
                Err(self.err(self.pos, "unexpected content after root element"))
            };
        }
        let at = self.pos;
        let tag = self.byte()?;
        let name = |src: &Self| {
            src.names
                .name(tag & CODE)
                .ok_or_else(|| src.err(at, format!("unknown name code {}", tag & CODE)))
        };
        match tag & KIND {
            OPEN => {
                let name = name(self)?;
                self.started = true;
                self.depth += 1;
                self.in_start_tag = true;
                Ok(Token::Open(name))
            }
            _ if !self.started => Err(self.err(at, "expected the root element")),
            _ if tag == CLOSE => {
                self.depth -= 1;
                self.in_start_tag = false;
                Ok(Token::Close)
            }
            _ if tag == TEXT => {
                self.in_start_tag = false;
                Ok(Token::Text(self.text()?))
            }
            kind @ (ATTR_TEXT | ATTR_INT | ATTR_BYTES) => {
                if !self.in_start_tag {
                    return Err(self.err(at, "attribute after content"));
                }
                let name = name(self)?;
                let value = match kind {
                    ATTR_TEXT => Value::Text(self.text()?),
                    ATTR_INT => Value::Int(self.varint()?),
                    _ => Value::Bytes(self.slice()?),
                };
                Ok(Token::Attr(name, value))
            }
            _ => Err(self.err(at, format!("unknown tag {tag:#04x}"))),
        }
    }
}

/// The source of a stored payload in whichever form its first byte
/// names: `<` for text, [`BINARY_V1`] for binary. A log reads every
/// record through it, so logs written in either form, or in both, read
/// alike.
pub struct Stored<'a>(Form<'a>);

enum Form<'a> {
    Text(Reader<'a>),
    Binary(BinarySource<'a>),
}

impl<'a> Stored<'a> {
    /// The source for `payload`; `names` decodes a binary one.
    pub fn open(payload: &'a [u8], names: Names) -> Result<Self, ParseError> {
        match payload.first() {
            Some(b'<') => std::str::from_utf8(payload)
                .map(|text| Stored(Form::Text(Reader::new(text))))
                .map_err(|e| ParseError {
                    offset: e.valid_up_to(),
                    message: "text payload not UTF-8".into(),
                }),
            Some(&BINARY_V1) => Ok(Stored(Form::Binary(BinarySource::new(payload, names)))),
            Some(other) => Err(ParseError {
                offset: 0,
                message: format!("unknown payload format byte {other:#04x}"),
            }),
            None => Err(ParseError {
                offset: 0,
                message: "empty payload".into(),
            }),
        }
    }
}

impl<'a> XmlSource<'a> for Stored<'a> {
    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        match &mut self.0 {
            Form::Text(reader) => reader.next(),
            Form::Binary(source) => source.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StreamSink;

    const NAMES: Names = Names::new(&["doc", "n", "b", "s", "k", "leaf", "empty"]);

    /// A document using every token kind, with text needing escapes in
    /// the text form and a value long enough for a two-byte length.
    fn sample(sink: &mut impl XmlSink, long: &str) {
        sink.open("doc");
        sink.attr_int("n", 300u64);
        sink.attr_bytes("b", &[0, 0x3c, 0xff]);
        sink.attr("s", "a \"quoted\" <value> & more");
        sink.attr_keyword("k", &["zero", "one"], 1);
        sink.leaf("leaf", long);
        sink.open("empty");
        sink.close();
        sink.close();
    }

    /// The tokens of a document, less the runs of nothing but
    /// whitespace the text form does not report.
    fn tokens<'a>(mut src: impl XmlSource<'a>) -> Result<Vec<Token<'a>>, ParseError> {
        let mut out = Vec::new();
        loop {
            match src.next()? {
                Token::Eof => return Ok(out),
                Token::Text(text) if text.trim().is_empty() => {}
                token => out.push(token),
            }
        }
    }

    fn binary(long: &str) -> Vec<u8> {
        let mut out = Vec::new();
        sample(&mut BinarySink::new(&mut out, NAMES), long);
        out
    }

    #[test]
    fn binary_layout_is_the_documented_one() {
        assert_eq!(
            binary("x")[..12],
            [BINARY_V1, 0x20, 0x61, 0xac, 0x02, 0x82, 3, 0, 0x3c, 0xff, 0x43, 25]
        );
        let mut marker = Vec::new();
        let mut sink = BinarySink::new(&mut marker, NAMES);
        sink.open("empty");
        sink.close();
        assert_eq!(marker, [BINARY_V1, 0x26, CLOSE]);
    }

    #[test]
    fn both_forms_decode_to_the_same_values() {
        for long in ["", "short", &"y".repeat(200)] {
            let mut text = String::new();
            sample(&mut StreamSink::new(&mut text), long);
            let payload = binary(long);
            let from_text = tokens(Stored::open(text.as_bytes(), NAMES).unwrap()).unwrap();
            let from_binary = tokens(Stored::open(&payload, NAMES).unwrap()).unwrap();
            assert_eq!(from_text.len(), from_binary.len());
            for (t, b) in from_text.iter().zip(&from_binary) {
                match (t, b) {
                    // A typed value reads back typed: the getters below
                    // compare it.
                    (Token::Attr(tk, _), Token::Attr(bk, Value::Int(_) | Value::Bytes(_))) => {
                        assert_eq!(tk, bk);
                    }
                    _ => assert_eq!(t, b),
                }
            }
            // The typed getters answer alike.
            fn getters<'a>(mut src: impl XmlSource<'a>) -> (u64, Vec<u8>, String, usize) {
                src.root().unwrap();
                let (attrs, _) = src.attributes(["n", "b", "s", "k"]).unwrap();
                (
                    attrs.int::<u64>("n").unwrap().unwrap(),
                    attrs.bytes("b").unwrap().unwrap().into_owned(),
                    attrs.get("s").unwrap().to_string(),
                    attrs.keyword("k", &["zero", "one"]).unwrap().unwrap(),
                )
            }
            assert_eq!(
                getters(Stored::open(text.as_bytes(), NAMES).unwrap()),
                getters(Stored::open(&payload, NAMES).unwrap())
            );
        }
    }

    #[test]
    fn the_first_byte_picks_the_form() {
        let rejected = |payload: &[u8]| Stored::open(payload, NAMES).err().map(|e| e.message);
        assert_eq!(rejected(b""), Some("empty payload".into()));
        assert_eq!(
            rejected(b" <doc/>"),
            Some("unknown payload format byte 0x20".into())
        );
        assert_eq!(
            rejected(b"<doc\xff/>"),
            Some("text payload not UTF-8".into())
        );
        assert!(rejected(b"<doc/>").is_none());
        assert!(rejected(&binary("")).is_none());
    }

    #[test]
    fn varints_are_shortest_form_and_bounded() {
        for n in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let (bytes, len) = varint(n);
            let mut payload = vec![BINARY_V1, 0x20, ATTR_INT | 1];
            payload.extend_from_slice(&bytes[..len]);
            payload.push(CLOSE);
            let mut src = BinarySource::new(&payload, NAMES);
            src.next().unwrap();
            assert_eq!(src.next().unwrap(), Token::Attr("n", Value::Int(n)));
        }
        for bad in [
            &[0x80, 0x00][..],
            &[0xff; 11],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
        ] {
            let mut payload = vec![BINARY_V1, 0x20, ATTR_INT | 1];
            payload.extend_from_slice(bad);
            let mut src = BinarySource::new(&payload, NAMES);
            src.next().unwrap();
            assert!(src.next().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the binary dictionary")]
    fn an_unlisted_name_is_a_programming_error() {
        let mut out = Vec::new();
        BinarySink::new(&mut out, NAMES).open("unlisted");
    }

    proptest::proptest! {
        /// The sink's forward search from the last name written finds
        /// the code the full search finds, for names in dictionary
        /// order, repeated or out of order: the bytes are the same.
        #[test]
        fn hinted_names_write_the_full_searchs_bytes(
            picks in proptest::collection::vec(0usize..7, 0..40),
        ) {
            let mut hinted = Vec::new();
            let mut sink = BinarySink::new(&mut hinted, NAMES);
            sink.open("doc");
            for (value, &pick) in picks.iter().enumerate() {
                sink.attr_int(NAMES.0[pick], value as u64);
            }
            sink.close();
            let mut searched = vec![BINARY_V1, OPEN | NAMES.code("doc")];
            for (value, &pick) in picks.iter().enumerate() {
                searched.push(ATTR_INT | NAMES.code(NAMES.0[pick]));
                put_varint(&mut searched, value as u64);
            }
            searched.push(CLOSE);
            proptest::prop_assert_eq!(hinted, searched);
        }

        /// Whatever a stored payload has become — cut short anywhere,
        /// one byte flipped anywhere — reading it to the end returns an
        /// error or tokens, and never panics.
        #[test]
        fn damaged_payloads_never_panic(cut in 0usize..400, at in 0usize..400, flip in 1u8..=255) {
            let payload = binary(&"z".repeat(150));
            if let Ok(src) = Stored::open(&payload[..cut.min(payload.len())], NAMES) {
                let _ = tokens(src);
            }
            let mut flipped = payload.clone();
            let at = at % flipped.len();
            flipped[at] ^= flip;
            if let Ok(src) = Stored::open(&flipped, NAMES) {
                let _ = tokens(src);
            }
        }
    }
}
