//! A byte-level pull reader over one JSON document.
//!
//! [`ScenarioUpload::parse`](crate::ScenarioUpload::parse) walks an
//! upload with it instead of building the vendored parser's `Content`
//! tree of the whole body: an object is read key by key
//! ([`Reader::object`], [`Object::next_key`]), an array element by
//! element ([`Reader::array`], [`Array::next`]), and a string is borrowed
//! from the document unless it holds an escape.
//!
//! The reader accepts exactly the grammar `serde_json::from_str` accepts
//! and classifies numbers as it does: a run of digits, `.`, `e`, `E`, `+`
//! and `-` after an optional leading `-` is an `F64` if any of `.eE+-`
//! occurs in it, else an `I64` when negative and a `U64` when not. Like
//! that parser, it fails at the [`MAX_DEPTH`]th nested array or object,
//! [`Reader::skip_value`] included, so a deep document is an error, not a
//! stack overflow.

use serde::DeError;
use std::borrow::Cow;

/// Nesting bound: the `MAX_DEPTH`th array or object open at once is an
/// error, as in the vendored `serde_json` and upstream's default.
pub(crate) const MAX_DEPTH: usize = 128;

/// One JSON scalar, classified as the vendored parser's `Content` is.
#[derive(Debug, PartialEq)]
pub(crate) enum Scalar<'a> {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(Cow<'a, str>),
}

/// Where a skipped value lies, to read it again with
/// [`Reader::revisit`] or hand its text to another parser.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: usize,
    end: usize,
    /// Containers open around the value.
    depth: usize,
}

/// A cursor over one document.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

/// An open object, read key by key.
pub(crate) struct Object {
    first: bool,
}

/// An open array, read element by element.
pub(crate) struct Array {
    first: bool,
}

impl Object {
    /// The next key, its `:` consumed, or `None` once the object closes.
    /// The caller reads or skips the key's value before asking again.
    pub(crate) fn next_key<'a>(
        &mut self,
        r: &mut Reader<'a>,
    ) -> Result<Option<Cow<'a, str>>, DeError> {
        let b = r.peek();
        if std::mem::take(&mut self.first) {
            if b == Some(b'}') {
                r.close();
                return Ok(None);
            }
        } else {
            match b {
                Some(b',') => r.pos += 1,
                Some(b'}') => {
                    r.close();
                    return Ok(None);
                }
                _ => return Err(r.error("bad object")),
            }
        }
        let key = r.string_token()?;
        if r.peek() != Some(b':') {
            return Err(r.error("expected `:`"));
        }
        r.pos += 1;
        Ok(Some(key))
    }
}

impl Array {
    /// `true` if another element follows (the caller reads or skips it
    /// before asking again), `false` once the array closes.
    pub(crate) fn next(&mut self, r: &mut Reader<'_>) -> Result<bool, DeError> {
        let b = r.peek();
        if std::mem::take(&mut self.first) {
            if b == Some(b']') {
                r.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match b {
            Some(b',') => {
                r.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                r.close();
                Ok(false)
            }
            _ => Err(r.error("bad array")),
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// A reader positioned at a value this one skipped.
    pub(crate) fn revisit(&self, span: Span) -> Reader<'a> {
        Reader {
            text: self.text,
            pos: span.start,
            depth: span.depth,
        }
    }

    /// The text of a skipped value.
    pub(crate) fn slice(&self, span: Span) -> &'a str {
        &self.text[span.start..span.end]
    }

    /// Require the end of the document: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(_) => Err(self.error("trailing characters")),
            None => Ok(()),
        }
    }

    /// Enter an object; fails with "expected {what}" if the next value is
    /// not one.
    pub(crate) fn object(&mut self, what: &str) -> Result<Object, DeError> {
        self.open(b'{', what)?;
        Ok(Object { first: true })
    }

    /// Enter an array; fails with "expected {what}" if the next value is
    /// not one.
    pub(crate) fn array(&mut self, what: &str) -> Result<Array, DeError> {
        self.open(b'[', what)?;
        Ok(Array { first: true })
    }

    /// A string value; fails with "expected {what}" on any other value.
    pub(crate) fn string(&mut self, what: &str) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(DeError::expected(what));
        }
        self.string_token()
    }

    /// A scalar value; fails with "expected {what}" on an array or object.
    pub(crate) fn scalar(&mut self, what: &str) -> Result<Scalar<'a>, DeError> {
        match self.peek() {
            Some(b'"') => self.string_token().map(Scalar::Str),
            Some(b'[' | b'{') => Err(DeError::expected(what)),
            Some(b'n') if self.eat("null") => Ok(Scalar::Null),
            Some(b't') if self.eat("true") => Ok(Scalar::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Scalar::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(self.error(&format!("unexpected {:?}", other.map(char::from)))),
        }
    }

    /// Skip one value, checking its syntax and depth, and return where
    /// it lies.
    pub(crate) fn skip_value(&mut self) -> Result<Span, DeError> {
        let next = self.peek();
        let (start, depth) = (self.pos, self.depth);
        match next {
            Some(b'[') => {
                let mut items = self.array("")?;
                while items.next(self)? {
                    self.skip_value()?;
                }
            }
            Some(b'{') => {
                let mut keys = self.object("")?;
                while keys.next_key(self)?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {
                self.scalar("")?;
            }
        }
        Ok(Span {
            start,
            end: self.pos,
            depth,
        })
    }

    fn error(&self, what: &str) -> DeError {
        DeError::custom(format!("{what} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, keyword: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(keyword.as_bytes());
        if found {
            self.pos += keyword.len();
        }
        found
    }

    /// Consume the opening byte of a container and count its level.
    fn open(&mut self, byte: u8, what: &str) -> Result<(), DeError> {
        if self.peek() != Some(byte) {
            return Err(DeError::expected(what));
        }
        if self.depth + 1 >= MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Consume a container's closing byte.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// The string the next token opens, borrowed from the document
    /// unless it holds an escape.
    fn string_token(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected `\"`"));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let chunk = &self.text[run..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut out) => {
                            out.push_str(chunk);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(chunk);
                    self.pos += 1;
                    let ch = self.escape()?;
                    out.push(ch);
                }
                None => return Err(DeError::custom("unterminated string")),
            }
        }
    }

    /// The character an escape denotes; `pos` is just past its `\`.
    fn escape(&mut self) -> Result<char, DeError> {
        let bytes = self.text.as_bytes();
        let esc = *bytes
            .get(self.pos)
            .ok_or_else(|| DeError::custom("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    if bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(DeError::custom("lone high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(DeError::custom("bad surrogate pair"));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or_else(|| DeError::custom("bad \\u escape"))?
            }
            other => return Err(DeError::custom(format!("bad escape `\\{}`", other as char))),
        })
    }

    /// The four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| DeError::custom("truncated \\u escape"))?;
        let mut unit = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| DeError::custom("bad \\u escape"))?;
            unit = unit * 16 + digit;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Scalar<'a>, DeError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        self.pos += usize::from(negative);
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let parsed = if is_float {
            text.parse().map(Scalar::F64).ok()
        } else if negative {
            text.parse().map(Scalar::I64).ok()
        } else {
            text.parse().map(Scalar::U64).ok()
        };
        parsed.ok_or_else(|| DeError::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(text: &str) -> Result<Scalar<'_>, DeError> {
        let mut r = Reader::new(text);
        let value = r.scalar("a scalar")?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn numbers_classify_like_the_vendored_parser() {
        assert_eq!(scalar("01").unwrap(), Scalar::U64(1));
        assert_eq!(scalar("-7").unwrap(), Scalar::I64(-7));
        assert_eq!(scalar("1.0").unwrap(), Scalar::F64(1.0));
        assert_eq!(scalar("1e3").unwrap(), Scalar::F64(1000.0));
        assert_eq!(
            scalar("18446744073709551615").unwrap(),
            Scalar::U64(u64::MAX)
        );
        for bad in [
            "-",
            "1-2",
            "18446744073709551616",
            "-9223372036854775809",
            "1e",
        ] {
            let err = scalar(bad).unwrap_err().to_string();
            assert_eq!(err, format!("invalid number `{bad}`"));
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        assert!(matches!(
            scalar(r#""plain é""#).unwrap(),
            Scalar::Str(Cow::Borrowed("plain é"))
        ));
        match scalar(r#""a\"bé😀""#).unwrap() {
            Scalar::Str(Cow::Owned(s)) => assert_eq!(s, "a\"b\u{e9}\u{1F600}"),
            other => panic!("expected an owned string, got {other:?}"),
        }
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800A""#,
            r#""\u+041""#,
            r#""\x""#,
            "\"open",
        ] {
            assert!(scalar(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn skip_value_checks_syntax_and_returns_the_span() {
        let text = r#"{"a": [1, {"b": null}], "c": "x"} "#;
        let mut r = Reader::new(text);
        let span = r.skip_value().unwrap();
        assert_eq!(r.slice(span), text.trim_end());
        r.finish().unwrap();
        for bad in ["[1,]", "{\"a\" 1}", "{\"a\":1,}", "[1 2]", "nul", "{1:2}"] {
            assert!(Reader::new(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn depth_is_bounded_like_the_vendored_parser() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Reader::new(&nested(MAX_DEPTH - 1)).skip_value().is_ok());
        let err = Reader::new(&nested(MAX_DEPTH)).skip_value().unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("recursion limit exceeded at offset {}", MAX_DEPTH - 1)
        );
    }
}
