//! Minimal stand-in for `serde_json` over the in-repo serde shim.
//!
//! Provides [`to_string`] / [`from_str`] by rendering and parsing the
//! shim's [`Content`] tree. Covers the JSON subset the workspace emits:
//! finite numbers (NaN round-trips as `null`), strings with standard
//! escapes, arrays and objects.

use serde::content::Content;
use serde::de::{ContentDeserializer, DeError};
use serde::ser::to_content;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Display, Write};

/// Error produced by JSON encoding or decoding.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let content = to_content(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_content(&mut out, &content);
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: for<'de> Deserialize<'de>>(s: &str) -> Result<T> {
    let content = Parser::new(s).parse()?;
    T::deserialize(ContentDeserializer::<DeError>::new(&content)).map_err(|e| Error(e.to_string()))
}

fn write_content(out: &mut String, c: &Content) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Content::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Content::F64(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting; integral
                // floats keep a ".0" so they parse back as floats.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(out, item);
            }
            out.push(']');
        }
        Content::Map(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_content(out, v);
            }
            out.push('}');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`from_str`] accepts (upstream
/// `serde_json`'s recursion limit). The parser recurses once per level and
/// its input crosses trust boundaries — store files, wire frames — so
/// without a bound a few hundred KB of `[` would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse(mut self) -> Result<Content> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.fail("trailing characters"));
        }
        Ok(v)
    }

    fn fail(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", expected as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Content) -> Result<Content> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("invalid literal, expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'n') => self.literal("null", Content::Null),
            Some(b't') => self.literal("true", Content::Bool(true)),
            Some(b'f') => self.literal("false", Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    /// Parses one container, a level deeper (see [`MAX_DEPTH`]).
    fn nested(&mut self, container: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Content> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Content> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(fields));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected object key"));
            }
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(fields));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.fail("invalid \\u escape"))?);
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the lead byte.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if width == 0 || end > self.bytes.len() {
                        return Err(self.fail("invalid UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.fail("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.fail("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.fail("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.fail("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Content::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Content::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.fail("invalid number"))
    }
}

fn utf8_width(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        let x: f64 = from_str("null").unwrap();
        assert!(x.is_nan());
        let v: Vec<Option<f64>> = from_str("[1.0,null,3.5]").unwrap();
        assert_eq!(v, vec![Some(1.0), None, Some(3.5)]);
    }

    #[test]
    fn roundtrip_nested() {
        let v: BTreeMap<String, Vec<Vec<u32>>> =
            BTreeMap::from([("a".into(), vec![vec![1, 2], vec![]]), ("b".into(), vec![])]);
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"{"a":[[1,2],[]],"b":[]}"#);
        let back: BTreeMap<String, Vec<Vec<u32>>> = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Parser::new(&nest(MAX_DEPTH)).parse().is_ok());
        assert!(Parser::new(&nest(MAX_DEPTH + 1)).parse().is_err());
        // Deep enough to overflow the stack if every level recursed.
        assert!(Parser::new(&"[{\"k\":".repeat(200_000)).parse().is_err());
    }
}
