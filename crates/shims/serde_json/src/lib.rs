//! Minimal stand-in for `serde_json` over the in-repo serde shim.
//!
//! [`to_string`] streams: a `Serializer` that appends to the output string
//! as the value walks itself — no intermediate tree, no `String` per key or
//! per value. [`from_str`] parses into the shim's [`Content`] tree and
//! deserializes from it. Covers the JSON subset the workspace emits: finite
//! numbers (NaN round-trips as `null`, ±∞ is an error), strings with
//! standard escapes, arrays and objects.

use serde::content::Content;
use serde::de::{ContentDeserializer, DeError};
use serde::ser::{SerializeStruct, Serializer};
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

impl serde::ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(Writer::value(&mut out))?;
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: for<'de> Deserialize<'de>>(s: &str) -> Result<T> {
    let content = Parser::new(s).parse()?;
    T::deserialize(ContentDeserializer::<DeError>::new(&content)).map_err(|e| Error(e.to_string()))
}

/// The JSON write path: serializes one value by appending its text to
/// `out`. Where an object key is due (`key`), only a string may follow.
struct Writer<'a> {
    out: &'a mut String,
    key: bool,
}

impl<'a> Writer<'a> {
    fn value(out: &'a mut String) -> Self {
        Writer { out, key: false }
    }

    /// The output, for a value of `kind` that is no string — refused in
    /// key position.
    fn non_string(self, kind: &str) -> Result<&'a mut String> {
        if self.key {
            return Err(Error(format!("map key must be a string, got {kind}")));
        }
        Ok(self.out)
    }
}

impl<'a> Serializer for Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeStruct = StructWriter<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.non_string("bool")?
            .push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        let _ = write!(self.non_string("integer")?, "{v}");
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        let _ = write!(self.non_string("integer")?, "{v}");
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        let out = self.non_string("float")?;
        if v.is_nan() {
            // JSON has no NaN; float deserialization maps null back to it.
            out.push_str("null");
        } else if v.is_infinite() {
            return Err(Error("cannot serialize infinite float".into()));
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            // Integral floats keep a ".0" so they parse back as floats.
            let _ = write!(out, "{v:.1}");
        } else {
            // Rust's shortest round-trip float formatting.
            let _ = write!(out, "{v}");
        }
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.non_string("null")?.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        write_escaped(self.out, variant);
        Ok(())
    }

    fn collect_seq<I>(self, iter: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let out = self.non_string("sequence")?;
        out.push('[');
        for (i, item) in iter.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize(Writer::value(out))?;
        }
        out.push(']');
        Ok(())
    }

    fn collect_map<K, V, I>(self, iter: I) -> Result<()>
    where
        K: Serialize,
        V: Serialize,
        I: IntoIterator<Item = (K, V)>,
    {
        let out = self.non_string("map")?;
        out.push('{');
        for (i, (k, v)) in iter.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            k.serialize(Writer { out, key: true })?;
            out.push(':');
            v.serialize(Writer::value(out))?;
        }
        out.push('}');
        Ok(())
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<StructWriter<'a>> {
        let out = self.non_string("map")?;
        out.push('{');
        Ok(StructWriter { out, first: true })
    }
}

/// An object being written field by field.
struct StructWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl SerializeStruct for StructWriter<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_escaped(self.out, key);
        self.out.push(':');
        value.serialize(Writer::value(self.out))
    }

    fn end(self) -> Result<()> {
        self.out.push('}');
        Ok(())
    }
}

/// Appends `s` as a JSON string literal. Every byte that needs an escape
/// is ASCII, so the runs between them are copied whole.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1F) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
    /// The renderer [`to_string`] had before it streamed — a `Content` tree
    /// built through the same `Serializer` trait, then written out — kept as
    /// the reference the streamed bytes are compared with.
    mod tree {
        use super::super::*;

        pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
            let mut out = String::new();
            write_content(&mut out, &value.serialize(TreeSerializer)?);
            Ok(out)
        }

        struct TreeSerializer;

        struct TreeStruct(Vec<(String, Content)>);

        impl SerializeStruct for TreeStruct {
            type Ok = Content;
            type Error = Error;

            fn serialize_field<T: Serialize + ?Sized>(
                &mut self,
                key: &'static str,
                value: &T,
            ) -> Result<()> {
                self.0
                    .push((key.to_string(), value.serialize(TreeSerializer)?));
                Ok(())
            }

            fn end(self) -> Result<Content> {
                Ok(Content::Map(self.0))
            }
        }

        impl Serializer for TreeSerializer {
            type Ok = Content;
            type Error = Error;
            type SerializeStruct = TreeStruct;

            fn serialize_bool(self, v: bool) -> Result<Content> {
                Ok(Content::Bool(v))
            }

            fn serialize_i64(self, v: i64) -> Result<Content> {
                Ok(Content::I64(v))
            }

            fn serialize_u64(self, v: u64) -> Result<Content> {
                Ok(Content::U64(v))
            }

            fn serialize_f64(self, v: f64) -> Result<Content> {
                if v.is_finite() {
                    Ok(Content::F64(v))
                } else if v.is_nan() {
                    Ok(Content::Null)
                } else {
                    Err(Error("cannot serialize infinite float".into()))
                }
            }

            fn serialize_str(self, v: &str) -> Result<Content> {
                Ok(Content::Str(v.to_string()))
            }

            fn serialize_none(self) -> Result<Content> {
                Ok(Content::Null)
            }

            fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Content> {
                value.serialize(self)
            }

            fn serialize_unit_variant(
                self,
                _name: &'static str,
                _variant_index: u32,
                variant: &'static str,
            ) -> Result<Content> {
                Ok(Content::Str(variant.to_string()))
            }

            fn collect_seq<I>(self, iter: I) -> Result<Content>
            where
                I: IntoIterator,
                I::Item: Serialize,
            {
                let items = iter.into_iter().map(|item| item.serialize(TreeSerializer));
                Ok(Content::Seq(items.collect::<Result<_>>()?))
            }

            fn collect_map<K, V, I>(self, iter: I) -> Result<Content>
            where
                K: Serialize,
                V: Serialize,
                I: IntoIterator<Item = (K, V)>,
            {
                let mut fields = Vec::new();
                for (k, v) in iter {
                    let key = match k.serialize(TreeSerializer)? {
                        Content::Str(s) => s,
                        other => {
                            let kind = other.kind();
                            return Err(Error(format!("map key must be a string, got {kind}")));
                        }
                    };
                    fields.push((key, v.serialize(TreeSerializer)?));
                }
                Ok(Content::Map(fields))
            }

            fn serialize_struct(self, _name: &'static str, len: usize) -> Result<TreeStruct> {
                Ok(TreeStruct(Vec::with_capacity(len)))
            }
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
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        let _ = write!(out, "{f:.1}");
                    } else {
                        let _ = write!(out, "{f}");
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
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
    enum Kind {
        Plain,
        Other,
    }

    #[derive(Debug, Serialize)]
    struct Leaf {
        name: String,
        kind: Kind,
        score: f64,
        count: i64,
        maybe: Option<f64>,
    }

    #[derive(Debug, Serialize)]
    struct Node {
        flag: bool,
        id: u64,
        label: Option<String>,
        leaves: Vec<Leaf>,
        by_name: BTreeMap<String, Vec<f64>>,
        child: Option<Leaf>,
    }

    /// Every escape class — quote, backslash, the three named controls, a
    /// `\u00XX` control, DEL (not escaped) — plus 2-, 3- and 4-byte UTF-8.
    const PALETTE: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '🦀',
    ];

    /// Floats whose rendering takes a branch of its own: signed zeros,
    /// integral on both sides of the `.1` rule's 1e15 bound, subnormals,
    /// NaN.
    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1.5e300,
        5e-324,
        2.2250738585072014e-308,
        f64::NAN,
        0.1,
    ];

    /// Builds values from a stream of random words.
    struct Gen<'a>(std::slice::Iter<'a, u64>);

    impl Gen<'_> {
        fn word(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }

        fn string(&mut self) -> String {
            let w = self.word();
            (0..w % 7)
                .map(|k| PALETTE[(w >> (8 * k + 3)) as usize % PALETTE.len()])
                .collect()
        }

        fn float(&mut self) -> f64 {
            let w = self.word();
            match w % 3 {
                0 => FLOATS[(w >> 2) as usize % FLOATS.len()],
                // Any finite bit pattern (an infinity becomes a NaN).
                1 => Some(f64::from_bits(w))
                    .filter(|f| !f.is_infinite())
                    .unwrap_or(f64::NAN),
                _ => (w >> 2) as i32 as f64 / 8.0,
            }
        }

        fn leaf(&mut self) -> Leaf {
            let w = self.word();
            Leaf {
                name: self.string(),
                kind: if w & 1 == 0 { Kind::Plain } else { Kind::Other },
                score: self.float(),
                count: self.word() as i64,
                maybe: (w & 2 == 0).then(|| self.float()),
            }
        }

        fn node(&mut self) -> Node {
            let w = self.word();
            Node {
                flag: w & 1 == 0,
                id: self.word(),
                label: (w & 2 == 0).then(|| self.string()),
                leaves: (0..(w >> 2) % 4).map(|_| self.leaf()).collect(),
                by_name: (0..(w >> 4) % 3)
                    .map(|_| {
                        let key = self.string();
                        (key, (0..self.word() % 3).map(|_| self.float()).collect())
                    })
                    .collect(),
                child: (w & 64 == 0).then(|| self.leaf()),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// The streamed bytes are the tree renderer's bytes, for nested
        /// structs, maps, options, unit variants, every escape class and
        /// every float branch.
        #[test]
        fn streamed_bytes_equal_the_tree_renderer(
            words in proptest::collection::vec(0u64..u64::MAX, 1..60)
        ) {
            let mut gen = Gen(words.iter());
            let nodes: Vec<Node> = (0..1 + words.len() % 3).map(|_| gen.node()).collect();
            proptest::prop_assert_eq!(to_string(&nodes).unwrap(), tree::to_string(&nodes).unwrap());
        }
    }

    #[test]
    fn float_branches_are_pinned() {
        let text = |f: f64| to_string(&f).unwrap();
        assert_eq!(text(0.0), "0.0");
        assert_eq!(text(-0.0), "-0.0");
        assert_eq!(text(999_999_999_999_999.0), "999999999999999.0");
        assert_eq!(text(1e15), "1000000000000000");
        assert_eq!(text(5e-324), format!("{}", 5e-324));
        assert_eq!(text(f64::NAN), "null");
        for f in FLOATS {
            assert_eq!(text(f), tree::to_string(&f).unwrap());
        }
    }

    #[test]
    fn every_escape_class_is_written() {
        let s: String = PALETTE.iter().collect();
        assert_eq!(
            to_string(&s).unwrap(),
            "\"aZ \\\"\\\\\\n\\r\\t\\u0001\\u001f\u{7f}é→🦀\""
        );
        assert_eq!(to_string(&s).unwrap(), tree::to_string(&s).unwrap());
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn infinities_and_non_string_keys_are_errors() {
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            let err = to_string(&vec![Some(f)]).unwrap_err();
            assert_eq!(err.to_string(), "cannot serialize infinite float");
            assert_eq!(
                err.to_string(),
                tree::to_string(&f).unwrap_err().to_string()
            );
        }
        let by_number = BTreeMap::from([(7u32, 1.0f64)]);
        let err = to_string(&by_number).unwrap_err();
        assert_eq!(err.to_string(), "map key must be a string, got integer");
        assert_eq!(
            err.to_string(),
            tree::to_string(&by_number).unwrap_err().to_string()
        );
        // A unit variant is a string, in key position too.
        assert_eq!(
            to_string(&BTreeMap::from([(Kind::Other, 1u8)])).unwrap(),
            r#"{"Other":1}"#
        );
    }
}
