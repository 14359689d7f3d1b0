//! # polygamy-json — the workspace's one JSON codec
//!
//! Every JSON boundary of the Data Polygamy reproduction writes and reads
//! through this crate: query results (`query --json` lines, the daemon's
//! `R` frames), the daemon's `H` and `E` payloads, metrics snapshots and
//! traces, and `polygamy-lint --json` (`docs/architecture.md`, "What has a
//! JSON form", names each codec). Nothing in a store file is JSON.
//!
//! **Writing** has no value tree: each boundary's hand-written codec
//! appends its keys and values straight into one output `String`, through
//! [`write_str`] for strings, [`write_f64`] for floats, [`write_u64`] for
//! unsigned integers and [`write_array`] for arrays. The rules, pinned by
//! golden tests at every boundary:
//!
//! * a float prints as `{:.1}` when it is integral and |f| < 1e15 (`2.0`,
//!   `-0.0`, `999999999999999.0`) and with Rust's shortest round-trip
//!   digits otherwise (`0.1`, `1000000000000000`); NaN prints as `null`,
//!   and ±∞ has no JSON form: [`Error::NonFinite`];
//! * a string escapes `"`, `\`, newline, carriage return and tab by name,
//!   every other control character as `\u00XX`, and nothing else.
//!
//! **Reading** goes through [`parse`], which builds a [`Value`] the codecs
//! pick fields from with the typed accessors ([`Value::get`],
//! [`Value::as_f64`], …). The parser takes standard JSON text, keeps object
//! keys in source order, nests at most [`MAX_DEPTH`] deep (its input crosses
//! trust boundaries, and it recurses once per level), and decodes a `\u`
//! surrogate pair to one character — a high surrogate must be followed by
//! a low one, and any other surrogate is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Without a bound, a
/// hundred kilobytes of `[` would overflow the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number token with no fraction and no exponent that fits `i128`.
    Int(i128),
    /// Any other number token.
    Float(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in source order (a repeated key keeps every entry;
    /// [`Value::get`] finds the first).
    Object(Vec<(String, Value)>),
}

/// Why JSON text could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The text is not JSON, or it nests deeper than [`MAX_DEPTH`].
    Syntax {
        /// What was wrong.
        message: &'static str,
        /// The byte offset it was noticed at.
        offset: usize,
    },
    /// An object lacks a key its reader requires.
    MissingKey(String),
    /// A value is of the wrong type or out of range where it sits.
    Invalid(String),
    /// A float to be written is ±∞, which JSON cannot express.
    NonFinite,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { message, offset } => write!(f, "{message} at byte {offset}"),
            Error::MissingKey(key) => write!(f, "missing key `{key}`"),
            Error::Invalid(message) => f.write_str(message),
            Error::NonFinite => f.write_str("cannot serialize infinite float"),
        }
    }
}

impl std::error::Error for Error {}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    fn expected(&self, what: &str) -> Error {
        Error::Invalid(format!("expected {what}, got {}", self.kind()))
    }

    /// The entries of an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(other.expected("an object")),
        }
    }

    /// The value under `key` in an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Result<&Value, Error> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::MissingKey(key.to_string()))
    }

    /// The items of an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(other.expected("an array")),
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(other.expected("a string")),
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.expected("a boolean")),
        }
    }

    /// An integer token, converted to `T` — a float token is no integer,
    /// even an integral one.
    pub fn as_int<T: TryFrom<i128>>(&self) -> Result<T, Error> {
        match self {
            Value::Int(n) => {
                T::try_from(*n).map_err(|_| Error::Invalid(format!("integer {n} is out of range")))
            }
            other => Err(other.expected("an integer")),
        }
    }

    /// A number as a float, the inverse of [`write_f64`]: an integer token
    /// (how 1e15 and larger integral floats are written) converts with
    /// correct rounding, and `null` reads as NaN.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(other.expected("a number")),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal. Every byte that needs an
/// escape is ASCII, so the runs between them are copied whole.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends `n` to `out` in decimal, as `{n}` prints it.
pub fn write_u64(out: &mut String, n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `f` to `out` under the float rule (see the crate docs):
/// integral floats below 1e15 keep a `.0`, so they read back as floats.
pub fn write_f64(out: &mut String, f: f64) -> Result<(), Error> {
    if f.is_nan() {
        out.push_str("null");
    } else if f.is_infinite() {
        return Err(Error::NonFinite);
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        // Exactly an integer below 2⁵⁰: the cast is lossless, and `{:.1}`
        // of it is its digits, `.0` and the sign — of `-0.0` too.
        if f.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, f.abs() as u64);
        out.push_str(".0");
    } else {
        let _ = write!(out, "{f}");
    }
    Ok(())
}

/// Appends `items` to `out` as one JSON array, each item appended by
/// `write`.
pub fn write_array<T>(
    out: &mut String,
    items: &[T],
    write: impl Fn(&T, &mut String) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out)?;
    }
    out.push(']');
    Ok(())
}

/// Parses `src`, which must hold exactly one JSON value (whitespace
/// around it allowed).
pub fn parse(src: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.fail("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail(&self, message: &'static str) -> Error {
        Error::Syntax {
            message,
            offset: self.pos,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if !self.src[self.pos..].starts_with(word) {
            return Err(self.fail("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Parses one container a level deeper (see [`MAX_DEPTH`]).
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // `[`
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // `{`
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected an object key"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.fail("expected `:`"));
            }
            self.pos += 1;
            entries.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // `"`
        let mut out = String::new();
        loop {
            // Only ASCII bytes stop the run, so it ends on a char boundary.
            let run = self.pos;
            while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.byte() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let escaped = self
            .byte()
            .ok_or_else(|| self.fail("unterminated escape"))?;
        self.pos += 1;
        Ok(match escaped {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.fail("invalid escape")),
        })
    }

    /// The character of a `\uXXXX` escape, `\u` consumed: a high surrogate
    /// and the `\u` low surrogate after it give one character; any other
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let unit = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit) {
            if !self.src[self.pos..].starts_with("\\u") {
                return Err(self.fail("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.fail("unpaired surrogate"));
            }
            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
        } else {
            unit
        };
        // Only a lone low surrogate is no scalar value here.
        char::from_u32(code).ok_or_else(|| self.fail("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.src.as_bytes().get(self.pos..self.pos + 4);
        let hex = hex.ok_or_else(|| self.fail("truncated \\u escape"))?;
        let mut unit = 0;
        for &d in hex {
            let digit = char::from(d).to_digit(16);
            unit = unit * 16 + digit.ok_or_else(|| self.fail("invalid \\u escape"))?;
        }
        self.pos += 4;
        Ok(unit)
    }

    /// Consumes a run of ASCII digits, failing on an empty one.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.fail("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        if self.byte() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integral = false;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            integral = false;
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(n) = text.parse() {
                return Ok(Value::Int(n));
            }
        }
        // The grammar above is a subset of what `f64::from_str` takes.
        Ok(Value::Float(
            text.parse().expect("a JSON number parses as f64"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string_of(text: &str) -> Result<String, Error> {
        parse(text).and_then(|v| v.as_str().map(str::to_owned))
    }

    #[test]
    fn round_trips_the_subset() {
        let v = parse(r#" {"a":1,"b":[-2,3.5,null,true],"c":{"d":"x\n\"y\""},"e":[]} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_int::<u64>(), Ok(1));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_int::<i64>(), Ok(-2));
        assert_eq!(b[1].as_f64(), Ok(3.5));
        assert!(b[2].as_f64().unwrap().is_nan());
        assert_eq!(b[3].as_bool(), Ok(true));
        let d = v.get("c").unwrap().get("d").unwrap();
        assert_eq!(d.as_str(), Ok("x\n\"y\""));
        assert!(v.get("e").unwrap().as_array().unwrap().is_empty());
        assert_eq!(v.get("z"), Err(Error::MissingKey("z".into())));
        // The first of a repeated key; integral floats are no integers.
        assert_eq!(
            parse(r#"{"k":1,"k":2}"#).unwrap().get("k"),
            Ok(&Value::Int(1))
        );
        assert!(parse("2.0").unwrap().as_int::<u64>().is_err());
        assert!(parse("-1").unwrap().as_int::<u64>().is_err());
    }

    #[test]
    fn escapes_survive_a_write_parse_cycle() {
        let original = "quote \" slash \\ newline \n tab \t control \u{1} del \u{7f} é → 🦀";
        let mut written = String::new();
        write_str(&mut written, original);
        assert_eq!(
            written,
            "\"quote \\\" slash \\\\ newline \\n tab \\t control \\u0001 del \u{7f} é → 🦀\""
        );
        assert_eq!(string_of(&written).unwrap(), original);
        assert_eq!(string_of(r#""\/\b\f\u00e9""#).unwrap(), "/\u{8}\u{c}é");
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":1} x",
            "{\"a\" 1}",
            "{1:2}",
            "nul",
            "tru",
            "01",
            "1.",
            "-",
            ".5",
            "1e",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"open",
        ] {
            assert!(matches!(parse(text), Err(Error::Syntax { .. })), "{text:?}");
        }
    }

    /// One rule for `\u` surrogates: a high one followed by a low one is
    /// one character; a high one alone, a high one followed by anything
    /// else, and a low one alone are errors.
    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(string_of(r#""\uD83E\uDD80""#).unwrap(), "🦀");
        assert_eq!(string_of(r#""\ud83e\udd80!""#).unwrap(), "🦀!");
        for lone in [
            r#""\uD800\u0041""#,
            r#""\uD800""#,
            r#""\uD800x""#,
            r#""\uDC00""#,
            r#""\uD800\uD800""#,
        ] {
            assert!(
                matches!(string_of(lone), Err(Error::Syntax { .. })),
                "{lone}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack if every level recursed.
        assert!(parse(&"[{\"k\":".repeat(200_000)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn float_branches_are_pinned() {
        let text = |f: f64| {
            let mut out = String::new();
            write_f64(&mut out, f).map(|()| out)
        };
        assert_eq!(text(0.0).unwrap(), "0.0");
        assert_eq!(text(-0.0).unwrap(), "-0.0");
        assert_eq!(text(-3.0).unwrap(), "-3.0");
        assert_eq!(text(0.1).unwrap(), "0.1");
        assert_eq!(text(999_999_999_999_999.0).unwrap(), "999999999999999.0");
        assert_eq!(text(1e15).unwrap(), "1000000000000000");
        assert_eq!(text(-1e15).unwrap(), "-1000000000000000");
        assert_eq!(text(5e-324).unwrap(), format!("{}", 5e-324));
        assert_eq!(text(f64::NAN).unwrap(), "null");
        assert_eq!(text(f64::INFINITY), Err(Error::NonFinite));
        assert_eq!(text(f64::NEG_INFINITY), Err(Error::NonFinite));
    }

    /// The float rule's branches and the escapes' classes, as palettes.
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
    const PALETTE: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '🦀',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// Whatever `write_str` and `write_f64` write, `parse` reads back:
        /// strings char for char, floats bit for bit (NaN as `null`).
        #[test]
        fn written_values_parse_back(words in proptest::collection::vec(0u64..u64::MAX, 1..40)) {
            let mut out = String::from("[");
            let mut strings = Vec::new();
            let mut floats = Vec::new();
            for (i, &w) in words.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if w % 2 == 0 {
                    let s: String = (0..w % 9)
                        .map(|k| PALETTE[(w >> (4 * k + 8)) as usize % PALETTE.len()])
                        .collect();
                    write_str(&mut out, &s);
                    strings.push(s);
                } else {
                    let f = match w % 3 {
                        0 => FLOATS[(w >> 2) as usize % FLOATS.len()],
                        _ => Some(f64::from_bits(w)).filter(|f| f.is_finite()).unwrap_or(0.5),
                    };
                    write_f64(&mut out, f).unwrap();
                    floats.push(f);
                }
            }
            out.push(']');
            let parsed = parse(&out).unwrap();
            let items = parsed.as_array().unwrap();
            let (mut s, mut f) = (strings.iter(), floats.iter());
            for (item, &w) in items.iter().zip(&words) {
                if w % 2 == 0 {
                    proptest::prop_assert_eq!(item.as_str().unwrap(), s.next().unwrap().as_str());
                } else {
                    let want = *f.next().unwrap();
                    let got = item.as_f64().unwrap();
                    proptest::prop_assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{} read back as {}", want, got
                    );
                }
            }
        }
    }
}
