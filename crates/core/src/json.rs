//! JSON text: the one value type, parser and renderer in the workspace.
//!
//! Every JSON document the workspace writes — line-protocol responses,
//! durable report records, trace exports, analyzer reports — is built as a
//! [`JVal`] and rendered by [`JVal::render`]. The one exception is the
//! shard fold frames in `iolap_server::wire`, which stream rows of
//! integer weights and tagged cells straight into one buffer; they use
//! this module's [`escape_into`].
//!
//! One number policy: an [`JVal::Int`] prints as its exact digits, a
//! finite [`JVal::Num`] in Rust's shortest round-trip form (never an
//! exponent, so `Num(3.0)` and `Int(3)` both print `3`), and a non-finite
//! float as `null` (JSON has no NaN).
//!
//! The parser is a recursive descent over the full RFC 8259 grammar
//! (objects, arrays, strings with escapes, numbers, literals). It has no
//! panic site: every failure, nesting deeper than [`MAX_DEPTH`] included,
//! is a [`ParseError`], so a hostile request line costs its connection an
//! error reply and never the process its stack.

use iolap_relation::Value;
use std::fmt;
use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. The deepest document the
/// workspace writes (a shard fold response) nests about 7 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep their document order (the protocol never
/// relies on it, but determinism is free this way).
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact. [`parse`] yields it for an integer literal (no
    /// fraction, no exponent) that fits `i64`, except `-0`.
    Int(i64),
    /// Any other number: fractions, exponents, `-0`, integer literals
    /// beyond `i64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object, in document order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Int(i) => Some(*i as f64),
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, when non-negative, integral, and in
    /// range. For a `Num` the bound is strict: `u64::MAX as f64` rounds
    /// *up* to 2^64, one past the last `u64`, so an inclusive comparison
    /// would admit 18446744073709551616.0 and silently saturate it. Every
    /// finite f64 strictly below 2^64 is exact under `as u64`.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = u64::MAX as f64; // == 2^64 exactly
        match self {
            JVal::Int(i) => u64::try_from(*i).ok(),
            JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JVal::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object from `(key, value)` pairs, in order.
    pub fn obj(members: Vec<(&str, JVal)>) -> JVal {
        JVal::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> JVal {
        JVal::Str(s.into())
    }

    /// Render as a compact one-line JSON document: [`escape`] for strings
    /// (keys included), the module's number policy for numbers. [`parse`]
    /// reads the output back to a value that renders identically.
    pub fn render(&self) -> String {
        // Room for a typical response or batch-report line (~200 bytes)
        // without regrowing.
        let mut out = String::with_capacity(256);
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JVal::Num(n) => num(out, *n),
            JVal::Str(s) => quote(out, s),
            JVal::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            JVal::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JVal {
    fn from(b: bool) -> JVal {
        JVal::Bool(b)
    }
}

impl From<u64> for JVal {
    /// Exact below 2^63; a counter past that degrades to a float.
    fn from(n: u64) -> JVal {
        i64::try_from(n).map_or(JVal::Num(n as f64), JVal::Int)
    }
}

impl From<usize> for JVal {
    fn from(n: usize) -> JVal {
        JVal::from(n as u64)
    }
}

impl From<f64> for JVal {
    fn from(x: f64) -> JVal {
        JVal::Num(x)
    }
}

impl From<&str> for JVal {
    fn from(s: &str) -> JVal {
        JVal::Str(s.to_string())
    }
}

impl<T: Into<JVal>> From<Option<T>> for JVal {
    /// `None` is `null`.
    fn from(v: Option<T>) -> JVal {
        v.map_or(JVal::Null, Into::into)
    }
}

impl From<&Value> for JVal {
    /// One relation cell as a client sees it: `Null`/`Bool`/`Int`/`Float`
    /// map to their JSON natives, and the internal lineage variants
    /// (`Ref`, `Pending` — never user-visible in a published result) fall
    /// back to their debug rendering as strings.
    fn from(v: &Value) -> JVal {
        match v {
            Value::Null => JVal::Null,
            Value::Bool(b) => JVal::Bool(*b),
            Value::Int(i) => JVal::Int(*i),
            Value::Float(f) => JVal::Num(*f),
            Value::Str(s) => JVal::str(&**s),
            other => JVal::Str(format!("{other:?}")),
        }
    }
}

/// The number policy for floats: finite floats in shortest round-trip
/// form, non-finite ones as `null`.
fn num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escape a string for a JSON string literal (quotes not included): `"`,
/// `\` and the control characters, with the short forms where JSON has
/// them. Everything else, astral-plane characters included, passes
/// through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`] appended to `out`, for encoders that stream a document
/// into one buffer.
pub fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so a byte scan never splits
    // a multi-byte character and clean runs are copied as whole slices.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// A parse failure: byte position plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn fail<T>(pos: usize, msg: &'static str) -> Result<T, ParseError> {
    Err(ParseError { pos, msg })
}

/// Parse one JSON document (surrounding whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<JVal, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return fail(pos, "trailing characters after document");
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value whose enclosing containers number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => fail(*pos, "unexpected end of input"),
        Some(b'{' | b'[') if depth == MAX_DEPTH => fail(*pos, "nesting too deep"),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(JVal::Str),
        Some(b't') => parse_literal(b, pos, "true", JVal::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JVal::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JVal::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(_) => fail(*pos, "expected a JSON value"),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    v: JVal,
) -> Result<JVal, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        fail(*pos, "invalid literal")
    }
}

fn skip_digits(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    // Strict RFC 8259 grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    // The structure is validated *before* `from_str`, so lenient forms
    // Rust's float parser accepts ("1.", ".5", "inf", "1e") can never leak
    // in: two shard peers must agree byte-for-byte on what a valid frame is.
    let start = *pos;
    let invalid = || fail(start, "invalid number");
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => skip_digits(b, pos),
        _ => return invalid(),
    }
    let mut integral = true;
    if b.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return invalid();
        }
        skip_digits(b, pos);
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return invalid();
        }
        skip_digits(b, pos);
    }
    // The grammar admitted only ASCII, so the slice is always UTF-8.
    let Ok(text) = std::str::from_utf8(&b[start..*pos]) else {
        return invalid();
    };
    // `-0` stays a float so its sign survives a round trip.
    if integral && text != "-0" {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JVal::Int(i));
        }
    }
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(JVal::Num(n)),
        _ => invalid(),
    }
}

/// Exactly four ASCII hex digits starting at `at`. `from_str_radix` alone
/// would also accept a leading `+`, so digits are checked explicitly.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

/// A string starting at its opening quote.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    *pos += 1; // consume '"'
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return fail(*pos, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let bad_escape = ParseError {
                            pos: *pos,
                            msg: "invalid \\u escape",
                        };
                        let hi = hex4(b, *pos + 1).ok_or(bad_escape.clone())?;
                        *pos += 4;
                        let scalar = match hi {
                            // High surrogate: a low-surrogate escape must
                            // follow immediately; together they name one
                            // astral-plane scalar.
                            0xD800..=0xDBFF => {
                                let lo = match (b.get(*pos + 1), b.get(*pos + 2)) {
                                    (Some(b'\\'), Some(b'u')) => hex4(b, *pos + 3),
                                    _ => None,
                                };
                                let Some(lo @ 0xDC00..=0xDFFF) = lo else {
                                    return fail(*pos, "lone high surrogate in \\u escape");
                                };
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return fail(*pos, "lone low surrogate in \\u escape");
                            }
                            _ => hi,
                        };
                        out.push(char::from_u32(scalar).ok_or(bad_escape)?);
                    }
                    _ => return fail(*pos, "invalid escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole unescaped run in one slice. `"` and
                // `\` are ASCII, so a byte scan can never split a
                // multi-byte UTF-8 sequence, and validating only the run
                // keeps the parser linear (validating the remaining input
                // per character made megabyte shard frames quadratic).
                let start = *pos;
                while matches!(b.get(*pos), Some(&c) if c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                let Ok(run) = std::str::from_utf8(&b[start..*pos]) else {
                    return fail(start, "invalid utf-8 in string");
                };
                out.push_str(run);
            }
        }
    }
}

/// An array starting at its `[`; `depth` counts it.
fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JVal::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            _ => return fail(*pos, "expected ',' or ']'"),
        }
    }
}

/// An object starting at its `{`; `depth` counts it.
fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JVal::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return fail(*pos, "expected object key");
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return fail(*pos, "expected ':'");
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JVal::Obj(members));
            }
            _ => return fail(*pos, "expected ',' or '}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r\t\u{1}\u{1f}"), "\\r\\t\\u0001\\u001f");
        assert_eq!(escape("plain é 𝄞 \u{7f}"), "plain é 𝄞 \u{7f}");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn integer_literals_parse_exactly() {
        assert_eq!(parse("42").unwrap(), JVal::Int(42));
        assert_eq!(parse("0").unwrap(), JVal::Int(0));
        assert_eq!(
            parse("9007199254740993").unwrap(),
            JVal::Int(9_007_199_254_740_993)
        );
        assert_eq!(parse("9223372036854775807").unwrap(), JVal::Int(i64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), JVal::Int(i64::MIN));
        // Beyond i64, and anything with a fraction or exponent, is a float.
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            JVal::Num(9_223_372_036_854_775_808.0)
        );
        assert_eq!(parse("3.0").unwrap(), JVal::Num(3.0));
        assert_eq!(parse("1e3").unwrap(), JVal::Num(1000.0));
        // `-0` keeps its sign.
        match parse("-0").unwrap() {
            JVal::Num(z) => assert_eq!(z.to_bits(), (-0.0f64).to_bits()),
            other => panic!("-0 parsed as {other:?}"),
        }
        assert_eq!(JVal::Int(-7).as_f64(), Some(-7.0));
        assert_eq!(JVal::Int(-7).as_u64(), None);
        assert_eq!(JVal::Int(i64::MAX).as_u64(), Some(i64::MAX as u64));
    }

    #[test]
    fn ints_and_whole_floats_render_alike() {
        assert_eq!(JVal::Int(3).render(), JVal::Num(3.0).render());
        assert_eq!(JVal::Int(i64::MIN).render(), "-9223372036854775808");
        assert_eq!(JVal::Num(-0.0).render(), "-0");
        assert_eq!(JVal::Num(f64::NEG_INFINITY).render(), "null");
        assert_eq!(JVal::from(u64::MAX).render(), "18446744073709552000");
        assert_eq!(JVal::from(None::<usize>).render(), "null");
        assert_eq!(JVal::from(Some(5usize)), JVal::Int(5));
    }
}
