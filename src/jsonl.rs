//! A minimal, dependency-free JSON reader/writer for the `tdq batch`
//! JSONL interface.
//!
//! The build environment has no registry access (no `serde`), and the
//! batch corpus format only needs objects, arrays, strings, numbers,
//! booleans and `null` — so this module implements exactly RFC 8259's
//! value grammar with a recursive-descent parser and a string escaper, and
//! nothing more. Numbers are carried as `f64` (every count the batch
//! interface emits fits losslessly).
//!
//! Errors are structured: every [`JsonError`] carries the 0-based byte
//! offset where parsing failed, so `tdq batch` can report
//! `line 7, byte 12: …` for a bad corpus line. A top-level value followed
//! by anything but whitespace — `{"a":1} {"a":2}` crammed onto one JSONL
//! line, a stray `]`, a second scalar — is rejected as trailing garbage,
//! never silently ignored.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects: the parser
//! recurses once per level, and a client line of a few thousand `[` would
//! otherwise overflow the stack, which aborts the whole process rather
//! than failing the one line.

// The serve layer feeds this parser raw client bytes: everything here
// must degrade to a structured `JsonError`, never a panic. The td-lint
// panic-path pass enforces the same rule lexically; this clippy pair
// keeps `cargo clippy` aligned with it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: the
/// bracket that would open level `MAX_DEPTH + 1` is a parse error.
pub const MAX_DEPTH: usize = 64;

/// A JSON parse error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 0-based byte offset into the parsed text.
    pub byte: usize,
    /// Human-readable description.
    pub msg: String,
}

impl JsonError {
    fn new(byte: usize, msg: impl Into<String>) -> Self {
        Self {
            byte,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.byte, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in declaration order (duplicate keys keep the first
    /// occurrence on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace after the
    /// value — a second value, a stray bracket, any garbage — is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new(
                pos,
                "trailing garbage after the top-level value",
            ));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number
    /// that `f64` represents exactly.
    ///
    /// The upper bound is strict: `u64::MAX as f64` rounds **up** to 2^64,
    /// so a `<=` guard would accept the out-of-range `18446744073709551616`
    /// and saturate it to `u64::MAX`. The round-trip check rejects any
    /// residue of that rounding — every in-range `f64` with `fract() == 0`
    /// is an exact integer, so for them `n as u64 as f64 == n` holds and
    /// nothing representable is turned away.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0; // 2^64, exact
        match *self {
            Json::Num(n)
                if n >= 0.0 && n.fract() == 0.0 && n < TWO_POW_64 && (n as u64) as f64 == n =>
            {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace), the writer the
    /// NDJSON reply stream uses. Integral numbers inside the `f64`-exact
    /// range print without a fractional part (`3`, not `3.0`), so counts
    /// round-trip through [`Json::as_u64`]; non-finite numbers (which RFC
    /// 8259 cannot represent) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= EXACT {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::new(
            *pos,
            format!("expected `{}`", char::from(b)),
        ))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::new(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} arrays and objects"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(JsonError::new(
            *pos,
            format!("unexpected character `{}`", char::from(c)),
        )),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(word.as_bytes()))
    {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::new(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let raw = bytes.get(start..*pos).unwrap_or_default();
    let text = std::str::from_utf8(raw).map_err(|_| JsonError::new(start, "invalid number"))?;
    // RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // — f64::parse alone is laxer (it accepts `.5`, `1.`, `+1`), so the
    // shape is checked first.
    let bad = || JsonError::new(start, format!("invalid number `{text}`"));
    let mut rest = text.strip_prefix('-').unwrap_or(text).as_bytes();
    match rest {
        [b'0', tail @ ..] => rest = tail,
        [b'1'..=b'9', ..] => {
            while let [b'0'..=b'9', tail @ ..] = rest {
                rest = tail;
            }
        }
        _ => return Err(bad()),
    }
    if let [b'.', tail @ ..] = rest {
        rest = tail;
        if !matches!(rest, [b'0'..=b'9', ..]) {
            return Err(bad());
        }
        while let [b'0'..=b'9', tail @ ..] = rest {
            rest = tail;
        }
    }
    if let [b'e' | b'E', tail @ ..] = rest {
        rest = tail;
        if let [b'+' | b'-', tail @ ..] = rest {
            rest = tail;
        }
        if !matches!(rest, [b'0'..=b'9', ..]) {
            return Err(bad());
        }
        while let [b'0'..=b'9', tail @ ..] = rest {
            rest = tail;
        }
    }
    if !rest.is_empty() {
        return Err(bad());
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| bad())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new(*pos, "truncated \\u escape"))?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(JsonError::new(*pos, "bad \\u escape"));
                        }
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed by the batch
                        // format; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Consume one UTF-8 scalar. The width comes from the
                // leading byte, so only that scalar is validated — not the
                // whole remaining input per character (which made long
                // strings quadratic).
                let width = match b {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + width)
                    .ok_or_else(|| JsonError::new(*pos, "truncated UTF-8 sequence"))?;
                let scalar =
                    std::str::from_utf8(chunk).map_err(|e| JsonError::new(*pos, e.to_string()))?;
                out.push_str(scalar);
                *pos += width;
            }
        }
    }
}

/// Parses the array at `pos`, which opens nesting level `depth`.
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::new(*pos, "expected `,` or `]`")),
        }
    }
}

/// Parses the object at `pos`, which opens nesting level `depth`.
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(JsonError::new(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_batch_shaped_line() {
        let j = Json::parse(
            r#"{"id": "q1", "alphabet": ["A0", "A1", "0"], "eqs": ["A1 A1 = A0"], "n": 3}"#,
        )
        .unwrap();
        assert_eq!(j.get("id").and_then(Json::as_str), Some("q1"));
        let alphabet = j.get("alphabet").and_then(Json::as_array).unwrap();
        assert_eq!(alphabet.len(), 3);
        assert_eq!(alphabet[2].as_str(), Some("0"));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn scalars_and_nesting() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse("[[],{}]").unwrap(),
            Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])])
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let j = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\nd\u{41}"));
        let s = "quote\" back\\ nl\n tab\t ctrl\u{1}";
        let reparsed = Json::parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(reparsed.as_str(), Some(s));
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing tokens rejected");
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn trailing_garbage_after_top_level_values_is_rejected() {
        // Two values crammed onto one JSONL line must not be half-read.
        for bad in [
            r#"{"a":1} {"a":2}"#,
            r#"{"a":1}]"#,
            "[1,2] x",
            "\"str\" \"str2\"",
            "null,",
            "true[]",
            "7 // comment",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(
                err.msg.contains("trailing garbage"),
                "{bad}: wrong error {err}"
            );
        }
        // Trailing whitespace alone stays fine.
        assert!(Json::parse("{\"a\": 1}  \t ").is_ok());
    }

    #[test]
    fn errors_carry_byte_positions() {
        let err = Json::parse(r#"{"a":1} oops"#).unwrap_err();
        assert_eq!(err.byte, 8, "{err}");
        assert_eq!(
            err.to_string(),
            "byte 8: trailing garbage after the top-level value"
        );
        let err = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(err.byte, 5, "{err}");
        let err = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(err.byte, 4, "{err}");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // Exactly MAX_DEPTH levels parse, arrays and objects alike.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        // One more level fails at the bracket that opens it, and so does a
        // line far too deep to recurse through.
        for (text, byte) in [
            (format!("[{deepest}]"), MAX_DEPTH),
            (format!(r#"{{"a":{objects}}}"#), 5 * MAX_DEPTH),
            (" [".repeat(30_000), 2 * MAX_DEPTH + 1),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert_eq!(err.byte, byte, "{err}");
            assert!(err.msg.contains("nesting deeper than 64"), "{err}");
        }
    }

    #[test]
    fn render_roundtrips_and_is_compact() {
        for text in [
            r#"{"id":"q1","alphabet":["A0","A1","0"],"eqs":[],"n":3,"ok":true,"x":null}"#,
            r#"[1,2.5,-3,"s\nt",[],{}]"#,
            "null",
            "-25",
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed.render(), text, "compact form is canonical");
            assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed);
        }
        // Integral f64s print as integers; non-finite degrade to null.
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::from(7u64).render(), "7");
        assert_eq!(Json::from("a\"b").render(), "\"a\\\"b\"");
        assert_eq!(Json::Bool(false).as_bool(), Some(false));
        assert_eq!(Json::Null.as_bool(), None);
    }

    #[test]
    fn non_integral_numbers_are_not_u64() {
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    }

    /// Regression: the old guard `n <= u64::MAX as f64` compared against
    /// 2^64 (the nearest `f64` to `u64::MAX`, rounded up), so the
    /// out-of-range literal `18446744073709551616` slipped through and
    /// saturated to `Some(u64::MAX)`.
    #[test]
    fn as_u64_range_boundaries() {
        // Around 2^53, the edge of contiguous integer representability:
        // all three neighbours are exact f64 values and in range.
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        // 2^53 + 1 is not representable; the parsed f64 is exactly 2^53,
        // which as_u64 faithfully (and exactly) converts.
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Some(1 << 53)
        );

        // u64::MAX − 1 and u64::MAX both round up to 2^64 when parsed:
        // out of range, never saturated.
        assert_eq!(Json::parse("18446744073709551614").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), None);
        // 2^64 itself: the bug's headline case.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);

        // The largest u64 an f64 can hold exactly: 2^64 − 2^11.
        assert_eq!(
            Json::parse("18446744073709549568").unwrap().as_u64(),
            Some(u64::MAX - 2047)
        );
        assert_eq!(
            Json::Num((u64::MAX - 2047) as f64).as_u64(),
            Some(u64::MAX - 2047)
        );
        // Powers of two near the top are exact and accepted.
        assert_eq!(
            Json::parse("9223372036854775808").unwrap().as_u64(),
            Some(1 << 63)
        );
    }

    #[test]
    fn rfc_number_grammar_enforced() {
        // Valid per RFC 8259.
        for ok in ["0", "-0", "10", "0.5", "-2.25", "1e3", "1E+3", "2.5e-1"] {
            assert!(Json::parse(ok).is_ok(), "{ok} must parse");
        }
        // f64::parse would accept these, but JSON must not.
        for bad in [".5", "1.", "01", "+1", "1e", "1e+", "-", "0x1", "1.e3"] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
        // \u escapes require exactly four hex digits (no sign tolerance).
        assert!(Json::parse(r#""\u+12f""#).is_err());
        assert!(Json::parse(r#""\u012""#).is_err());
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }
}
