//! A minimal hand-rolled JSON value, encoder, and recursive-descent parser.
//!
//! The build environment resolves crates offline, so `serde_json` is out of
//! reach; this module covers exactly what the wire protocol needs:
//!
//! * Deterministic encoding — object members keep insertion order, and
//!   numbers print via Rust's `Display` for `f64`, which is
//!   shortest-round-trip: `encode(parse(s))` preserves every finite value
//!   bit for bit. That property is what lets the server report MAE values
//!   that compare *exactly* equal to batch runs on the client side.
//! * Byte writers (`write_f64`, `write_u64`, `write_str`, …) shared by the
//!   tree encoder and the streaming reply encoder
//!   ([`crate::protocol::Response::encode_into`]), so a reply streamed
//!   into bytes and the same reply built as a tree print identically.
//! * A strict parser: full escape handling (including `\uXXXX` surrogate
//!   pairs), a nesting-depth cap so adversarial input cannot blow the
//!   stack, and rejection of non-finite or trailing input.

#![expect(
    clippy::indexing_slicing,
    reason = "the hand-rolled parser maintains pos <= bytes.len() at every advance; slicing bytes[pos..] at the boundary yields an empty slice, not a panic"
)]

use std::io::Write as _;

/// Maximum nesting depth the parser accepts. Deep enough for any protocol
/// message, shallow enough that malformed input cannot overflow the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
///
/// Objects are insertion-ordered `(key, value)` vectors rather than maps:
/// the protocol never holds more than a dozen members, linear lookup wins,
/// and encoding stays deterministic. Duplicate keys are kept as parsed;
/// [`Json::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// First member named `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, when it is one exactly
    /// (non-negative, integral, within `u64` precision).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        let integral = n.total_cmp(&n.trunc()) == std::cmp::Ordering::Equal;
        if integral && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "n is integral and lies in [0, 2^53], so it converts to u64 exactly"
            )]
            let n = n as u64;
            Some(n)
        } else {
            None
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes to compact JSON (no whitespace, `\n`-free — one value fits
    /// one protocol line).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write_into(&mut out);
        utf8_string(out)
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_array(out, items, |out, v| v.write_into(out)),
            Json::Obj(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write_into(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses one JSON value from `input`; the whole input must be consumed
    /// (trailing whitespace allowed).
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after value"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Byte writers shared by the tree encoder above and the streaming reply
// encoder (`Response::encode_into`), so both print every value identically.
// ---------------------------------------------------------------------------

/// 2^53: every integer below it converts to `f64` exactly, so its decimal
/// digits are what `Display` prints for the converted `f64`.
const F64_EXACT_INT_LIMIT: u64 = 1 << 53;

/// Appends `true` or `false`.
pub(crate) fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `n` as a JSON number, or `null` when it is not finite (JSON has
/// no NaN/Inf; degrade rather than emit an unparseable token).
pub(crate) fn write_f64(out: &mut Vec<u8>, n: f64) {
    if n.is_finite() {
        // `Display` for f64 is shortest-round-trip and never uses exponent
        // notation, so the output re-parses to the identical bits. Writing
        // into a `Vec` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends `n` exactly as [`write_f64`] prints `n as f64` — the wire has
/// one number type. Below 2^53 those are the integer's own digits; at or
/// above it the `f64` rounds, and so does the printed value.
pub(crate) fn write_u64(out: &mut Vec<u8>, n: u64) {
    if n < F64_EXACT_INT_LIMIT {
        let _ = write!(out, "{n}");
    } else {
        write_f64(out, n as f64);
    }
}

/// Appends `s` as a JSON string. Runs of bytes that need no escape are
/// copied in bulk; only `"`, `\` and the C0 controls are escaped (bytes
/// of multi-byte UTF-8 scalars are all >= 0x80 and pass through).
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s.as_bytes();
    out.push(b'"');
    while let Some(i) = rest
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.extend_from_slice(&rest[..i]);
        match rest[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0c => out.extend_from_slice(b"\\f"),
            b => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0x0f)],
            ]),
        }
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

/// Appends `[e0,e1,…]`, writing each element with `each`.
pub(crate) fn write_array<T>(out: &mut Vec<u8>, items: &[T], each: impl FnMut(&mut Vec<u8>, &T)) {
    out.push(b'[');
    write_joined(out, items, each);
    out.push(b']');
}

/// Appends `e0,e1,…` — an array's elements without its brackets — writing
/// each element with `each`.
pub(crate) fn write_joined<T>(
    out: &mut Vec<u8>,
    items: &[T],
    mut each: impl FnMut(&mut Vec<u8>, &T),
) {
    if let Some((head, tail)) = items.split_first() {
        each(out, head);
        for item in tail {
            out.push(b',');
            each(out, item);
        }
    }
}

/// The encoders write only whole `&str`s and ASCII, so the bytes are always
/// UTF-8; the lossy arm exists so that this never needs a panic path.
pub(crate) fn utf8_string(bytes: Vec<u8>) -> String {
    match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so bounds
                    // align with character boundaries).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let Some(c) = s.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one digit, or a nonzero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(self.err("number out of range"))
        }
    }
}

/// The encoder as it stood before the byte writers: `format!` per number
/// and a char-by-char escaper over a `String`. Kept as an independent
/// oracle, so a fault in the shared writers cannot hide by changing the
/// tree and the stream alike.
#[cfg(test)]
pub(crate) fn reference_encode(v: &Json) -> String {
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn value(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    value(item, out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, item)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    value(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    value(v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in ["null", "true", "false", "0", "-1", "3.25", "1e3", "\"hi\""] {
            let v = Json::parse(src).expect("parses");
            let enc = v.encode();
            assert_eq!(Json::parse(&enc).expect("re-parses"), v, "{src}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, -0.0, 1.0 / 3.0, 0.1, 1e300, 5e-324, 123456789.123456] {
            let enc = Json::Num(n).encode();
            let back = Json::parse(&enc).expect("parses").as_f64().expect("num");
            assert_eq!(back.to_bits(), n.to_bits(), "{n} via {enc}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{08}\u{0c}\u{1f}héllo 😀";
        let enc = Json::Str(s.to_string()).encode();
        assert_eq!(
            Json::parse(&enc).expect("parses").as_str(),
            Some(s),
            "{enc}"
        );
    }

    #[test]
    fn byte_writers_match_the_reference_encoder() {
        let every_ascii: String = (0u8..=0x7f).map(char::from).collect();
        let values = [
            Json::Str(every_ascii),
            Json::Str("héllo 😀 \u{10ffff} \u{7f}\u{80}\u{7ff}\u{800}\u{ffff}".to_string()),
            Json::Str(String::new()),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
            Json::Arr(vec![
                Json::Num(f64::NAN),
                Json::Num(f64::NEG_INFINITY),
                Json::Num(-0.0),
                Json::Num(9_007_199_254_740_994.0),
                Json::Num(u64::MAX as f64),
                Json::Num(5e-324),
                Json::Num(1e300),
            ]),
            Json::obj(vec![("k\"\u{1}", Json::Bool(false)), ("", Json::Null)]),
        ];
        for v in values {
            assert_eq!(v.encode(), reference_encode(&v), "{v:?}");
        }
    }

    #[test]
    fn integers_print_as_their_f64() {
        for n in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, n);
            assert_eq!(out, Json::Num(n as f64).encode().into_bytes(), "{n}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").expect("parses");
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn objects_keep_order_and_first_duplicate_wins() {
        let v = Json::parse("{\"b\":1,\"a\":2,\"b\":3}").expect("parses");
        assert_eq!(v.encode(), "{\"b\":1,\"a\":2,\"b\":3}");
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn malformed_inputs_error() {
        for src in [
            "", "tru", "nul", "[1,", "{\"a\"", "{\"a\":}", "01", "1.", "1e", "-", "\"abc",
            "\"\\x\"", "[1]]", "{}{}", "\u{0}",
        ] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn depth_cap_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_accepts_only_exact_integers() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
    }
}
