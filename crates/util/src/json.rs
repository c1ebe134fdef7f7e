//! A minimal JSON value, parser, and printer.
//!
//! Replaces `serde_json` for the workspace's needs: configuration files
//! ([`crate::json::Json::parse`] reports line/column for the pilot
//! study's "JSON syntax errors" class), trace JSONL serialisation, and
//! benchmark reports. Types that cross a JSON boundary implement
//! [`ToJson`]/[`FromJson`] by hand.
//!
//! Conventions mirror the formats the repo has always used: structs are
//! objects, unit enum variants are strings, data-carrying variants are
//! single-key objects (`{"Blocked": {"alert": "..."}}`).

use std::fmt;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] carrying the 1-based line and column of
    /// the first offending character.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.peek().is_some() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Serialises compactly (single line).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises pretty-printed with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's shortest-roundtrip float formatting; integral values
        // print without a fractional part and parse back exactly.
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/inf; `null` is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// A parse or decode error with a source position (1-based; decode
/// errors raised away from text carry line 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    line: usize,
    column: usize,
    message: String,
}

impl JsonError {
    /// A decode (schema-mismatch) error with no source position.
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            line: 0,
            column: 0,
            message: message.into(),
        }
    }

    /// 1-based line of the offending character (0 for decode errors).
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column of the offending character (0 for decode errors).
    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{} at line {} column {}",
                self.message, self.line, self.column
            )
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting in untrusted text
/// (config files, trace lines, campaign state) would overflow the stack;
/// beyond this depth it returns an error instead.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        let (mut line, mut column) = (1, 1);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble the UTF-8 sequence (input was &str, so
                    // it is valid by construction).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    self.pos = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low half.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.error("invalid unicode escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to JSON.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes `self` from JSON.
    ///
    /// # Errors
    ///
    /// Returns a decode [`JsonError`] when the value's shape does not
    /// match.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
            .ok_or_else(|| JsonError::decode(format!("expected bool, got {json}")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
            .ok_or_else(|| JsonError::decode(format!("expected number, got {json}")))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let n = f64::from_json(json)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(JsonError::decode(format!(
                "expected unsigned integer, got {n}"
            )));
        }
        Ok(n as usize)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(usize::from_json(json)? as u64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::decode(format!("expected string, got {json}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::decode(format!("expected array, got {json}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl ToJson for [f64; 3] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&v| Json::Num(v)).collect())
    }
}

impl FromJson for [f64; 3] {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items = json
            .as_arr()
            .ok_or_else(|| JsonError::decode(format!("expected [x, y, z], got {json}")))?;
        if items.len() != 3 {
            return Err(JsonError::decode(format!(
                "expected 3 coordinates, got {}",
                items.len()
            )));
        }
        Ok([
            f64::from_json(&items[0])?,
            f64::from_json(&items[1])?,
            f64::from_json(&items[2])?,
        ])
    }
}

/// Decodes a required object field.
///
/// # Errors
///
/// Returns a decode error if the key is missing or mistyped.
pub fn field<T: FromJson>(json: &Json, key: &str) -> Result<T, JsonError> {
    let v = json
        .get(key)
        .ok_or_else(|| JsonError::decode(format!("missing field '{key}'")))?;
    T::from_json(v).map_err(|e| JsonError::decode(format!("field '{key}': {e}")))
}

/// Decodes an optional object field (absent or `null` gives the default).
///
/// # Errors
///
/// Returns a decode error if the key is present but mistyped.
pub fn field_or_default<T: FromJson + Default>(json: &Json, key: &str) -> Result<T, JsonError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(T::default()),
        Some(v) => T::from_json(v).map_err(|e| JsonError::decode(format!("field '{key}': {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("3.25").unwrap(), Json::Num(3.25));
        assert_eq!(Json::parse("-1e3").unwrap(), Json::Num(-1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Far past any stack: parsing must fail with a position.
        for open in ["[", "{\"k\":"] {
            let text = open.repeat(1_000_000);
            let err = Json::parse(&text).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
            assert_eq!(err.line(), 1);
            assert_eq!(err.column(), MAX_NESTING * open.len() + 1);
        }
        // At the limit itself, both kinds still parse.
        let arrays = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&arrays).is_ok());
        let objects = format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_NESTING),
            "}".repeat(MAX_NESTING)
        );
        assert!(Json::parse(&objects).is_ok());
        let too_deep = format!("[{arrays}]");
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ \u{1F600} \u{08}".into());
        let text = original.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            Json::parse(r#""A😀""#).unwrap(),
            Json::Str("A\u{1F600}".into())
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = Json::parse("{\"a\": 1,\n \"b\" 2}").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.column() > 1);
        assert!(err.to_string().contains("line 2"));
        let err2 = Json::parse("[1, 2").unwrap_err();
        assert!(err2.line() >= 1);
        assert!(Json::parse("[1, 2] tail").is_err());
        assert!(Json::parse("{\"a\" : }").is_err());
    }

    #[test]
    fn compact_and_pretty_both_reparse() {
        let v = Json::obj([
            ("name", Json::Str("fleet".into())),
            ("runs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"runs\""));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for n in [0.0, -0.5, 1.0 / 3.0, 1e-12, 123456789.123456, 5.0] {
            let text = Json::Num(n).to_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(n), "{text}");
        }
        // Non-finite numbers degrade to null rather than invalid JSON.
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn field_helpers() {
        let v = Json::parse(r#"{"x": 3, "s": "hi", "opt": null}"#).unwrap();
        assert_eq!(field::<f64>(&v, "x").unwrap(), 3.0);
        assert_eq!(field::<String>(&v, "s").unwrap(), "hi");
        assert_eq!(field_or_default::<String>(&v, "opt").unwrap(), "");
        assert_eq!(field_or_default::<String>(&v, "absent").unwrap(), "");
        assert!(field::<f64>(&v, "absent").is_err());
        assert!(field::<f64>(&v, "s").is_err());
        let err = field::<f64>(&v, "missing").unwrap_err();
        assert_eq!(err.line(), 0);
    }

    #[test]
    fn vec_and_option_and_array_conversions() {
        let v = vec![1.0, 2.0, 3.0].to_json();
        assert_eq!(Vec::<f64>::from_json(&v).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(Option::<f64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_json(&Json::Num(2.0)).unwrap(),
            Some(2.0)
        );
        let p: [f64; 3] = [0.1, 0.2, 0.3];
        assert_eq!(<[f64; 3]>::from_json(&p.to_json()).unwrap(), p);
        assert!(<[f64; 3]>::from_json(&Json::parse("[1, 2]").unwrap()).is_err());
        assert!(usize::from_json(&Json::Num(-1.0)).is_err());
        assert!(usize::from_json(&Json::Num(1.5)).is_err());
        assert_eq!(u64::from_json(&Json::Num(7.0)).unwrap(), 7);
    }
}
