//! A minimal, dependency-free JSON tree with a byte-stable emitter and a
//! recursive-descent parser.
//!
//! The workspace builds offline by policy, so run artifacts cannot lean on
//! serde. This module provides just enough JSON for the observability
//! layer: construct a [`Json`] tree, render it with [`Json::to_string`]
//! (compact) or [`Json::pretty`], and read it back with [`Json::parse`].
//!
//! Emission is deterministic: object members keep insertion order, and
//! floating-point numbers are rendered via Rust's shortest-roundtrip
//! `Display`, so `parse(emit(x))` re-emits byte-identically. That property
//! is what the artifact golden tests rely on.
//!
//! # Examples
//!
//! ```
//! use dynapar_engine::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("spawn")),
//!     ("cycles", Json::U64(1234)),
//!     ("speedup", Json::F64(1.75)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"spawn","cycles":1234,"speedup":1.75}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.to_string(), text);
//! ```

use std::fmt;

/// A parsed or constructed JSON value.
///
/// Integers keep their sign and width (`U64`/`I64`) rather than collapsing
/// to `f64`, so cycle counts survive round trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (parser only produces this for values < 0).
    I64(i64),
    /// Floating-point number (never NaN/infinite when emitted; those
    /// render as `null` since JSON cannot represent them).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered list of members (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up a member of an object by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers coerce losslessly enough for stats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders with two-space indentation for human consumption.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    /// Returns a copy with every object's members sorted by key,
    /// recursively (arrays keep their order — element order is data).
    ///
    /// This is the canonical form behind config hashing: two trees that
    /// differ only in member order emit identical bytes after
    /// `sorted()`, so a hash of `sorted().to_string()` is stable across
    /// field reordering. Duplicate keys keep their relative order
    /// (stable sort); the emitter never produces duplicates.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynapar_engine::json::Json;
    ///
    /// let a = Json::parse(r#"{"b":1,"a":{"d":2,"c":3}}"#).unwrap();
    /// let b = Json::parse(r#"{"a":{"c":3,"d":2},"b":1}"#).unwrap();
    /// assert_eq!(a.sorted().to_string(), b.sorted().to_string());
    /// ```
    pub fn sorted(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::sorted).collect()),
            Json::Obj(members) => {
                let mut sorted: Vec<(String, Json)> = members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.sorted()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            scalar => scalar.clone(),
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            text,
            bytes,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if !v.is_finite() {
                    return f.write_str("null");
                }
                // Force a decimal point or exponent so the value parses
                // back as F64, keeping round trips byte-stable.
                let s = format!("{v}");
                if s.contains(['.', 'e', 'E']) {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    write_escaped(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not produced by our emitter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = Json::parse(text).expect(text);
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(Json::parse("-3").unwrap(), Json::I64(-3));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        // 2.0 must not emit as "2" (which would parse back as U64).
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        let back = Json::parse("2.0").unwrap();
        assert_eq!(back, Json::F64(2.0));
        assert_eq!(back.to_string(), "2.0");
    }

    #[test]
    fn nonfinite_floats_emit_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn nested_structure_round_trips() {
        let doc = Json::obj([
            ("a", Json::arr([Json::U64(1), Json::Null, Json::Bool(true)])),
            ("b", Json::obj([("nested", Json::str("x\"y\\z"))])),
            ("c", Json::F64(0.125)),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z":1,"a":2}"#;
        assert_eq!(Json::parse(text).unwrap().to_string(), text);
    }

    #[test]
    fn accessors_navigate() {
        let doc = Json::parse(r#"{"k":[{"n":"x","v":3.5}]}"#).unwrap();
        let first = &doc.get("k").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("n").unwrap().as_str(), Some("x"));
        assert_eq!(first.get("v").unwrap().as_f64(), Some(3.5));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Json::Str("line1\nline2\t\"quoted\"\\\u{1}".to_string());
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn multibyte_text_mixes_with_every_escape() {
        // Two-, three- and four-byte characters directly before and after
        // each escape, so every plain run starts or ends on one.
        let text = r#""é\"漢\\🦀\/ü\nß\r€\t𝄞\bñ\f中éx中""#;
        let want = "é\"漢\\🦀/ü\nß\r€\t𝄞\u{8}ñ\u{c}中éx中";
        assert_eq!(Json::parse(text).unwrap(), Json::Str(want.to_string()));
        // Unpaired surrogates still map to the replacement character.
        assert_eq!(Json::parse(r#""a\ud800b""#).unwrap(), Json::Str("a\u{fffd}b".into()));
        // The emitter's output parses back to the same string.
        let doc = Json::Str(want.to_string());
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        for bad in [r#""é\q""#, r#""漢\u12""#, r#""🦀\u12zz""#, r#""ü"#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn one_mebibyte_string_member_parses() {
        // One wire line may hold 1 MiB. A parser that rescans the rest
        // of the input per character needs minutes for this; a linear
        // one needs milliseconds.
        let big: String = "aé漢🦀".repeat((1 << 20) / 10);
        let text = format!(r#"{{"spec":{}}}"#, Json::Str(big.clone()));
        assert!(text.len() >= 1 << 20);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("spec").and_then(Json::as_str), Some(big.as_str()));
    }

    #[test]
    fn whitespace_tolerated_on_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\":").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn sorted_normalizes_member_order_recursively() {
        let a = Json::parse(r#"{"z":{"b":1,"a":2},"m":[{"y":1,"x":2}],"a":0}"#).unwrap();
        let b = Json::parse(r#"{"a":0,"m":[{"x":2,"y":1}],"z":{"a":2,"b":1}}"#).unwrap();
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(
            a.sorted().to_string(),
            r#"{"a":0,"m":[{"x":2,"y":1}],"z":{"a":2,"b":1}}"#
        );
        // Array element order is data, never sorted.
        let arr = Json::parse("[3,1,2]").unwrap();
        assert_eq!(arr.sorted().to_string(), "[3,1,2]");
    }

    #[test]
    fn pretty_parses_back_to_same_value() {
        let doc = Json::obj([
            ("arr", Json::arr([Json::U64(1), Json::U64(2)])),
            ("obj", Json::obj([("k", Json::str("v"))])),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        let pretty = doc.pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }
}
