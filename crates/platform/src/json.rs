//! A small JSON model, parser, and writer, plus derive-free
//! [`ToJson`]/[`FromJson`] traits.
//!
//! Design notes:
//! * Integers keep their own variants ([`Json::U64`]/[`Json::I64`])
//!   instead of being folded into `f64`: trace addresses such as
//!   `0xffff_8800_0000_0000` exceed the 2^53 integer precision of a
//!   double and must round-trip exactly.
//! * Objects are ordered (`Vec<(String, Json)>`): serializing the same
//!   value twice yields byte-identical text, which the golden pipeline
//!   test relies on.
//! * The parser is a recursive-descent reader over bytes with a byte
//!   offset in every error and a nesting-depth limit, so malformed or
//!   adversarial input fails cleanly (exercised by the robustness tests).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Unsigned view; accepts `U64` and non-negative `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Signed view; accepts `I64` and in-range `U64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) if *n <= i64::MAX as u64 => Some(*n as i64),
            _ => None,
        }
    }

    /// Floating view; any numeric variant widens.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Json::Arr(_))
    }

    /// Single-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Multi-line rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` emits the shortest representation that parses back to
        // the same bits, so floats round-trip exactly.
        out.push_str(&format!("{x:?}"));
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

/// A parse or decode failure: message plus byte offset (parse only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub offset: usize,
}

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            offset: 0,
        }
    }

    fn at(msg: impl Into<String>, offset: usize) -> Self {
        Self {
            msg: msg.into(),
            offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::at("trailing data after document", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected '{word}'"), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        match self.peek() {
            None => Err(JsonError::at("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::at(
                format!("unexpected byte 0x{b:02x}"),
                self.pos,
            )),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => {
                            return Err(JsonError::at("invalid escape", start));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(
                        "unescaped control character in string",
                        self.pos,
                    ));
                }
                Some(_) => {
                    // Copy a maximal run of plain bytes in one step. The
                    // run delimiters (`"`, `\`, control bytes) are all
                    // ASCII and UTF-8 continuation bytes are >= 0x80, so
                    // the run ends on a scalar boundary; the input is
                    // &str, so the run itself is valid UTF-8.
                    let run_start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                        .map_err(|_| JsonError::at("invalid utf-8", run_start))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the trailing \uXXXX low half.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code)
                        .ok_or_else(|| JsonError::at("invalid surrogate pair", self.pos));
                }
            }
            return Err(JsonError::at("lone high surrogate", self.pos));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(JsonError::at("lone low surrogate", self.pos));
        }
        char::from_u32(hi).ok_or_else(|| JsonError::at("invalid \\u escape", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::at("bad hex digit in \\u escape", self.pos))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(JsonError::at("expected digit", self.pos));
        }
        // Leading zero must not be followed by more digits.
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("leading zero", start));
            }
        } else {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("expected digit after '.'", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at("expected digit in exponent", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::I64(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            // Integer overflow: widen to f64 like other parsers do.
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::at("invalid number", start))
    }
}

/// Conversion into a [`Json`] value. Replaces `#[derive(Serialize)]`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value. Replaces `#[derive(Deserialize)]`.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value to the pretty text form.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().pretty()
}

/// Parses text and decodes it into `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Fetches a required object member.
pub fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, JsonError> {
    v.get(name)
        .ok_or_else(|| JsonError::new(format!("missing field '{name}'")))
}

/// Decodes a required object member into `T`.
pub fn decode_field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    T::from_json(field(v, name)?).map_err(|e| JsonError::new(format!("field '{name}': {}", e.msg)))
}

macro_rules! impl_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| JsonError::new("expected unsigned integer"))?;
                <$t>::try_from(n).map_err(|_| JsonError::new("integer out of range"))
            }
        }
    )*};
}

macro_rules! impl_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let n = *self as i64;
                if n >= 0 {
                    Json::U64(n as u64)
                } else {
                    Json::I64(n)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| JsonError::new("expected integer"))?;
                <$t>::try_from(n).map_err(|_| JsonError::new("integer out of range"))
            }
        }
    )*};
}

impl_json_unsigned!(u8, u16, u32, u64, usize);
impl_json_signed!(i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for std::sync::Arc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for std::sync::Arc<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(std::sync::Arc::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(inner) => inner.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new("expected 2-element array")),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::new("expected 3-element array")),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::new("expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<T: ToJson + Ord> ToJson for std::collections::BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for std::collections::BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.compact(), text);
        }
    }

    #[test]
    fn big_u64_round_trips_exactly() {
        let addr = 0xffff_8800_0000_0000u64;
        let text = Json::U64(addr).compact();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(addr));
        let max = Json::U64(u64::MAX).compact();
        assert_eq!(parse(&max).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_round_trips_shortest_repr() {
        let x = 0.361_363_443_319_081_3_f64;
        let text = Json::F64(x).compact();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj(vec![("zebra", Json::U64(1)), ("apple", Json::U64(2))]);
        assert_eq!(v.compact(), r#"{"zebra":1,"apple":2}"#);
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_stable_and_reparses() {
        let v = Json::obj(vec![
            (
                "groups",
                Json::Arr(vec![Json::obj(vec![("n", Json::U64(3))])]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let a = v.pretty();
        let b = v.pretty();
        assert_eq!(a, b);
        assert_eq!(parse(&a).unwrap(), v);
        assert!(a.contains("\n  \"groups\": [\n"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}ü→";
        let text = Json::Str(s.to_owned()).compact();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for text in [
            "",
            "{",
            "[",
            "\"",
            "{]",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "tru",
            "nul",
            "+1",
            "--1",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\x\"",
            "1 2",
            "{\"a\":1,}",
            "\u{7}",
        ] {
            assert!(parse(text).is_err(), "accepted malformed: {text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": tru}").unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn trait_impls_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = v.to_json().compact();
        assert_eq!(from_str::<Vec<Option<u32>>>(&text).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert("k".to_owned(), -5i64);
        let text = m.to_json().compact();
        assert_eq!(from_str::<BTreeMap<String, i64>>(&text).unwrap(), m);

        let pair = ("name".to_owned(), 9u64);
        let text = pair.to_json().compact();
        assert_eq!(from_str::<(String, u64)>(&text).unwrap(), pair);
    }

    #[test]
    fn out_of_range_decode_fails() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<bool>("1").is_err());
    }
}
