//! A tiny chainable JSON object builder and a matching recursive-descent
//! reader — the workspace has no serde, and the report emitters only ever
//! need flat objects with a couple of nested raw values.
//! [`JsonValue::parse`] is the read side: it covers exactly the JSON this
//! module writes (escaped strings, numbers, bools, null, objects, arrays),
//! which is what the ruler's `benchmark compare` reads its reports with.

/// Appends `s` to `buf` with JSON string escaping (quotes not included).
pub(crate) fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

/// Serializes an `f64` as a JSON value. JSON has no NaN/Infinity, so
/// non-finite values become `null`; Rust's `Display` for finite floats
/// never uses exponent notation, which keeps the output valid JSON.
pub(crate) fn f64_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builder for one JSON object. Methods consume and return `self` so
/// emitters read as a single chain ending in [`JsonObj::finish`].
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    any: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn field_str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn field_f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&f64_value(v));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim — for nested arrays or
    /// objects the caller assembled (the caller vouches for its validity).
    pub fn field_raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value. Object fields keep their source order (a `Vec`,
/// not a map) so readers can report the first offending key
/// deterministically.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (64-bit floats are all this workspace emits).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing bytes are an error).
    /// Errors are human-readable with a byte offset.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Looks up a field of an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The fields of an object, in source order.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn items(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Minimal recursive-descent JSON parser — enough to read back the JSON
/// this module generates.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b't') => self.lit("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.lit("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.lit("null").map(|_| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x80 => {
                    if c < 0x20 {
                        return Err("raw control byte in string".into());
                    }
                    out.push(c as char);
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so decode one char.
                    let rest = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        txt.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {txt:?}"))
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = JsonValue::parse(r#"{"a":"x\n\"A","b":[1,-2.5,true,null],"c":{"d":{}}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("x\n\"A"));
        let b = v.get("b").and_then(JsonValue::items).unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(b[1].as_f64(), Some(-2.5));
        assert_eq!(b[2].as_bool(), Some(true));
        assert_eq!(b[3], JsonValue::Null);
        assert!(v
            .get("c")
            .unwrap()
            .get("d")
            .unwrap()
            .entries()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let s = JsonObj::new()
            .field_str("name", "a\\b\n\"c")
            .field_f64("qps", 1.25)
            .field_bool("ok", false)
            .finish();
        let v = JsonValue::parse(&s).unwrap();
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("a\\b\n\"c"));
        assert_eq!(v.get("qps").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(JsonValue::parse("nope").is_err());
        assert!(JsonValue::parse("{\"a\":1} extra").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn builds_flat_objects() {
        let s = JsonObj::new()
            .field_str("name", "scan")
            .field_u64("n", 42)
            .field_f64("qps", 1.5)
            .field_bool("ok", true)
            .field_raw("inner", "[1,2]")
            .finish();
        assert_eq!(
            s,
            r#"{"name":"scan","n":42,"qps":1.5,"ok":true,"inner":[1,2]}"#
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn escapes_strings() {
        let s = JsonObj::new().field_str("k\"ey", "a\\b\n\tc\u{1}").finish();
        assert_eq!(s, "{\"k\\\"ey\":\"a\\\\b\\n\\tc\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = JsonObj::new()
            .field_f64("nan", f64::NAN)
            .field_f64("inf", f64::INFINITY)
            .field_f64("tiny", 1e-9)
            .finish();
        assert_eq!(s, r#"{"nan":null,"inf":null,"tiny":0.000000001}"#);
    }
}
