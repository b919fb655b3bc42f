//! A tiny hand-rolled JSON writer *and reader* (no third-party deps are
//! available in the build environment).
//!
//! Only what the sweep and conformance artifacts need: objects, arrays,
//! strings, integers and floats. Output is deterministic — fields
//! appear exactly in insertion order — which keeps `BENCH_sweep.json`
//! diffable across runs. The reader ([`parse`]) exists so CI can load
//! the *committed* artifact and fail the build when regenerated
//! simulated metrics drift; numbers are kept as raw tokens until asked
//! for, so 64-bit seeds survive without a float round-trip.

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// An incrementally built JSON object.
#[derive(Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds a pre-serialized JSON value under `key`.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let v = string(value);
        self.raw(key, v)
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a float field (non-finite values serialize as `null`).
    pub fn f64(self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.raw(key, v)
    }

    /// Serializes the object.
    pub fn build(&self) -> String {
        let inner: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), v))
            .collect();
        format!("{{{}}}", inner.join(", "))
    }
}

/// Serializes an array of pre-serialized JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let inner: Vec<String> = items.into_iter().collect();
    format!("[{}]", inner.join(", "))
}

/// A parsed JSON value.
///
/// Numbers keep their raw source token ([`Value::Num`]) and only
/// convert on access: `as_u64` must not lose precision on 64-bit seeds,
/// which a mandatory `f64` representation would.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw source token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a numeric token that
    /// parses as one (exact — no float round-trip).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry the byte offset they occurred
/// at.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {start}"));
            }
            let raw = std::str::from_utf8(&bytes[start..*pos])
                .unwrap()
                .to_string();
            raw.parse::<f64>()
                .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
            Ok(Value::Num(raw))
        }
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit} at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences arrive
                // from our own writer unescaped).
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid utf-8 at byte {}", *pos))?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let obj = Object::new()
            .str("name", "a \"quoted\"\nline")
            .u64("count", 3)
            .f64("ratio", 0.5)
            .raw("list", array(["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            obj,
            r#"{"name": "a \"quoted\"\nline", "count": 3, "ratio": 0.500000, "list": [1, 2]}"#
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert!(Object::new().f64("x", f64::NAN).build().contains("null"));
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let doc = Object::new()
            .str("name", "a \"quoted\"\nline")
            .u64("seed", 16051688110891259512) // > 2^53: must stay exact
            .f64("ratio", 0.5)
            .raw("list", array(["1".to_string(), "true".to_string()]))
            .raw("none", "null")
            .build();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(16051688110891259512));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.5));
        let list = v.get("list").unwrap().as_arr().unwrap();
        assert_eq!(list[0].as_u64(), Some(1));
        assert_eq!(list[1], Value::Bool(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "12 34", "{\"a\":}", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse(" {\"a\": [ ] } ").is_ok());
    }

    #[test]
    fn parse_committed_artifact_shape() {
        // The committed BENCH_sweep.json must stay loadable by this
        // parser — CI's drift check depends on it.
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_sweep.json"
        ))
        .expect("committed artifact readable");
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("tsocc-sweep-baseline/v2")
        );
        let points = v.get("points").and_then(Value::as_arr).unwrap();
        assert!(points.len() >= 8);
        assert!(points[0].get("cycles").and_then(Value::as_u64).is_some());
    }
}
