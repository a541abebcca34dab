//! # minijson — the workspace's one JSON module: value, reader, writer
//!
//! Every JSON document the repo produces or consumes goes through the
//! [`Json`] value defined here: the `repro` experiment files and the
//! committed `BENCH_*.json` baselines, the runtime's telemetry, and
//! the flight recorder's Chrome trace export. Producers build a value
//! tree with the `From` impls plus [`obj`]/[`arr`] and render it with
//! [`Json::render_pretty`] (two-space indent) or
//! [`Json::render_compact`]; consumers read it back with
//! [`parse_json`], a strict recursive-descent parser — unknown syntax
//! is an error, not a guess.
//!
//! Objects keep insertion order. Integers are exact: a literal without
//! `.`, `e` or `E` parses as [`Json::Int`] (an `i128`, so every `u64`
//! counter survives), anything else as [`Json::Num`]. A float with an
//! integral value renders without a decimal point and so re-parses as
//! an `Int`; [`Json::as_f64`] reads either.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (rendered without a decimal point).
    Int(i128),
    /// Float (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

macro_rules! impl_json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json { Json::Int(v as i128) }
        }
    )*};
}
impl_json_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Builds an array from values.
pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(values.into_iter().collect())
}

impl Json {
    /// Object field lookup (None on missing key or non-object).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of an `Int` or a `Num`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object field names, in document order (empty for non-objects).
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Convenience: `point.num("speedup")` with a named error.
    ///
    /// # Errors
    /// Returns the missing key's name when absent or non-numeric.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{key}`"))
    }

    /// Pretty-prints with two-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }

    /// Renders on one line with no whitespace between tokens.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// `depth` is the current indent level, or `None` for compact output.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                render_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Obj(pairs) => {
                render_seq(
                    out,
                    depth,
                    ['{', '}'],
                    pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
                );
            }
        }
    }
}

/// Renders an array (keys `None`) or object body between `brackets`.
fn render_seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    if items.len() == 0 {
        out.push(close);
        return;
    }
    let inner = depth.map(|d| d + 1);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        if let Some(key) = key {
            escape_into(key, out);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.render(out, inner);
    }
    if let Some(d) = depth {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Parses a complete JSON document; trailing garbage is an error.
///
/// # Errors
/// Returns a byte-positioned message on any syntax violation.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Integer literals (no `.`, `e` or `E`) parse exactly as `Int`; an
/// integer too wide for `i128`, and every other literal, as `Num`.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII slice");
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        // Surrogate pairs never appear in our tooling's
                        // output; map them to U+FFFD rather than guess.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through verbatim.
                let len = utf8_len(c);
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_tooling_subset() {
        let json = parse_json(
            r#"{"experiment":"coldstart","n":3,"f":1.5,"neg":-2e3,
                "ok":true,"no":false,"nil":null,
                "arr":[1,2,3],"nested":{"s":"a\"b\\c\nA"}}"#,
        )
        .expect("parses");
        assert_eq!(json.get("experiment").and_then(Json::as_str), Some("coldstart"));
        assert_eq!(json.get("n"), Some(&Json::Int(3)));
        assert_eq!(json.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(json.get("f"), Some(&Json::Num(1.5)));
        assert_eq!(json.get("neg"), Some(&Json::Num(-2000.0)));
        assert_eq!(json.get("arr").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            json.get("nested").and_then(|n| n.get("s")).and_then(Json::as_str),
            Some("a\"b\\c\nA")
        );
    }

    #[test]
    fn parser_rejects_torn_documents() {
        for bad in [r#"{"a":1"#, "[1,2", r#"{"a"}"#, "{} trailing", r#""unterminated"#] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn keys_preserve_document_order() {
        let json = parse_json(r#"{"z":1,"a":2,"m":3}"#).expect("parses");
        assert_eq!(json.keys(), ["z", "a", "m"]);
        assert_eq!(Json::Null.keys(), Vec::<&str>::new());
    }

    #[test]
    fn num_names_its_missing_key() {
        let json = parse_json(r#"{"present":1.25}"#).expect("parses");
        assert_eq!(json.num("present"), Ok(1.25));
        assert!(json.num("absent").unwrap_err().contains("absent"));
    }

    #[test]
    fn json_renders_all_shapes() {
        let v = obj([
            ("x", 7u32.into()),
            ("name", "a \"quoted\" name".into()),
            ("share", 0.5.into()),
            ("bad", f64::NAN.into()),
            ("flag", true.into()),
            ("none", Json::Null),
            ("list", arr([1u32.into(), 2u32.into()])),
            ("empty", arr([])),
        ]);
        let s = v.render_pretty();
        assert!(s.contains("\"x\": 7"), "{s}");
        assert!(s.contains("\\\"quoted\\\""), "{s}");
        assert!(s.contains("\"share\": 0.5"), "{s}");
        assert!(s.contains("\"bad\": null"), "{s}");
        assert!(s.contains("\"flag\": true"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
    }

    #[test]
    fn wide_integers_round_trip_exactly() {
        for (value, text) in [
            (Json::from(u64::MAX), "18446744073709551615"),
            (Json::from(i128::MIN), "-170141183460469231731687303715884105728"),
        ] {
            assert_eq!(value.render_compact(), text);
            assert_eq!(parse_json(text), Ok(value), "{text} re-parses without f64 rounding");
        }
        // Past i128 the literal still parses, as a float.
        assert_eq!(parse_json(&format!("1{}", "0".repeat(40))), Ok(Json::Num(1e40)));
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "ctl\u{1f} quote\" back\\ nl\n tab\t cr\r é";
        let rendered = Json::from(s).render_compact();
        assert!(rendered.contains("\\u001f") && !rendered.contains('\n'), "{rendered}");
        assert_eq!(parse_json(&rendered), Ok(Json::from(s)));
    }

    #[test]
    fn compact_and_pretty_parse_to_the_same_value() {
        let v = obj([
            ("n", 1u8.into()),
            ("f", (-0.25).into()),
            ("inf", f64::NEG_INFINITY.into()),
            ("list", arr([Json::Null, arr([]), obj::<&str>([]), vec![1i64, -2].into()])),
        ]);
        let compact = v.render_compact();
        assert_eq!(compact, r#"{"n":1,"f":-0.25,"inf":null,"list":[null,[],{},[1,-2]]}"#);
        assert_eq!(parse_json(&compact), parse_json(&v.render_pretty()));
    }
}
