//! Hand-rolled JSON reading and writing shared by every layer that
//! serialises structured records (no external crates available).
//!
//! One implementation serves the metrics sink ([`crate::metrics`]), the
//! decision-provenance serialisation in `sagrid-simgrid`, the wire-level
//! control plane in `sagrid-net` and the `validate_metrics` checker. The
//! writer emits deterministic output (Rust's shortest-roundtrip float
//! formatting), and the parser accepts exactly what the writer produces
//! plus ordinary standard JSON.

use std::fmt::Write as _;

/// Appends `v` to `out` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is deterministic and
        // re-parses to the identical f64.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes and control characters.
pub fn write_json_string(out: &mut String, s: &str) {
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

/// Serialises an iterator of integers as a JSON array, e.g. `[1,2,3]`.
/// Used for id lists (node ids, cluster ids) in provenance records.
pub fn u64_array(items: impl Iterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a single JSON document. Errors carry a byte offset and a short
/// description.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Neither byte occurs inside a multi-byte scalar, so the run
                // ends on a scalar boundary, and validating only the run
                // keeps the parse linear in the input.
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|_| "bad utf8")?);
                *pos += len;
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        let value = parse_value(bytes, pos)?;
        items.push(value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "01x",
            "{} trailing",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_nested_structures() {
        let v =
            parse_json("{\"a\":[1,2.5,null,true,{\"b\":\"c\\nd\"}],\"n\":-3e2, \"u\":\"\\u0041\"}")
                .unwrap();
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2], JsonValue::Null);
        assert_eq!(arr[4].get("b").and_then(JsonValue::as_str), Some("c\nd"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-300.0));
        assert_eq!(v.get("u").and_then(JsonValue::as_str), Some("A"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote\" back\\slash \n\r\t ctrl\u{1} unicode π";
        let mut out = String::new();
        write_json_string(&mut out, nasty);
        let back = parse_json(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    /// One ≥ 100 KB line (a decision record's member list is one such) and
    /// the same line ten times as long: linear parsing takes about ten
    /// times as long, where validating the rest of the input per character
    /// took a hundred. Best of five each, to shrug off a descheduled run.
    #[test]
    fn long_single_line_documents_parse_in_linear_time() {
        let doc = |members: usize| {
            let mut out = String::from("{\"members\":[");
            for i in 0..members {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"node\":\"n");
                let _ = write!(out, "{i}");
                out.push_str("-π\",\"note\":\"plain ascii text of a typical length\"}");
            }
            out.push_str("]}");
            out
        };
        let best_of_five = |text: &str, members: usize| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let v = parse_json(std::hint::black_box(text)).unwrap();
                    let elapsed = t.elapsed();
                    let arr = v.get("members").and_then(JsonValue::as_arr).unwrap();
                    assert_eq!(arr.len(), members);
                    elapsed
                })
                .min()
                .unwrap()
        };
        let (small, large) = (doc(2_000), doc(20_000));
        assert!(small.len() >= 100_000 && !small.contains('\n'));
        let (t_small, t_large) = (best_of_five(&small, 2_000), best_of_five(&large, 20_000));
        assert!(
            t_large < t_small * 20,
            "10x the input took {t_large:?} against {t_small:?}"
        );
    }

    #[test]
    fn multi_byte_scalars_parse_anywhere_in_a_string() {
        for s in ["π", "aπ", "πa", "€", "x€", "𝄞", "a𝄞", "𝄞\\\"€", "é\\né"] {
            let mut out = String::new();
            write_json_string(&mut out, s);
            assert_eq!(parse_json(&out).unwrap().as_str(), Some(s), "{out}");
        }
        // Raw (unescaped) multi-byte text straight before the closing quote
        // and straight before an escape.
        assert_eq!(parse_json("\"a𝄞\"").unwrap().as_str(), Some("a𝄞"));
        assert_eq!(parse_json("\"€\\t€\"").unwrap().as_str(), Some("€\t€"));
    }

    /// `parse_json` takes a `&str`, so only the byte-level parser can be
    /// handed malformed UTF-8; it must refuse it, not pass it on.
    #[test]
    fn truncated_and_invalid_utf8_in_a_string_is_rejected() {
        let cases: [&[u8]; 6] = [
            b"\"\xCF\"",              // 2-byte lead, continuation missing
            b"\"a\xE2\x82\"",         // 3-byte scalar cut before the quote
            b"\"\xF0\x9D\x84",        // 4-byte scalar cut by the end of input
            b"\"\x80\"",              // lone continuation byte
            b"\"\xC0\xAF\"",          // overlong encoding
            b"\"ok\\n\xED\xA0\x80\"", // surrogate, after an escape
        ];
        for bad in cases {
            assert!(parse_string(bad, &mut 0).is_err(), "{bad:?} should fail");
        }
        let mut pos = 0;
        assert_eq!(
            parse_string("\"aπ\" tail".as_bytes(), &mut pos).unwrap(),
            "aπ"
        );
        assert_eq!(pos, 5);
    }

    #[test]
    fn floats_round_trip_and_nonfinite_become_null() {
        for v in [0.0, -1.5, 0.1 + 0.2, 1e300, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(parse_json(&out).unwrap().as_f64(), Some(v));
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn u64_array_formats_id_lists() {
        assert_eq!(u64_array([].into_iter()), "[]");
        assert_eq!(u64_array([7u64, 3, 11].into_iter()), "[7,3,11]");
        let parsed = parse_json(&u64_array([1u64, 2].into_iter())).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 2);
    }
}
