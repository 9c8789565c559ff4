//! Offline stand-in for the `serde_json` crate: renders the serde stand-in's [`Value`]
//! data model as JSON text and parses it back.
//!
//! Covers the surface this workspace uses — [`to_string`], [`to_string_pretty`],
//! [`from_str`], the [`Value`] re-export and the [`Error`] type.  Strings decode every
//! escape JSON defines, surrogate pairs included.  Numbers are `f64`-backed
//! (integers up to 2^53 round-trip exactly); `NaN`/infinite numbers are rejected at
//! serialization time, matching upstream's behaviour of refusing non-finite floats.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Returns an error when the value contains a non-finite number.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable JSON with two-space indentation.
///
/// # Errors
///
/// Returns an error when the value contains a non-finite number.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns an error describing the first syntax or shape mismatch.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_complete(text)?;
    T::from_value(&value)
}

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_whitespace(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            if !n.is_finite() {
                return Err(Error::custom(format!(
                    "cannot serialize non-finite number {n}"
                )));
            }
            if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                // `{:?}` prints the shortest representation that round-trips through
                // `str::parse::<f64>`, including exponents where shorter.
                out.push_str(&format!("{n:?}"));
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_whitespace(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_whitespace(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of plain bytes up to the next `"` or `\` in one piece: both
        // delimiters are ASCII, so the run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::custom("unterminated string"))?;
        out.push_str(
            std::str::from_utf8(&bytes[*pos..*pos + run])
                .map_err(|_| Error::custom("invalid UTF-8 inside string"))?,
        );
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
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
                let first = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // A high surrogate must pair with a low-surrogate escape next.
                    let second = match bytes.get(*pos + 1..*pos + 3) {
                        Some(b"\\u") => parse_hex4(bytes, *pos + 3)?,
                        _ => 0,
                    };
                    if !(0xDC00..=0xDFFF).contains(&second) {
                        return Err(Error::custom("unpaired surrogate escape"));
                    }
                    *pos += 6;
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                // A lone low surrogate is not a scalar value and fails here.
                out.push(char::from_u32(code).ok_or_else(|| Error::custom("bad \\u escape"))?);
            }
            other => return Err(Error::custom(format!("bad escape {other:?}"))),
        }
        *pos += 1;
    }
}

/// Reads the four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, Error> {
    let digits = bytes
        .get(at..at + 4)
        .ok_or_else(|| Error::custom("truncated \\u escape"))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| Error::custom("bad \\u escape"))?;
        Ok(code << 4 | digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        return Err(Error::custom(format!("expected value at byte {start}")));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or_else(|| Error::custom(format!("invalid number at byte {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::String("n14".to_string())),
            ("count".to_string(), Value::Number(3.0)),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Number(1.5e-12), Value::Bool(true), Value::Null]),
            ),
        ]);
        let compact = to_string(&value).unwrap();
        assert_eq!(
            compact,
            "{\"name\":\"n14\",\"count\":3,\"xs\":[1.5e-12,true,null]}"
        );
        let pretty = to_string_pretty(&value).unwrap();
        assert!(pretty.contains("\n  \"name\": \"n14\""));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s":"a\"b\\c\ndA","n":-2.5e3}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -2500.0);
        // Raw multibyte text is copied verbatim; surrogate-pair escapes (what Python's
        // `json.dumps` writes for astral characters) decode to one scalar.
        for (text, want) in [
            ("\"é ü привет 😀\"", "é ü привет 😀"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""a\uD83D\uDE00b\u00e9""#, "a😀bé"),
        ] {
            assert_eq!(
                from_str::<Value>(text).unwrap().as_str(),
                Some(want),
                "{text}"
            );
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [1.0e-13, 5.0900000001e-12, 0.7342859, f64::MAX, 5e-324] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "text = {text}");
        }
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("not json").is_err());
        assert!(from_str::<Value>("{\"a\":1,}").is_err());
        assert!(from_str::<Value>("[1 2]").is_err());
        assert!(from_str::<Value>("{\"a\":1} extra").is_err());
        // Unpaired or malformed surrogate escapes are errors, never panics.
        for bad in [
            r#""\ud83d""#,
            r#""\ud800\u0041""#,
            r#""\ud800A""#,
            r#""\udc00""#,
            r#""\ud800\u12""#,
            r#""\u+abc""#,
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
    }
}
