//! A minimal flat-TOML reader for run configurations.
//!
//! The full TOML data model is far more than a run config needs, and no TOML crate is
//! available offline, so this module accepts the practical subset: `key = value` lines with
//! string, integer, float, boolean and homogeneous-array values, plus `#` comments, blank
//! lines and **dotted keys** (`variation.process_seeds = 30` nests into a
//! `variation` object, matching the JSON shape).  Tables/section headers are rejected with
//! a pointed error so nobody discovers a silently ignored `[section]` the hard way; a
//! quoted key (`"a.b" = 1`) keeps its dot literally, as TOML specifies.

use crate::error::PipelineError;
use serde::Value;

/// Parses flat-TOML text into the same [`Value::Object`] shape `serde_json` produces, so
/// config deserialization is format-independent.
///
/// # Errors
///
/// Returns a [`PipelineError::Config`] naming the offending line on any syntax error.
pub fn parse(text: &str) -> Result<Value, PipelineError> {
    let mut root = Value::Object(Vec::new());
    for (index, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let lineno = index + 1;
        if line.starts_with('[') {
            return Err(PipelineError::config(format!(
                "line {lineno}: table headers are not supported by the flat-TOML run-config reader; use top-level keys"
            )));
        }
        let (key, value_text) = line.split_once('=').ok_or_else(|| {
            PipelineError::config(format!("line {lineno}: expected `key = value`"))
        })?;
        let (key, quoted) = parse_key(key.trim(), lineno)?;
        if key.is_empty() {
            return Err(PipelineError::config(format!("line {lineno}: empty key")));
        }
        let value = parse_value(value_text.trim(), lineno)?;
        // An unquoted dotted key (`variation.process_seeds`) nests; a quoted one is
        // literal.
        let segments: Vec<&str> = if quoted {
            vec![key]
        } else {
            key.split('.').collect()
        };
        if segments.iter().any(|s| s.is_empty()) {
            return Err(PipelineError::config(format!(
                "line {lineno}: empty segment in dotted key `{key}`"
            )));
        }
        // slic-lint: allow(P1) -- structural: the key is non-empty, so segments always has a leaf.
        let (leaf, sections) = segments.split_last().expect("segments are non-empty");
        let entries = section_mut(&mut root, sections).map_err(|head| {
            PipelineError::config(format!(
                "line {lineno}: key `{head}` holds a value and cannot also be a dotted table"
            ))
        })?;
        if entries.iter().any(|(k, _)| k == leaf) {
            return Err(PipelineError::config(format!(
                "line {lineno}: duplicate key `{leaf}`"
            )));
        }
        entries.push((leaf.to_string(), value));
    }
    Ok(root)
}

/// The object reached from `root` through the keys `segments` (none: `root` itself),
/// created where a key is absent or `null`.  `Err` names the first key that already holds
/// something else, which is never silently replaced.
pub(crate) fn section_mut<'a, 's>(
    root: &'a mut Value,
    segments: &[&'s str],
) -> Result<&'a mut Vec<(String, Value)>, &'s str> {
    let mut node = root;
    let mut holder = "";
    for &segment in segments {
        if node.is_null() {
            *node = Value::Object(Vec::new());
        }
        let Value::Object(entries) = node else {
            return Err(holder);
        };
        let index = match entries.iter().position(|(k, _)| k == segment) {
            Some(index) => index,
            None => {
                entries.push((segment.to_string(), Value::Null));
                entries.len() - 1
            }
        };
        node = &mut entries[index].1;
        holder = segment;
    }
    if node.is_null() {
        *node = Value::Object(Vec::new());
    }
    match node {
        Value::Object(entries) => Ok(entries),
        _ => Err(holder),
    }
}

/// Visits every character of `text` that sits *outside* quoted strings, tracking the
/// in-string state with `\"`-escape awareness.  The one scanner shared by comment
/// stripping and array splitting, so the two can never disagree about where a string
/// ends.
fn for_each_unquoted(text: &str, mut visit: impl FnMut(usize, char)) {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else {
            visit(i, c);
        }
    }
}

/// Strips a `#` comment, respecting `#` inside quoted strings — including strings that
/// contain escaped quotes (`\"`), which must not toggle the in-string state.
fn strip_comment(line: &str) -> &str {
    let mut cut = None;
    for_each_unquoted(line, |i, c| {
        if c == '#' && cut.is_none() {
            cut = Some(i);
        }
    });
    match cut {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Validates a key: either a bare key without quotes, or a fully quoted `"key"`.  A stray
/// or unbalanced quote (`"key`, `key"`, `ke"y`) is rejected instead of being silently
/// trimmed into a different key than the author wrote.  The flag reports whether the key
/// was quoted (quoted keys never split on dots).
fn parse_key(raw: &str, lineno: usize) -> Result<(&str, bool), PipelineError> {
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').filter(|k| !k.contains('"'));
        return inner.map(|k| (k, true)).ok_or_else(|| {
            PipelineError::config(format!("line {lineno}: unbalanced quotes in key `{raw}`"))
        });
    }
    if raw.contains('"') {
        return Err(PipelineError::config(format!(
            "line {lineno}: unbalanced quotes in key `{raw}`"
        )));
    }
    Ok((raw, false))
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, PipelineError> {
    if text.is_empty() {
        return Err(PipelineError::config(format!(
            "line {lineno}: missing value"
        )));
    }
    if let Some(stripped) = text.strip_prefix('[') {
        let inner = stripped
            .strip_suffix(']')
            .ok_or_else(|| PipelineError::config(format!("line {lineno}: unterminated array")))?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, lineno)?);
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| PipelineError::config(format!("line {lineno}: unterminated string")))?;
        return Ok(Value::String(unescape_string(inner, lineno)?));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    text.parse::<f64>().map(Value::Number).map_err(|_| {
        PipelineError::config(format!(
            "line {lineno}: `{text}` is not a string (quote it), number, boolean or array"
        ))
    })
}

/// Decodes the supported escapes (`\"`, `\\`, `\n`, `\t`) of a string body; a raw quote
/// or unknown escape is an error rather than a silently mangled value.
fn unescape_string(inner: &str, lineno: usize) -> Result<String, PipelineError> {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                return Err(PipelineError::config(format!(
                    "line {lineno}: unescaped quote inside a string (use \\\")"
                )));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => {
                    return Err(PipelineError::config(format!(
                        "line {lineno}: unsupported escape `\\{}` in string",
                        other.map(String::from).unwrap_or_default()
                    )));
                }
            },
            other => out.push(other),
        }
    }
    Ok(out)
}

/// Splits array contents on commas outside quoted strings (arrays do not nest in the
/// supported subset); escaped quotes inside strings do not end the string.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    for_each_unquoted(inner, |i, c| {
        if c == ',' {
            items.push(&inner[start..i]);
            start = i + 1;
        }
    });
    items.push(&inner[start..]);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_subset() {
        let value = parse(
            r#"
            # characterization run
            library = "paper-trio"
            profile = "quick"   # fast settings
            seed = 42
            scale = 1.5
            resume = true
            metrics = ["delay", "slew"]
            counts = [1, 2, 3]
            empty = []
            "#,
        )
        .unwrap();
        assert_eq!(value.get("library").unwrap().as_str(), Some("paper-trio"));
        assert_eq!(value.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(value.get("scale").unwrap().as_f64(), Some(1.5));
        assert_eq!(value.get("resume").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("metrics").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(value.get("counts").unwrap().as_array().unwrap().len(), 3);
        assert!(value.get("empty").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn rejects_sections_duplicates_and_syntax_errors() {
        assert!(parse("[run]\nkey = 1")
            .unwrap_err()
            .to_string()
            .contains("table headers"));
        assert!(parse("a = 1\na = 2")
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        assert!(parse("just a line")
            .unwrap_err()
            .to_string()
            .contains("key = value"));
        assert!(parse("a = ")
            .unwrap_err()
            .to_string()
            .contains("missing value"));
        assert!(parse("a = \"unterminated")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
        assert!(parse("a = [1, 2")
            .unwrap_err()
            .to_string()
            .contains("unterminated array"));
        assert!(parse("a = nope")
            .unwrap_err()
            .to_string()
            .contains("not a string"));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let value = parse("note = \"keep # this\"").unwrap();
        assert_eq!(value.get("note").unwrap().as_str(), Some("keep # this"));
    }

    #[test]
    fn escaped_quotes_do_not_confuse_comment_stripping() {
        // The escaped quote must not flip the in-string state: the `#` after it is still
        // inside the string, and the trailing comment is still a comment.
        let value = parse(r#"note = "say \"hi\" # keep" # strip this"#).unwrap();
        assert_eq!(
            value.get("note").unwrap().as_str(),
            Some("say \"hi\" # keep")
        );
        let arr = parse(r#"notes = ["a \"b\", c # keep", "d"] # strip"#).unwrap();
        let items = arr.get("notes").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2, "the escaped quote must not split the array");
        assert_eq!(items[0].as_str(), Some("a \"b\", c # keep"));
    }

    #[test]
    fn string_escapes_are_decoded() {
        let value = parse(r#"text = "tab\tnewline\nback\\slash""#).unwrap();
        assert_eq!(
            value.get("text").unwrap().as_str(),
            Some("tab\tnewline\nback\\slash")
        );
        assert!(parse(r#"text = "bad \q escape""#)
            .unwrap_err()
            .to_string()
            .contains("unsupported escape"));
        assert!(parse(r#"text = "raw " quote""#)
            .unwrap_err()
            .to_string()
            .contains("unescaped quote"));
    }

    #[test]
    fn dotted_keys_nest_into_objects() {
        let value = parse(
            r#"
            seed = 7
            variation.process_seeds = 30
            variation.sigma_corners = [1.0, 3.0]
            "#,
        )
        .unwrap();
        assert_eq!(value.get("seed").unwrap().as_f64(), Some(7.0));
        let variation = value.get("variation").unwrap();
        assert_eq!(variation.get("process_seeds").unwrap().as_f64(), Some(30.0));
        assert_eq!(
            variation
                .get("sigma_corners")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        // A quoted key keeps its dot literally instead of nesting.
        let literal = parse(r#""a.b" = 1"#).unwrap();
        assert_eq!(literal.get("a.b").unwrap().as_f64(), Some(1.0));
        assert!(literal.get("a").is_none());
    }

    #[test]
    fn dotted_key_conflicts_are_rejected() {
        assert!(parse("a = 1\na.b = 2")
            .unwrap_err()
            .to_string()
            .contains("cannot also be a dotted table"));
        assert!(parse("a.b = 1\na.b = 2")
            .unwrap_err()
            .to_string()
            .contains("duplicate key `b`"));
        assert!(parse("a..b = 1")
            .unwrap_err()
            .to_string()
            .contains("empty segment"));
    }

    #[test]
    fn unbalanced_key_quotes_are_rejected() {
        for bad in [r#""key = 1"#, r#"key" = 1"#, r#"ke"y = 1"#] {
            assert!(
                parse(bad)
                    .unwrap_err()
                    .to_string()
                    .contains("unbalanced quotes in key"),
                "`{bad}` must be rejected"
            );
        }
        let value = parse(r#""quoted" = 3"#).unwrap();
        assert_eq!(value.get("quoted").unwrap().as_f64(), Some(3.0));
        assert!(parse(r#""" = 1"#)
            .unwrap_err()
            .to_string()
            .contains("empty key"));
    }
}
