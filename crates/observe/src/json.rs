//! Minimal JSON support for the flat trace schema.
//!
//! The JSONL trace format uses only flat objects whose values are numbers,
//! booleans, strings, or null, so a full JSON implementation would be dead
//! weight (and the build environment has no serde). This module provides
//! exactly what the schema needs: string escaping for the writer and a
//! single-object parser for the reader.

use std::fmt::{self, Write as _};

/// A value in a flat trace object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// Any JSON number. Counters fit f64 exactly up to 2^53, far beyond
    /// anything a simulation run produces.
    Num(f64),
    /// A JSON string (unescaped).
    Str(String),
}

impl JsonValue {
    /// The value as a `u64` if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number within the trace (0 when parsing a bare object).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Appends `value` to `out` with JSON string escaping applied.
///
/// This is the writer-side primitive of the flat JSONL schema; it is public
/// so other line-oriented protocols in the workspace (e.g. the collaboration
/// wire format) can produce strings that [`parse_object`] round-trips.
pub fn escape_into(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
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
}

/// Appends `,"key":"value"` to `out`, escaping `value` — one string field
/// of a flat JSONL object whose opening `{"t":…` is already written.
pub fn field_str(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Appends `,"key":value` for an unsigned integer field.
pub fn field_u64(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    let _ = write!(out, "{value}");
}

/// Appends `,"key":true` or `,"key":false`.
pub fn field_bool(out: &mut String, key: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

/// Appends `,"key":value` for a float field in shortest round-trip form.
/// Only finite values are valid JSON; callers carry no others.
pub fn field_f64(out: &mut String, key: &str, value: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    let _ = write!(out, "{value:?}");
}

/// Parses one flat JSON object into `(key, value)` pairs, in order.
/// Nested objects and arrays are rejected — the trace schema is flat.
///
/// `line` is the 1-based line number reported in errors (pass 0 when
/// parsing a bare object outside a trace file).
///
/// # Errors
///
/// Returns a [`TraceParseError`] carrying `line` and a column-annotated
/// message when `text` is not exactly one flat JSON object: malformed
/// syntax, nested objects/arrays, or trailing characters after the
/// closing brace.
pub fn parse_object(text: &str, line: usize) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        line,
    };
    parser.skip_ws();
    parser.expect(b'{')?;
    let mut fields = Vec::new();
    parser.skip_ws();
    if parser.peek() == Some(b'}') {
        parser.pos += 1;
    } else {
        loop {
            parser.skip_ws();
            let key = parser.string()?;
            parser.skip_ws();
            parser.expect(b':')?;
            parser.skip_ws();
            let value = parser.value()?;
            fields.push((key, value));
            parser.skip_ws();
            match parser.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(
                        parser.error(format!("expected `,` or `}}`, found {}", describe(other)))
                    )
                }
            }
        }
    }
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after object".into()));
    }
    Ok(fields)
}

fn describe(byte: Option<u8>) -> String {
    match byte {
        Some(b) => format!("`{}`", b as char),
        None => "end of line".into(),
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl Parser<'_> {
    fn error(&self, message: String) -> TraceParseError {
        TraceParseError {
            line: self.line,
            message: format!("{message} (column {})", self.pos + 1),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), TraceParseError> {
        match self.next() {
            Some(b) if b == byte => Ok(()),
            other => Err(self.error(format!(
                "expected `{}`, found {}",
                byte as char,
                describe(other)
            ))),
        }
    }

    fn value(&mut self) -> Result<JsonValue, TraceParseError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{' | b'[') => {
                Err(self.error("nested values are not part of the trace schema".into()))
            }
            Some(_) => self.number(),
            None => Err(self.error("expected a value, found end of line".into())),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, TraceParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, TraceParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.error(format!("`{text}` is not a number")))
    }

    fn string(&mut self) -> Result<String, TraceParseError> {
        self.expect(b'"')?;
        // The escape-free run up to the closing quote or the first escape
        // is copied as one slice: the input is a `str` and both delimiters
        // are ASCII, so the run ends on a char boundary.
        let start = self.pos;
        let run = self.bytes[start..]
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .unwrap_or(self.bytes.len() - start);
        self.pos += run;
        let mut out = self.text[start..self.pos].to_owned();
        loop {
            match self.next() {
                None => return Err(self.error("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|b| std::str::from_utf8(b).ok())
                            .ok_or_else(|| self.error("truncated \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.error(format!("bad \\u escape `{hex}`")))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape outside BMP".into()))?,
                        );
                    }
                    other => return Err(self.error(format!("unknown escape {}", describe(other)))),
                },
                Some(byte) => {
                    // Re-assemble multi-byte UTF-8 sequences: back up and
                    // take the full char from the source slice.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                            .map_err(|_| self.error("invalid UTF-8 in string".into()))?;
                        let ch = rest.chars().next().expect("non-empty");
                        out.push(ch);
                        self.pos += ch.len_utf8() - 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f λ";
        let mut encoded = String::from("{\"k\":\"");
        escape_into(&mut encoded, nasty);
        encoded.push_str("\"}");
        let fields = parse_object(&encoded, 1).expect("valid");
        assert_eq!(fields, vec![("k".into(), JsonValue::Str(nasty.into()))]);
    }

    #[test]
    fn parses_all_value_kinds() {
        let fields = parse_object(
            "{\"a\":1, \"b\":-2.5, \"c\":true, \"d\":false, \"e\":null, \"f\":\"x\"}",
            1,
        )
        .expect("valid");
        assert_eq!(fields[0].1.as_u64(), Some(1));
        assert_eq!(fields[1].1, JsonValue::Num(-2.5));
        assert_eq!(fields[2].1.as_bool(), Some(true));
        assert_eq!(fields[3].1.as_bool(), Some(false));
        assert_eq!(fields[4].1, JsonValue::Null);
        assert_eq!(fields[5].1.as_str(), Some("x"));
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        assert!(parse_object("{\"a\":{}}", 1).is_err());
        assert!(parse_object("{\"a\":[1]}", 1).is_err());
        assert!(parse_object("{\"a\":1} extra", 1).is_err());
        assert!(parse_object("{\"a\"}", 1).is_err());
        assert!(parse_object("", 1).is_err());
        let err = parse_object("{\"a\":wat}", 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn escape_free_runs_parse_whole_and_errors_keep_their_columns() {
        let fields = parse_object("{\"k\":\"λ-ü x\",\"j\":\"ü\\tz\"}", 1).expect("valid");
        assert_eq!(fields[0].1.as_str(), Some("λ-ü x"));
        assert_eq!(fields[1].1.as_str(), Some("ü\tz"));
        let err = parse_object("{\"k\":\"abc", 1).unwrap_err();
        assert_eq!(err.message, "unterminated string (column 10)");
    }

    #[test]
    fn empty_object_is_fine() {
        assert_eq!(parse_object("{}", 1).expect("valid"), vec![]);
    }
}
