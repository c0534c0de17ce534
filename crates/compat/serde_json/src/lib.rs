//! Offline stand-in for `serde_json`: serializes the `serde` shim's
//! [`Value`] tree to JSON text and parses JSON text back.
//!
//! Output is deterministic: object fields keep declaration order, floats
//! use Rust's shortest round-trip formatting, and pretty output indents
//! with two spaces.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Error produced by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
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

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = format!("{f}");
        out.push_str(&s);
        // Keep the float/integer distinction through a round trip.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; emit null like serde_json's lossy modes.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            write_seq(out, ('[', ']'), items.iter(), indent, |out, item, ind| {
                write_value(out, item, ind)
            })
        }
        Value::Object(fields) => write_seq(
            out,
            ('{', '}'),
            fields.iter(),
            indent,
            |out, (k, v), ind| {
                escape_into(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(out, v, ind);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    mut write_item: impl FnMut(&mut String, T, Option<usize>),
) {
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(out, item, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(0));
    Ok(out)
}

/// Serializes `value` into the shim's [`Value`] tree.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts. Recursion is bounded
/// by it, so hostile input such as a line of `[` is an error rather than
/// a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::new(format!("{} at byte {}", message.into(), self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn consume_keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'n' => {
                if self.consume_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b't' => {
                if self.consume_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b'f' => {
                if self.consume_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            _ => self.parse_number(),
        }
    }

    /// The rest of an array, after its `[`.
    fn parse_array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// The rest of an object, after its `{`.
    fn parse_object(&mut self) -> Result<Value> {
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next `"` or `\` in one slice.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the (already valid UTF-8) input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if text.is_empty() {
            return Err(self.error("expected a value"));
        }
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(T::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let v: Vec<(u32, f64)> = vec![(90, 3.25), (99, 0.5)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[90,3.25],[99,0.5]]");
        let round: Vec<(u32, f64)> = from_str(&json).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn floats_stay_floats() {
        let json = to_string(&2.0f64).unwrap();
        assert_eq!(json, "2.0");
        let round: f64 = from_str(&json).unwrap();
        assert_eq!(round, 2.0);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Array(vec![Value::Bool(true)])),
        ]);
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
        let round: Value = from_str(&json).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn strings_escape() {
        let s = "line\n\"quoted\"\\x".to_string();
        let round: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(s, round);
    }

    #[test]
    fn multibyte_strings_round_trip_between_escapes() {
        let s = "héllo \"wörld\" — \\ 日本語\t✓".to_string();
        let round: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(s, round);
        let unterminated = from_str::<String>("\"ünterminated");
        assert!(unterminated.is_err());
    }

    #[test]
    fn string_parsing_is_linear() {
        let best_of_5 = |bytes: usize| {
            let json = to_string(&"x".repeat(bytes)).unwrap();
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let parsed: String = from_str(&json).unwrap();
                    assert_eq!(parsed.len(), bytes);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let small = best_of_5(200_000);
        let large = best_of_5(400_000);
        assert!(
            large.as_secs_f64() <= 2.5 * small.as_secs_f64(),
            "400 KB took {large:?}, 200 KB took {small:?}"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&over).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
    }

    #[test]
    fn errors_carry_position() {
        let err = from_str::<bool>("troo").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }
}
