//! Offline stand-in for `serde_json`: writes any [`Serialize`] value as
//! JSON text and parses JSON text back through the `serde` shim's
//! [`Value`] tree.
//!
//! The writer is a [`Serializer`] sink over any [`fmt::Write`]: values
//! stream into it and it writes in place, with no tree in between and no
//! allocation per scalar. Output is deterministic: object fields keep
//! declaration order, floats use Rust's shortest round-trip formatting,
//! and pretty output indents with two spaces.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Serializer, Value};

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

/// The JSON writer: a [`Serializer`] over a [`fmt::Write`].
///
/// `depth` counts the open arrays and objects; `first` is true until the
/// innermost one gets its first element, and `after_key` while an
/// object's key waits for its value. The first write error is kept and
/// every later write is skipped.
struct Writer<W> {
    out: W,
    pretty: bool,
    depth: usize,
    first: bool,
    after_key: bool,
    result: fmt::Result,
}

impl<W: fmt::Write> Writer<W> {
    fn new(out: W, pretty: bool) -> Writer<W> {
        Writer {
            out,
            pretty,
            depth: 0,
            first: true,
            after_key: false,
            result: Ok(()),
        }
    }

    fn write(&mut self, s: &str) {
        if self.result.is_ok() {
            self.result = self.out.write_str(s);
        }
    }

    /// A line break and the indentation of the current depth.
    fn newline(&mut self) {
        self.write("\n");
        for _ in 0..self.depth {
            self.write("  ");
        }
    }

    /// Starts an element: the separator and line break before it, unless
    /// it is an object value (its key wrote them) or the top-level value.
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.write(",");
        }
        if self.pretty {
            self.newline();
        }
    }

    fn open(&mut self, bracket: &str) {
        self.element();
        self.write(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: &str) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.first = false;
        self.write(bracket);
    }

    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.write("\"");
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so the runs between them end on
            // char boundaries.
            self.write(&s[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let hex = [HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]];
                self.write("\\u00");
                self.write(std::str::from_utf8(&hex).expect("ASCII"));
            } else {
                self.write(escape);
            }
        }
        self.write(&s[run..]);
        self.write("\"");
    }

    /// `v`'s decimal digits, from a buffer on the stack.
    fn digits(&mut self, mut v: u64, negative: bool) {
        let mut buf = [0u8; 21];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if negative {
            at -= 1;
            buf[at] = b'-';
        }
        self.write(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }
}

impl<W: fmt::Write> Serializer for Writer<W> {
    fn null(&mut self) {
        self.element();
        self.write("null");
    }

    fn bool(&mut self, v: bool) {
        self.element();
        self.write(if v { "true" } else { "false" });
    }

    fn i64(&mut self, v: i64) {
        self.element();
        self.digits(v.unsigned_abs(), v < 0);
    }

    fn u64(&mut self, v: u64) {
        self.element();
        self.digits(v, false);
    }

    fn f64(&mut self, v: f64) {
        self.element();
        if !v.is_finite() {
            // JSON has no NaN/Infinity; emit null like serde_json's lossy modes.
            self.write("null");
            return;
        }
        // `Display` is the shortest round-trip form and never uses an
        // exponent, so it prints a `.` exactly when `v` is not integral;
        // integral values get a `.0` to keep the float/integer
        // distinction through a round trip. Below 2^53 every integer is a
        // double of its own, so there `Display` prints the exact digits
        // (`-0` for negative zero), which are cheaper to write.
        let integral = v.fract() == 0.0;
        if integral && v.abs() < 9_007_199_254_740_992.0 {
            self.digits(v.abs() as u64, v.is_sign_negative());
        } else if self.result.is_ok() {
            self.result = write!(self.out, "{v}");
        }
        if integral {
            self.write(".0");
        }
    }

    fn str(&mut self, v: &str) {
        self.element();
        self.escaped(v);
    }

    fn begin_seq(&mut self) {
        self.open("[");
    }

    fn end_seq(&mut self) {
        self.close("]");
    }

    fn begin_map(&mut self) {
        self.open("{");
    }

    fn key(&mut self, k: &str) {
        self.element();
        self.escaped(k);
        self.write(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    fn end_map(&mut self) {
        self.close("}");
    }
}

fn write_json<W: fmt::Write, T: Serialize + ?Sized>(out: W, value: &T, pretty: bool) -> Result<()> {
    let mut writer = Writer::new(out, pretty);
    value.serialize(&mut writer);
    writer
        .result
        .map_err(|_| Error::new("the JSON output failed to write"))
}

/// Writes `value` as compact JSON into `out`, any [`fmt::Write`] sink: a
/// `String`, a formatter, or a hasher fed the exact bytes that
/// [`to_string`] would return.
///
/// # Errors
///
/// Returns an [`Error`] if `out` fails to write.
pub fn to_writer<W: fmt::Write, T: Serialize + ?Sized>(out: W, value: &T) -> Result<()> {
    write_json(out, value, false)
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_json(&mut out, value, false)?;
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_json(&mut out, value, true)?;
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
    fn floats_write_as_display_does() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            44_881.0,
            9_007_199_254_740_991.0,
            -9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1_152_921_504_606_846_976.0,
            1e21,
            f64::MAX,
            0.5,
            -2.25,
            1e-7,
            5e-324,
        ];
        for f in edges {
            let display = format!("{f}");
            let expected = if display.contains('.') {
                display
            } else {
                format!("{display}.0")
            };
            assert_eq!(to_string(&f).unwrap(), expected);
        }
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
