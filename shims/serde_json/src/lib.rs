//! Std-only shim of the `serde_json` API surface used by this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`] and [`Error`].
//!
//! Serialization goes through the shimmed serde's [`Value`] tree. Floats
//! print via Rust's shortest-round-trip formatting (`{:?}`), giving the
//! `float_roundtrip` fidelity the real dependency was configured for.

use serde::{Deserialize, Serialize, Value};

/// JSON serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes `value` to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(T::from_value(&v)?)
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(
    v: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    let newline = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new(format!("cannot serialize non-finite float {f}")));
            }
            // {:?} is shortest-round-trip and always keeps a decimal point.
            out.push_str(&format!("{f:?}"));
        }
        Value::Str(s) => write_escaped(s, out),
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
                newline(out, depth + 1);
                write_value(item, indent, depth + 1, out)?;
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out)?;
            }
            newline(out, depth);
            out.push('}');
        }
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::new(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of unescaped bytes up to the next
                    // quote or backslash. Both are ASCII, so the run ends
                    // on a char boundary, and each byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error::new("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(7)),
            ("b".into(), Value::Float(0.1 + 0.2)),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("s".into(), Value::Str("he said \"hi\"\n".into())),
            ("neg".into(), Value::Int(-3)),
        ]);
        let mut s = String::new();
        write_value(&v, None, 0, &mut s).unwrap();
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let back = p.parse_value().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_round_trip_is_exact() {
        let f = 0.1f64 + 0.2;
        let s = to_string(&f).unwrap();
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(f.to_bits(), back.to_bits());
    }

    #[test]
    fn pretty_output_is_parseable() {
        let v = vec![(1u32, 2u32), (3, 4)];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Vec<(u32, u32)> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    /// Parses `s` as one JSON value.
    fn parse(s: &str) -> Value {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.parse_value().unwrap()
    }

    #[test]
    fn multibyte_characters_round_trip_in_keys_and_values() {
        // 2-, 3- and 4-byte UTF-8 scalars, alone, mixed with escapes, and
        // as the last character before the closing quote.
        let texts = [
            "é",
            "€",
            "𝄞",
            "aé€𝄞z",
            "line\nbreak é\t€ \"𝄞\"",
            "\\é",
            "x\"€",
            "tail 𝄞",
            "é€𝄞é€𝄞",
        ];
        for t in texts {
            let v = Value::Object(vec![
                (t.to_string(), Value::Str(t.to_string())),
                (format!("{t}-2"), Value::Array(vec![Value::Str(t.into())])),
            ]);
            let mut s = String::new();
            write_value(&v, None, 0, &mut s).unwrap();
            assert_eq!(parse(&s), v, "{t:?} via {s}");
        }
    }

    #[test]
    fn escapes_decode_next_to_multibyte_runs() {
        assert_eq!(parse(r#""é\u00e9\n€\"𝄞""#), Value::Str("éé\n€\"𝄞".into()));
        let key = parse(r#"{"k€𝄞":"𝄞"}"#);
        assert_eq!(
            key,
            Value::Object(vec![("k€𝄞".into(), Value::Str("𝄞".into()))])
        );
    }

    #[test]
    fn unterminated_multibyte_string_is_an_error() {
        assert!(from_str::<String>("\"é€").is_err());
        assert!(from_str::<String>("\"𝄞\\").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(from_str::<f64>("1.0 x").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<bool>("maybe").is_err());
    }
}
