//! JSON text reader and writer; the `serde_json` stand-in re-exports
//! this module's public items.

use std::fmt::{self, Display};
use std::io::{self, Write};

use crate::de::Deserialize;
use crate::ser::{self, Serialize, SerializeMap, SerializeSeq, Serializer};
use crate::value::{Map, Number, Value};

/// Nesting beyond this is refused, as serde_json does, so hostile
/// input cannot overflow the stack.
const RECURSION_LIMIT: usize = 128;

#[derive(Debug)]
enum ErrorKind {
    Syntax(String),
    Data(String),
    Io(io::Error),
}

/// A parse, conversion or I/O failure, with the 1-based position of a
/// syntax error.
#[derive(Debug)]
pub struct Error {
    kind: ErrorKind,
    line: usize,
    column: usize,
}

pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    fn data(msg: impl Display) -> Self {
        Error {
            kind: ErrorKind::Data(msg.to_string()),
            line: 0,
            column: 0,
        }
    }

    pub fn line(&self) -> usize {
        self.line
    }

    pub fn column(&self) -> usize {
        self.column
    }

    pub fn is_io(&self) -> bool {
        matches!(self.kind, ErrorKind::Io(_))
    }

    pub fn is_syntax(&self) -> bool {
        matches!(self.kind, ErrorKind::Syntax(_))
    }

    pub fn is_data(&self) -> bool {
        matches!(self.kind, ErrorKind::Data(_))
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Syntax(m) => {
                write!(f, "{m} at line {} column {}", self.line, self.column)
            }
            ErrorKind::Data(m) => f.write_str(m),
            ErrorKind::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error::data(msg)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error {
            kind: ErrorKind::Io(e),
            line: 0,
            column: 0,
        }
    }
}

impl From<crate::de::Error> for Error {
    fn from(e: crate::de::Error) -> Self {
        Error::data(e)
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        match e.kind {
            ErrorKind::Io(io) => io,
            _ => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

// ---------------------------------------------------------------- reader

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        let upto = &self.src[..self.pos.min(self.src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Err(Error {
            kind: ErrorKind::Syntax(msg.to_string()),
            line,
            column,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.src.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.pos += 1;
            self.err("expected ident")
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => self.err("EOF while parsing a value"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Value::String)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(_) => {
                self.pos += 1;
                self.err("expected value")
            }
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > RECURSION_LIMIT {
            return self.err("recursion limit exceeded");
        }
        let v = body(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => {
                    self.pos += 1;
                    return self.err("expected `,` or `]`");
                }
                None => return self.err("EOF while parsing a list"),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => self.pos += 1,
                Some(_) => {
                    self.pos += 1;
                    return self.err("key must be a string");
                }
                None => return self.err("EOF while parsing an object"),
            }
            let key = self.string()?;
            self.skip_ws();
            match self.peek() {
                Some(b':') => self.pos += 1,
                Some(_) => {
                    self.pos += 1;
                    return self.err("expected `:`");
                }
                None => return self.err("EOF while parsing an object"),
            }
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                Some(_) => {
                    self.pos += 1;
                    return self.err("expected `,` or `}`");
                }
                None => return self.err("EOF while parsing an object"),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if let Some(b'0'..=b'9') = self.peek() {
                    return self.err("invalid number");
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => {
                self.pos += 1;
                return self.err("invalid number");
            }
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                return self.err("invalid number");
            }
            self.digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            integral = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                return self.err("invalid number");
            }
            self.digits();
        }
        // The slice holds only ASCII digits, sign, '.', 'e'.
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII number");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
        }
        match text.parse::<f64>().ok().and_then(Number::from_f64) {
            Some(n) => Ok(Value::Number(n)),
            None => self.err("number out of range"),
        }
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    /// Reads a string body; the opening quote is already consumed.
    fn string(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            let run = self.pos;
            while let Some(&b) = self.src.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // `src` came from a `&str` and the run ends at an ASCII
            // byte, so it is whole UTF-8 characters.
            out.push_str(std::str::from_utf8(&self.src[run..self.pos]).expect("UTF-8 run"));
            match self.peek() {
                None => return self.err("EOF while parsing a string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    self.pos += 1;
                    return self
                        .err("control character (\\u0000-\\u001F) found while parsing a string");
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<()> {
        let Some(b) = self.peek() else {
            return self.err("EOF while parsing a string");
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if self.src[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return self.err("lone leading surrogate in hex escape");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return self.err("unexpected end of hex escape");
                    }
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return self.err("lone trailing surrogate in hex escape"),
                }
            }
            _ => return self.err("invalid escape"),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(digits) = self.src.get(self.pos..self.pos + 4) else {
            self.pos = self.src.len();
            return self.err("EOF while parsing a string");
        };
        let mut code = 0u32;
        for &d in digits {
            let Some(h) = (d as char).to_digit(16) else {
                return self.err("invalid escape");
            };
            code = code * 16 + h;
        }
        self.pos += 4;
        Ok(code)
    }
}

fn parse(src: &str) -> Result<Value> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        p.pos += 1;
        return p.err("trailing characters");
    }
    Ok(v)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(T::from_value(parse(s)?)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    match std::str::from_utf8(bytes) {
        Ok(s) => from_str(s),
        Err(e) => {
            let p = Parser {
                src: bytes,
                pos: e.valid_up_to(),
                depth: 0,
            };
            p.err("invalid unicode code point")
        }
    }
}

// ---------------------------------------------------------------- writer

fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    w.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                w.write_all(&bytes[run..i])?;
                w.write_all(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ])?;
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        w.write_all(&bytes[run..i])?;
        w.write_all(esc)?;
        run = i + 1;
    }
    w.write_all(&bytes[run..])?;
    w.write_all(b"\"")
}

/// Writes JSON text into `W`, compact or with two-space indentation.
struct JsonSerializer<'w, W: Write> {
    w: &'w mut W,
    pretty: bool,
    indent: usize,
}

fn newline_indent<W: Write>(w: &mut W, indent: usize) -> io::Result<()> {
    w.write_all(b"\n")?;
    for _ in 0..indent {
        w.write_all(b"  ")?;
    }
    Ok(())
}

/// An open array or object.
struct Compound<'w, W: Write> {
    w: &'w mut W,
    pretty: bool,
    indent: usize,
    first: bool,
    close: &'static [u8],
}

impl<W: Write> Compound<'_, W> {
    fn separator(&mut self) -> io::Result<()> {
        if !self.first {
            self.w.write_all(b",")?;
        }
        self.first = false;
        if self.pretty {
            newline_indent(self.w, self.indent + 1)?;
        }
        Ok(())
    }

    fn child(&mut self) -> JsonSerializer<'_, W> {
        JsonSerializer {
            w: self.w,
            pretty: self.pretty,
            indent: self.indent + 1,
        }
    }

    fn finish(self) -> Result<()> {
        if self.pretty && !self.first {
            newline_indent(self.w, self.indent)?;
        }
        Ok(self.w.write_all(self.close)?)
    }
}

impl<'w, W: Write> Serializer for JsonSerializer<'w, W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'w, W>;
    type SerializeMap = Compound<'w, W>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        Ok(self.w.write_all(if v { b"true" } else { b"false" })?)
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        Ok(write!(self.w, "{v}")?)
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        Ok(write!(self.w, "{v}")?)
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        if v.is_finite() {
            Ok(write!(self.w, "{v:?}")?)
        } else {
            self.serialize_unit()
        }
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        Ok(write_escaped(self.w, v)?)
    }

    fn serialize_unit(self) -> Result<()> {
        Ok(self.w.write_all(b"null")?)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'w, W>> {
        self.w.write_all(b"[")?;
        Ok(Compound {
            w: self.w,
            pretty: self.pretty,
            indent: self.indent,
            first: true,
            close: b"]",
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'w, W>> {
        self.w.write_all(b"{")?;
        Ok(Compound {
            w: self.w,
            pretty: self.pretty,
            indent: self.indent,
            first: true,
            close: b"}",
        })
    }
}

impl<W: Write> SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.separator()?;
        value.serialize(self.child())
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl<W: Write> SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        self.separator()?;
        key.serialize(KeySerializer { w: self.w })?;
        self.w.write_all(if self.pretty { b": " } else { b":" })?;
        value.serialize(self.child())
    }

    fn end(self) -> Result<()> {
        self.finish()
    }
}

/// Object keys must be strings; integers are quoted, as serde_json does.
struct KeySerializer<'w, W: Write> {
    w: &'w mut W,
}

fn key_must_be_string<T>() -> Result<T> {
    Err(Error::data("key must be a string"))
}

/// Never constructed: a key cannot be an array or an object.
enum NoCompound {}

impl SerializeSeq for NoCompound {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, _: &T) -> Result<()> {
        match *self {}
    }
    fn end(self) -> Result<()> {
        match self {}
    }
}

impl SerializeMap for NoCompound {
    type Ok = ();
    type Error = Error;
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        _: &K,
        _: &V,
    ) -> Result<()> {
        match *self {}
    }
    fn end(self) -> Result<()> {
        match self {}
    }
}

impl<W: Write> Serializer for KeySerializer<'_, W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = NoCompound;
    type SerializeMap = NoCompound;

    fn serialize_bool(self, _: bool) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        Ok(write!(self.w, "\"{v}\"")?)
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        Ok(write!(self.w, "\"{v}\"")?)
    }
    fn serialize_f64(self, _: f64) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        Ok(write_escaped(self.w, v)?)
    }
    fn serialize_unit(self) -> Result<()> {
        key_must_be_string()
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<NoCompound> {
        key_must_be_string()
    }
    fn serialize_map(self, _: Option<usize>) -> Result<NoCompound> {
        key_must_be_string()
    }
}

pub fn to_writer<W: Write, T: ?Sized + Serialize>(mut writer: W, value: &T) -> Result<()> {
    value.serialize(JsonSerializer {
        w: &mut writer,
        pretty: false,
        indent: 0,
    })
}

pub fn to_writer_pretty<W: Write, T: ?Sized + Serialize>(mut writer: W, value: &T) -> Result<()> {
    value.serialize(JsonSerializer {
        w: &mut writer,
        pretty: true,
        indent: 0,
    })
}

pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(out)
}

pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    // The writer emits only `str` slices and ASCII punctuation.
    Ok(String::from_utf8(to_vec(value)?).expect("writer emits UTF-8"))
}

pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = Vec::with_capacity(128);
    to_writer_pretty(&mut out, value)?;
    Ok(String::from_utf8(out).expect("writer emits UTF-8"))
}

// ------------------------------------------------------- value building

/// Serialises into a [`Value`] tree; what `json!` interpolation uses.
struct ValueSerializer;

struct SeqBuilder(Vec<Value>);

struct MapBuilder(Map<String, Value>);

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = SeqBuilder;
    type SerializeMap = MapBuilder;

    fn serialize_bool(self, v: bool) -> Result<Value> {
        Ok(Value::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_str(self, v: &str) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_unit(self) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<SeqBuilder> {
        Ok(SeqBuilder(Vec::with_capacity(len.unwrap_or(0))))
    }
    fn serialize_map(self, _: Option<usize>) -> Result<MapBuilder> {
        Ok(MapBuilder(Map::new()))
    }
}

impl SerializeSeq for SeqBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.0.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(Value::Array(self.0))
    }
}

impl SerializeMap for MapBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        let key = match key.serialize(ValueSerializer)? {
            Value::String(s) => s,
            Value::Number(n) if !n.is_f64() => n.to_string(),
            _ => return key_must_be_string(),
        };
        self.0.insert(key, value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(Value::Object(self.0))
    }
}

pub fn to_value<T: ?Sized + Serialize>(value: &T) -> Result<Value> {
    value.serialize(ValueSerializer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_text() {
        let text = r#"{"a":[1,-2,3.5,"x\n\u00e9\ud83d\ude00"],"b":{"c":null,"d":true}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][3], "x\né😀");
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"a\":[1,-2,3.5,\"x\\né😀\"],\"b\":{\"c\":null,\"d\":true}}"
        );
        assert_eq!(
            to_string_pretty(&v["b"]).unwrap(),
            "{\n  \"c\": null,\n  \"d\": true\n}"
        );
        assert_eq!(to_string_pretty(&Value::Array(vec![])).unwrap(), "[]");
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"\\x\"",
            "nul",
            "1 2",
            "\"\u{1}\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str::<Value>(&deep).is_err());
        let e = from_str::<Value>("{\n  \"a\": ?}").unwrap_err();
        assert_eq!((e.line(), e.column()), (2, 8));
    }

    #[test]
    fn floats_keep_every_digit() {
        for f in [
            0.1,
            1.0,
            -2.5e-9,
            1.7976931348623157e308,
            5e-324,
            123456789.125,
        ] {
            let text = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&text).unwrap(), f, "{text}");
        }
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }
}
