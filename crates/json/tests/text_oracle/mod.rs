//! The JSON string paths as they were before they scanned eight bytes
//! at a time: the oracles `json::Lexer` and `json::JsonWriter` are held
//! to. [`Lexer`] is the whole lexer of that time, reading a string one
//! byte at a time and decoding every escape through one `match`, with
//! just enough of a reader on top ([`Lexer::skip_value`], [`Lexer::end`])
//! to refuse a whole text as `json::Lexer` does; [`escaped`] is the
//! writer's byte loop. Both are test code, not library: they use only
//! the standard library, and an [`Error`] displays as a `json::Error`
//! does (message, line, column), so a test compares the two by their
//! text. `proptest_text.rs` includes the module, and so does
//! `yprov4ml`'s `text_cuts.rs`.

// Each test crate that includes the module calls a part of it.
#![allow(dead_code)]

use std::fmt;

/// Arrays and objects nested deeper than this are refused.
const DEPTH_LIMIT: usize = 128;

/// Malformed JSON: what was expected, the 1-based line and the bytes of
/// that line up to the offending one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: &'static str,
    line: usize,
    column: usize,
}

impl Error {
    fn at(text: &[u8], end: usize, message: &'static str) -> Self {
        let upto = &text[..end.min(text.len())];
        Error {
            message,
            line: 1 + upto.iter().filter(|&&b| b == b'\n').count(),
            column: upto.iter().rev().take_while(|&&b| b != b'\n').count(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {} column {}",
            self.message, self.line, self.column
        )
    }
}

/// A cursor over JSON text, used as `json::Lexer` is.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// How many bytes the cursor has moved past.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    pub fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Checks that nothing but whitespace follows the cursor.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.unexpected("trailing characters")),
        }
    }

    fn enter(&mut self, close: u8) -> Result<bool, Error> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > DEPTH_LIMIT {
            return Err(self.syntax(self.pos, "recursion limit exceeded"));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn key(&mut self) -> Result<String, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {}
            Some(_) => return Err(self.unexpected("key must be a string")),
            None => return Err(self.unexpected("EOF while parsing an object")),
        }
        let key = self.string()?;
        self.skip_ws();
        match self.peek() {
            Some(b':') => self.pos += 1,
            Some(_) => return Err(self.unexpected("expected `:`")),
            None => return Err(self.unexpected("EOF while parsing an object")),
        }
        self.skip_ws();
        Ok(key)
    }

    fn more(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(_) if close == b'}' => Err(self.unexpected("expected `,` or `}`")),
            Some(_) => Err(self.unexpected("expected `,` or `]`")),
            None if close == b'}' => Err(self.unexpected("EOF while parsing an object")),
            None => Err(self.unexpected("EOF while parsing a list")),
        }
    }

    /// Moves past the value at the cursor, checking that it is JSON.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => {
                let text = self.number()?;
                match text.parse::<f64>() {
                    Ok(f) if f.is_finite() => Ok(()),
                    _ => Err(self.syntax(self.pos, "number out of range")),
                }
            }
            Some(b'[') => {
                let mut more = self.enter(b']')?;
                while more {
                    self.skip_value()?;
                    more = self.more(b']')?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut more = self.enter(b'}')?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.more(b'}')?;
                }
                Ok(())
            }
            None => Err(self.unexpected("EOF while parsing a value")),
            Some(_) => Err(self.unexpected("expected value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.unexpected("expected ident"))
        }
    }

    fn number(&mut self) -> Result<&'a str, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if let Some(b'0'..=b'9') = self.peek() {
                    return Err(self.unexpected("invalid number"));
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.unexpected("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.unexpected("invalid number"));
            }
            self.digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.unexpected("invalid number"));
            }
            self.digits();
        }
        Ok(&self.src[start..self.pos])
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    /// The string whose opening quote the cursor is at, decoded.
    pub fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut decoded = String::new();
        loop {
            let run = self.pos;
            let stop = self.plain_run()?;
            decoded.push_str(&self.src[run..self.pos]);
            self.pos += 1;
            if stop == b'"' {
                return Ok(decoded);
            }
            self.escape(&mut decoded)?;
        }
    }

    /// Moves over string content up to the next `"` or `\`, which it
    /// returns with the cursor still at it.
    fn plain_run(&mut self) -> Result<u8, Error> {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                Some(&stop @ (b'"' | b'\\')) => return Ok(stop),
                Some(0..=0x1f) => {
                    return Err(self.unexpected(
                        "control character (\\u0000-\\u001F) found while parsing a string",
                    ))
                }
                Some(_) => self.pos += 1,
                None => return Err(self.unexpected("EOF while parsing a string")),
            }
        }
    }

    /// Decodes the escape whose backslash the cursor has just passed.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(escape) = self.peek() else {
            return Err(self.unexpected("EOF while parsing a string"));
        };
        self.pos += 1;
        out.push(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if !(0xD800..0xDC00).contains(&high) {
                    high
                } else if self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.syntax(self.pos, "lone leading surrogate in hex escape"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    return Err(self.syntax(self.pos, "unexpected end of hex escape"));
                };
                match char::from_u32(code) {
                    Some(c) => c,
                    None => {
                        return Err(self.syntax(self.pos, "lone trailing surrogate in hex escape"))
                    }
                }
            }
            _ => return Err(self.syntax(self.pos, "invalid escape")),
        });
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let Some(digits) = self.src.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.syntax(self.src.len(), "EOF while parsing a string"));
        };
        let mut code = 0;
        for &digit in digits {
            let Some(value) = (digit as char).to_digit(16) else {
                return Err(self.syntax(self.pos, "invalid escape"));
            };
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn unexpected(&self, message: &'static str) -> Error {
        self.syntax(self.pos + 1, message)
    }

    fn syntax(&self, end: usize, message: &'static str) -> Error {
        Error::at(self.src.as_bytes(), end, message)
    }
}

/// `s` as a JSON string's content: `"`, `\`, `\n`, `\r`, `\t`, `\b` and
/// `\f` by name, every other byte below 0x20 as `\u00xx`, everything
/// else as it is.
pub fn escaped(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(s.len());
    for &b in s.as_bytes() {
        let name = match b {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x08 => b'b',
            0x0c => b'f',
            0..=0x1f => b'u',
            _ => {
                out.push(b);
                continue;
            }
        };
        out.extend_from_slice(&[b'\\', name]);
        if name == b'u' {
            out.extend_from_slice(&[b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 15) as usize]]);
        }
    }
    String::from_utf8(out).expect("only ASCII bytes were replaced")
}
