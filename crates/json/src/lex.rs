//! The one JSON lexer: a cursor over a `&str` that reads strings,
//! numbers and literals and steps into and out of arrays and objects.
//!
//! A string is read run by run: [`next_stop`](crate::next_stop) finds
//! the next `"`, `\` or byte below 0x20 eight bytes at a time, the run
//! before it is copied whole, and only the stop is looked at: `"` ends
//! the string, a byte below 0x20 is an error, `\"` and `\\` are decoded
//! in place and every other escape by one `match`. Strings without
//! escapes are borrowed from the input; a string with escapes is
//! decoded in one reused buffer and copied out at its exact length (an
//! inline metric series is ~70 KB of escaped JSON, and growth slack on
//! each would be held for as long as its owner is). What is decoded,
//! and every error's message, line and column, are the byte-at-a-time
//! lexer's: `tests/text_oracle/` keeps that lexer as the oracle
//! `tests/proptest_text.rs` holds this one to. Nesting deeper than 128
//! is refused, so hostile input cannot overflow a recursive reader's
//! stack. An error carries the 1-based line and the column of the byte
//! it is about.
//!
//! The small hot methods are `#[inline]`: the readers that drive them
//! live in other crates, and the release profile has no LTO.

use std::borrow::Cow;

use crate::{next_stop, Error};

/// Arrays and objects nested deeper than this are refused.
const DEPTH_LIMIT: usize = 128;

/// A cursor over JSON text.
///
/// An object is read as `let mut more = lex.enter(b'}')?; while more {
/// let key = lex.key()?; /* its value */ more = lex.more(b'}')?; }`, an
/// array the same way without the key; every method that reads a value
/// expects the cursor at its first byte, and leaves it just past it.
pub struct Lexer<'a> {
    src: &'a str,
    /// Always on a character boundary: it only ever moves past whole
    /// ASCII bytes or whole runs ending at one.
    pos: usize,
    depth: usize,
    /// Where strings with escapes are decoded.
    scratch: String,
}

/// A place in the text to come back to with [`Lexer::rewind`].
#[derive(Clone, Copy)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

impl<'a> Lexer<'a> {
    /// A cursor at the start of `src`, whitespace not yet skipped.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            depth: 0,
            scratch: String::new(),
        }
    }

    /// Where the cursor is.
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// Puts the cursor back where `mark` was taken.
    #[inline]
    pub fn rewind(&mut self, mark: Mark) {
        (self.pos, self.depth) = (mark.pos, mark.depth);
    }

    /// The text from `mark` to the cursor.
    pub fn since(&self, mark: Mark) -> &'a str {
        &self.src[mark.pos..self.pos]
    }

    /// The byte at the cursor.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
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

    /// Steps into the array or object whose opening bracket is at the
    /// cursor, `close` being its closing one. `false` when it is empty:
    /// the cursor is then past it already.
    #[inline]
    pub fn enter(&mut self, close: u8) -> Result<bool, Error> {
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

    /// An object member's key and its `:`, leaving the cursor at the
    /// first byte of the member's value.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, Error> {
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

    /// After a member or item: `true` past a `,` (the cursor at the next
    /// one), `false` past `close`, which steps out.
    #[inline]
    pub fn more(&mut self, close: u8) -> Result<bool, Error> {
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
                // A number is JSON when an f64 can hold it: every
                // integer a reader keeps as one fits an f64 too.
                let (text, _) = self.number()?;
                match text.parse::<f64>() {
                    Ok(f) if f.is_finite() => Ok(()),
                    _ => Err(self.out_of_range()),
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
            _ => Err(self.not_a_value()),
        }
    }

    /// The error for a cursor at no JSON value.
    pub(crate) fn not_a_value(&self) -> Error {
        match self.peek() {
            None => self.unexpected("EOF while parsing a value"),
            Some(_) => self.unexpected("expected value"),
        }
    }

    /// Moves past `word` (`null`, `true`, `false`), which must be at the
    /// cursor.
    #[inline]
    pub fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.unexpected("expected ident"))
        }
    }

    /// The number at the cursor: its text, and whether it is integral (no
    /// fraction, no exponent). What it is worth is the reader's rule; a
    /// reader with no way to hold it answers [`Lexer::out_of_range`].
    #[inline]
    pub fn number(&mut self) -> Result<(&'a str, bool), Error> {
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
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.unexpected("invalid number"));
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
                return Err(self.unexpected("invalid number"));
            }
            self.digits();
        }
        Ok((&self.src[start..self.pos], integral))
    }

    /// The error for the number just read when no `f64` can hold it.
    pub fn out_of_range(&self) -> Error {
        self.syntax(self.pos, "number out of range")
    }

    #[inline]
    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    /// The string whose opening quote the cursor is at: a slice of the
    /// input when it has no escapes, otherwise decoded and copied out at
    /// its exact size. Not `#[inline]`: copied into each of its callers,
    /// the PROV reader parsed 2 % slower.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.pos += 1;
        let start = self.pos;
        if self.plain_run()? == b'"' {
            let plain = &self.src[start..self.pos];
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut decoded = std::mem::take(&mut self.scratch);
        decoded.clear();
        decoded.push_str(&self.src[start..self.pos]);
        loop {
            // The cursor is at a backslash. `\"` and `\\` are most of
            // what an inline metric series escapes.
            match self.src.as_bytes().get(self.pos + 1) {
                Some(&b @ (b'"' | b'\\')) => {
                    decoded.push(char::from(b));
                    self.pos += 2;
                }
                _ => {
                    self.pos += 1;
                    self.escape(&mut decoded)?;
                }
            }
            let run = self.pos;
            let stop = self.plain_run()?;
            decoded.push_str(&self.src[run..self.pos]);
            if stop == b'"' {
                self.pos += 1;
                break;
            }
        }
        let exact = decoded.as_str().to_owned();
        self.scratch = decoded;
        Ok(Cow::Owned(exact))
    }

    /// Moves over string content up to the next `"` or `\`, which it
    /// returns with the cursor still at it.
    #[inline]
    fn plain_run(&mut self) -> Result<u8, Error> {
        self.pos = next_stop(self.src.as_bytes(), self.pos);
        match self.peek() {
            Some(stop @ (b'"' | b'\\')) => Ok(stop),
            Some(_) => {
                Err(self
                    .unexpected("control character (\\u0000-\\u001F) found while parsing a string"))
            }
            None => Err(self.unexpected("EOF while parsing a string")),
        }
    }

    /// Decodes the escape whose backslash the cursor has just passed;
    /// `string` decodes `\"` and `\\` itself.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(escape) = self.peek() else {
            return Err(self.unexpected("EOF while parsing a string"));
        };
        self.pos += 1;
        out.push(match escape {
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

    /// An error about the byte at the cursor (or the end of the text),
    /// positioned just past it.
    fn unexpected(&self, message: &'static str) -> Error {
        self.syntax(self.pos + 1, message)
    }

    fn syntax(&self, end: usize, message: &'static str) -> Error {
        Error::at(self.src.as_bytes(), end, message)
    }
}
