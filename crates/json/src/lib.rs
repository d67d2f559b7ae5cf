//! # json
//!
//! The workspace's one JSON codec, std only:
//! - [`Value`] and [`Map`], a parsed or built JSON tree, and [`json!`]
//!   to build one;
//! - [`Lexer`], the one reader of JSON text: [`parse`] drives it to build
//!   a [`Value`], and `prov_model`'s PROV-JSON reader drives it to build a
//!   document with no tree in between;
//! - [`JsonWriter`], the one writer: a [`Value`] prints through it, and
//!   so do documents, service responses and on-disk records.
//!
//! Numbers are the one place readers differ, so the lexer hands back a
//! number's text and whether it is integral, and each reader keeps its
//! own rule: a [`Value`] holds an integer that fits `u64` or `i64` as
//! one, and anything else as a finite `f64`.

mod json_write;
mod lex;
mod macros;
mod value;

pub use json_write::{decimal, to_string, JsonWriter};
pub use lex::{Lexer, Mark};
pub use value::{parse, parse_bytes, Map, Number, Value};

use std::fmt;

/// Malformed JSON: what the reader expected, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: &'static str,
    line: usize,
    column: usize,
}

impl Error {
    /// An error `end` bytes into `text`: 1-based line, and the bytes of
    /// that line up to `end` as the column.
    fn at(text: &[u8], end: usize, message: &'static str) -> Self {
        let upto = &text[..end.min(text.len())];
        Error {
            message,
            line: 1 + upto.iter().filter(|&&b| b == b'\n').count(),
            column: upto.iter().rev().take_while(|&&b| b != b'\n').count(),
        }
    }

    /// 1-based line of the offending byte.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Bytes into that line, the offending one included.
    pub fn column(&self) -> usize {
        self.column
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

impl std::error::Error for Error {}
