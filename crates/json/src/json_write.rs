//! A JSON writer over a byte buffer: the one way the workspace writes
//! JSON. PROV-JSON documents, service responses, on-disk records and
//! every printed [`Value`](crate::Value) go through it.
//!
//! The byte rules, which every file and fixture in the workspace was
//! written with:
//! - a string escapes `"`, `\`, `\n`, `\r`, `\t`, `\b` and `\f` by name
//!   and every other byte below 0x20 as `\u00xx`; everything else,
//!   non-ASCII and U+2028 included, is copied as is;
//! - an integer prints in decimal; an `f64` prints as `{:?}`, a
//!   non-finite one as `null`;
//! - compact mode writes no whitespace; pretty mode puts every member on
//!   a line of its own, indented two spaces per level, with `": "` after
//!   a key, and an empty object or array stays `{}` / `[]`.
//!
//! The caller orders an object's members. A map's keys ([`JsonWriter::key`])
//! must ascend (byte order), as a string-keyed map prints them; debug
//! builds assert it. A record's fields ([`JsonWriter::field`]) print in
//! the order the record declares them, unchecked.
//!
//! Cost model: a clean run of a string is one `extend_from_slice`, an
//! integer is formatted without `fmt`, a float or a `Display` value is
//! formatted into a stack buffer, and nothing else is allocated besides
//! the buffer itself and one byte of state per open object or array. A
//! writer streaming into an [`io::Write`] holds at most 64 KiB: its
//! buffer is allocated once, handed over whenever the next bytes would
//! not fit, and a run longer than the buffer goes straight through. An
//! I/O error is kept and returned by [`JsonWriter::finish`].

use std::fmt::{self, Write as _};
use std::io::{self, Write};

/// The most a streaming writer holds before it hands bytes to its sink.
const SPILL_AT: usize = 64 * 1024;

/// Per byte: 0 when a string copies it as is, else what follows the
/// backslash of its escape (`u` for `\u00xx`).
static ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[0x08] = b'b';
    table[0x0c] = b'f';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// `n` in decimal, at the end of `buf`: the digits written.
pub fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[start..];
        }
    }
}

/// A `fmt::Write` into a stack buffer; it fails once the text outgrows
/// the buffer.
struct StackText {
    buf: [u8; 64],
    len: usize,
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let dest = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        dest.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// One open object or array.
#[derive(Clone, Copy)]
struct Open {
    array: bool,
    /// A member was written into it.
    members: bool,
}

/// Writes JSON into a byte buffer, compact or pretty.
pub struct JsonWriter<W: Write> {
    buf: Vec<u8>,
    sink: W,
    spill_at: usize,
    pretty: bool,
    open: Vec<Open>,
    error: Option<io::Error>,
    /// The last key written into each open container (`None` before the
    /// first, and for arrays).
    #[cfg(debug_assertions)]
    last_keys: Vec<Option<Vec<u8>>>,
}

/// Compact JSON text written by `body`: how a response body or a
/// record is made.
pub fn to_string(body: impl FnOnce(&mut JsonWriter<io::Sink>)) -> String {
    let mut w = JsonWriter::in_memory(false);
    body(&mut w);
    w.into_string()
}

impl JsonWriter<io::Sink> {
    /// A writer whose buffer is where the text ends up: nothing is handed
    /// over; [`JsonWriter::into_string`] takes the text.
    pub fn in_memory(pretty: bool) -> Self {
        Self::with_buffer(io::sink(), pretty, Vec::new(), usize::MAX)
    }

    /// The text written so far, containers still open included: what a
    /// caller copies to close elsewhere while it keeps writing here.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.buf).expect("the writer emits only UTF-8")
    }

    /// The text written.
    pub fn into_string(self) -> String {
        debug_assert!(self.open.is_empty(), "an object or array is still open");
        String::from_utf8(self.buf).expect("the writer emits only UTF-8")
    }
}

impl<W: Write> JsonWriter<W> {
    /// A writer streaming into `sink` through a 64 KiB buffer.
    pub fn new(sink: W, pretty: bool) -> Self {
        Self::with_buffer(sink, pretty, Vec::with_capacity(SPILL_AT), SPILL_AT)
    }

    fn with_buffer(sink: W, pretty: bool, buf: Vec<u8>, spill_at: usize) -> Self {
        JsonWriter {
            buf,
            sink,
            spill_at,
            pretty,
            open: Vec::with_capacity(8),
            error: None,
            #[cfg(debug_assertions)]
            last_keys: Vec::new(),
        }
    }

    /// Hands what is left to the sink; the first I/O error met, if any.
    pub fn finish(mut self) -> io::Result<()> {
        debug_assert!(self.open.is_empty(), "an object or array is still open");
        self.spill();
        self.error.map_or(Ok(()), Err)
    }

    fn spill(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.write_through(&buf);
        self.buf = buf;
        self.buf.clear();
    }

    fn write_through(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.sink.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }

    /// Appends `bytes`, first handing the buffer over when they would
    /// take it past the spill mark; bytes that alone pass it go straight
    /// to the sink.
    fn put(&mut self, bytes: &[u8]) {
        if self.buf.len() + bytes.len() > self.spill_at {
            self.spill();
            if bytes.len() > self.spill_at {
                return self.write_through(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `s` escaped, without quotes.
    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = ESCAPE[b as usize];
            if escape == 0 {
                continue;
            }
            self.put(&bytes[run..i]);
            if escape == b'u' {
                let hex = [HEX[(b >> 4) as usize], HEX[(b & 15) as usize]];
                self.put(&[b'\\', b'u', b'0', b'0', hex[0], hex[1]]);
            } else {
                self.put(&[b'\\', escape]);
            }
            run = i + 1;
        }
        self.put(&bytes[run..]);
    }

    fn newline(&mut self) {
        self.put(b"\n");
        for _ in 0..self.open.len() {
            self.put(b"  ");
        }
    }

    /// Starts a member of the innermost container: its comma and, in
    /// pretty mode, its line.
    fn member(&mut self) {
        let open = self
            .open
            .last_mut()
            .expect("a member needs an open object or array");
        let first = !open.members;
        open.members = true;
        if !first {
            self.put(b",");
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Before a value: in an array the value is a member; in an object
    /// its key started the member.
    fn before_value(&mut self) {
        if matches!(self.open.last(), Some(Open { array: true, .. })) {
            self.member();
        }
    }

    fn begin(&mut self, array: bool, byte: u8) {
        self.before_value();
        self.put(&[byte]);
        self.open.push(Open {
            array,
            members: false,
        });
        #[cfg(debug_assertions)]
        self.last_keys.push(None);
    }

    fn end(&mut self, array: bool, byte: u8) {
        let open = self.open.pop().expect("nothing is open");
        debug_assert_eq!(open.array, array, "closed with the wrong bracket");
        #[cfg(debug_assertions)]
        self.last_keys.pop();
        if self.pretty && open.members {
            self.newline();
        }
        self.put(&[byte]);
    }

    pub fn begin_object(&mut self) {
        self.begin(false, b'{');
    }

    pub fn end_object(&mut self) {
        self.end(false, b'}');
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin_object();
        body(self);
        self.end_object();
    }

    pub fn begin_array(&mut self) {
        self.begin(true, b'[');
    }

    pub fn end_array(&mut self) {
        self.end(true, b']');
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin_array();
        body(self);
        self.end_array();
    }

    fn quoted(&mut self, parts: &[&str]) {
        self.put(b"\"");
        for part in parts {
            self.escaped(part);
        }
        self.put(b"\"");
    }

    /// The next map member's key.
    pub fn key(&mut self, key: &str) {
        self.key_parts(&[key]);
    }

    /// The next map member's key: `parts` concatenated.
    pub fn key_parts(&mut self, parts: &[&str]) {
        #[cfg(debug_assertions)]
        self.check_key_order(parts);
        self.field_parts(parts);
    }

    /// The next record field's name, in the record's own order; the
    /// writer, for its value.
    pub fn field(&mut self, name: &str) -> &mut Self {
        self.field_parts(&[name]);
        self
    }

    fn field_parts(&mut self, parts: &[&str]) {
        self.member();
        self.quoted(parts);
        self.put(if self.pretty { b": " } else { b":" });
    }

    #[cfg(debug_assertions)]
    fn check_key_order(&mut self, parts: &[&str]) {
        let key = parts.concat().into_bytes();
        let last = self
            .last_keys
            .last_mut()
            .expect("a key needs an open object");
        if let Some(previous) = last.as_ref() {
            assert!(
                *previous < key,
                "object keys must ascend: {:?} after {:?}",
                String::from_utf8_lossy(&key),
                String::from_utf8_lossy(previous)
            );
        }
        *last = Some(key);
    }

    pub fn str(&mut self, s: &str) {
        self.before_value();
        self.quoted(&[s]);
    }

    /// `parts` concatenated, as one string.
    pub fn str_parts(&mut self, parts: &[&str]) {
        self.before_value();
        self.quoted(parts);
    }

    /// `v`'s `Display` text as a string, formatted on the stack (a
    /// text longer than 64 bytes takes one `String`).
    pub fn display(&mut self, v: impl fmt::Display) {
        let mut text = StackText {
            buf: [0; 64],
            len: 0,
        };
        if write!(text, "{v}").is_ok() {
            let s = std::str::from_utf8(&text.buf[..text.len]).expect("written from a str");
            self.str(s);
        } else {
            self.str(&v.to_string());
        }
    }

    pub fn u64(&mut self, n: u64) {
        self.before_value();
        self.put(decimal(n, &mut [0; 20]));
    }

    pub fn i64(&mut self, n: i64) {
        self.before_value();
        if n < 0 {
            self.put(b"-");
        }
        self.put(decimal(n.unsigned_abs(), &mut [0; 20]));
    }

    /// `v` as `{:?}` prints it; `null` when it is not finite.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        self.before_value();
        let mut text = StackText {
            buf: [0; 64],
            len: 0,
        };
        write!(text, "{v:?}").expect("an f64 prints in under 64 bytes");
        self.put(&text.buf[..text.len]);
    }

    pub fn bool(&mut self, b: bool) {
        self.before_value();
        self.put(if b { b"true" } else { b"false" });
    }

    pub fn null(&mut self) {
        self.before_value();
        self.put(b"null");
    }

    /// `text`, which must already be one JSON value, copied as is: how
    /// stored bytes are embedded without being parsed and printed again.
    pub fn raw(&mut self, text: &str) {
        self.before_value();
        self.put(text.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Value};

    /// `value` written through the writer, compact or pretty.
    fn written(value: &Value, pretty: bool) -> String {
        let mut w = JsonWriter::in_memory(pretty);
        w.value(value);
        w.into_string()
    }

    fn every_control_byte() -> String {
        (0u8..0x20).map(char::from).collect()
    }

    /// A value holding every escape, every control byte, U+2028,
    /// integer and float extremes, non-finite floats and empty objects
    /// and arrays nested at several depths.
    fn tree() -> Value {
        json!({
            "": "",
            "quote \" and \\ backslash": "\"\\/",
            "controls": every_control_byte(),
            "unicode": "é \u{2028} 😀 \u{7f}",
            "ints": [0, 1, -1, i64::MIN, i64::MAX, u64::MAX],
            "floats": [0.0, -0.0, 1.5, 1e21, 1e-7, 5e-324, f64::MAX, -2.5e-9, 123456789.125],
            "nonfinite": [f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            "empty": {"object": {}, "array": []},
            "nested": [[], {}, [1, [2, {"a": null, "b": true, "c": false}]]],
        })
    }

    /// `tree()` as the workspace's previous JSON printer printed it,
    /// compact and pretty, captured before this writer replaced it: the
    /// reference this writer is held to.
    const TREE_COMPACT: &str = concat!(
        r#"{"":"","controls":"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f","empty":{"array":[],"object":{}},"floats":[0.0,-0.0,1.5,1e21,1e-7,5e-324,1.7976931348623157e308,-2.5e-9,123456789.125],"ints":[0,1,-1,-9223372036854775808,9223372036854775807,18446744073709551615],"nested":[[],{},[1,[2,{"a":null,"b":true,"c":false}]]],"nonfinite":[null,null,null],"quote \" and \\ backslash":"\"\\/","#,
        "\"unicode\":\"é \u{2028} 😀 \u{7f}\"}"
    );

    const TREE_PRETTY: &str = concat!(
        r#"{
  "": "",
  "controls": "\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f",
  "empty": {
    "array": [],
    "object": {}
  },
  "floats": [
    0.0,
    -0.0,
    1.5,
    1e21,
    1e-7,
    5e-324,
    1.7976931348623157e308,
    -2.5e-9,
    123456789.125
  ],
  "ints": [
    0,
    1,
    -1,
    -9223372036854775808,
    9223372036854775807,
    18446744073709551615
  ],
  "nested": [
    [],
    {},
    [
      1,
      [
        2,
        {
          "a": null,
          "b": true,
          "c": false
        }
      ]
    ]
  ],
  "nonfinite": [
    null,
    null,
    null
  ],
  "quote \" and \\ backslash": "\"\\/",
"#,
        "  \"unicode\": \"é \u{2028} 😀 \u{7f}\"\n}"
    );

    /// `a"b\c`, every control byte, `é` and U+2028, printed as a JSON
    /// string by the same previous printer.
    const NASTY_PRINTED: &str = concat!(
        r#""a\"b\\c\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001fé"#,
        "\u{2028}\""
    );

    #[test]
    fn values_print_as_the_value_tree_prints() {
        let tree = tree();
        assert_eq!(written(&tree, false), TREE_COMPACT);
        assert_eq!(written(&tree, true), TREE_PRETTY);
        assert_eq!(tree.to_string(), TREE_COMPACT);
        assert_eq!(format!("{tree:#}"), TREE_PRETTY);
        let nonfinite = to_string(|w| {
            w.array(|w| {
                [f64::NAN, f64::INFINITY, -0.0]
                    .into_iter()
                    .for_each(|v| w.f64(v))
            })
        });
        assert_eq!(nonfinite, "[null,null,-0.0]");
    }

    #[test]
    fn keys_strings_and_display_escape_alike() {
        let nasty = format!("a\"b\\c{}é\u{2028}", every_control_byte());
        let body = to_string(|w| {
            w.object(|w| {
                w.key(&nasty);
                w.display(&nasty);
            })
        });
        assert_eq!(body, format!("{{{NASTY_PRINTED}:{NASTY_PRINTED}}}"));
        // Longer than the stack buffer: the same bytes through a String.
        let long = "x\"".repeat(100);
        let printed = format!("\"{}\"", "x\\\"".repeat(100));
        assert_eq!(to_string(|w| w.display(&long)), printed);
    }

    #[test]
    fn qualified_names_print_as_prefix_colon_local() {
        let q = ["ex", ":", "a\"b"];
        let body = to_string(|w| {
            w.object(|w| {
                w.key_parts(&q);
                w.str_parts(&q);
            })
        });
        assert_eq!(body, r#"{"ex:a\"b":"ex:a\"b"}"#);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn keys_out_of_order_are_caught() {
        to_string(|w| {
            w.object(|w| {
                w.key("b");
                w.null();
                w.key("a");
                w.null();
            })
        });
    }

    /// A sink that records how much each `write` call handed it.
    struct Chunks(Vec<usize>, Vec<u8>);

    impl Write for Chunks {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.len());
            self.1.extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_streaming_writer_holds_at_most_64_kib() {
        // Short items fill the buffer; a run longer than the buffer goes
        // through whole, and the buffer never grows.
        let item = "y".repeat(1000);
        let long = "z".repeat(100_000) + "\"";
        let items: Vec<&str> = (0..300)
            .map(|i| {
                if i == 150 {
                    long.as_str()
                } else {
                    item.as_str()
                }
            })
            .collect();
        let mut chunks = Chunks(Vec::new(), Vec::new());
        let mut w = JsonWriter::new(&mut chunks, true);
        w.array(|w| items.iter().for_each(|s| w.str(s)));
        assert_eq!(w.buf.capacity(), SPILL_AT);
        w.finish().unwrap();
        let quoted: Vec<String> = items
            .iter()
            .map(|s| format!("  \"{}\"", s.replace('"', "\\\"")))
            .collect();
        let reference = format!("[\n{}\n]", quoted.join(",\n"));
        assert_eq!(String::from_utf8(chunks.1).unwrap(), reference);
        assert!(chunks.0.len() >= 5, "{:?}", chunks.0);
        let longest_run = 100_000;
        assert!(chunks.0.contains(&longest_run), "{:?}", chunks.0);
        assert!(
            chunks.0.iter().all(|&n| n <= SPILL_AT || n == longest_run),
            "{:?}",
            chunks.0
        );
    }

    #[test]
    fn a_sink_error_is_returned_by_finish() {
        let mut full = [0u8; 10];
        let mut w = JsonWriter::new(&mut full[..], false);
        w.str(&"z".repeat(100));
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::WriteZero);
    }
}
