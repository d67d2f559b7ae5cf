//! A JSON writer over a byte buffer: the one way the PROV-JSON document
//! path and the service's responses write JSON.
//!
//! The bytes are those the workspace's `serde_json` prints a `Value`
//! tree as, so text written here equals the tree built for it and
//! printed:
//! - a string escapes `"`, `\`, `\n`, `\r`, `\t`, `\b` and `\f` by name
//!   and every other byte below 0x20 as `\u00xx`; everything else,
//!   non-ASCII and U+2028 included, is copied as is;
//! - an integer prints in decimal; an `f64` prints as `{:?}`, a
//!   non-finite one as `null`;
//! - compact mode writes no whitespace; pretty mode puts every member on
//!   a line of its own, indented two spaces per level, with `": "` after
//!   a key, and an empty object or array stays `{}` / `[]`.
//!
//! Object keys are the caller's to order, and they must ascend (byte
//! order), as a string-keyed map prints them; debug builds assert it.
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

use crate::qname::QName;

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
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
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

/// Writes JSON into a byte buffer, compact or pretty. Outside this
/// crate it is reached through [`to_string`].
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

/// Compact JSON text written by `body`: how a response body is made.
pub fn to_string(body: impl FnOnce(&mut JsonWriter<io::Sink>)) -> String {
    let mut w = JsonWriter::in_memory(false);
    body(&mut w);
    w.into_string()
}

impl JsonWriter<io::Sink> {
    /// A writer whose buffer is where the text ends up: nothing is handed
    /// over; [`JsonWriter::into_string`] takes the text.
    pub(crate) fn in_memory(pretty: bool) -> Self {
        Self::with_buffer(io::sink(), pretty, Vec::new(), usize::MAX)
    }

    /// The text written.
    pub(crate) fn into_string(self) -> String {
        debug_assert!(self.open.is_empty(), "an object or array is still open");
        String::from_utf8(self.buf).expect("the writer emits only UTF-8")
    }
}

impl<W: Write> JsonWriter<W> {
    /// A writer streaming into `sink` through a 64 KiB buffer.
    pub(crate) fn new(sink: W, pretty: bool) -> Self {
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
    pub(crate) fn finish(mut self) -> io::Result<()> {
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
    fn value(&mut self) {
        if matches!(self.open.last(), Some(Open { array: true, .. })) {
            self.member();
        }
    }

    fn begin(&mut self, array: bool, byte: u8) {
        self.value();
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

    pub(crate) fn begin_object(&mut self) {
        self.begin(false, b'{');
    }

    pub(crate) fn end_object(&mut self) {
        self.end(false, b'}');
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin_object();
        body(self);
        self.end_object();
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin(true, b'[');
        body(self);
        self.end(true, b']');
    }

    fn quoted(&mut self, parts: &[&str]) {
        self.put(b"\"");
        for part in parts {
            self.escaped(part);
        }
        self.put(b"\"");
    }

    /// The next member's key.
    pub fn key(&mut self, key: &str) {
        self.key_parts(&[key]);
    }

    /// The next member's key, `q` as `prefix:local`.
    pub fn key_qname(&mut self, q: &QName) {
        self.key_parts(&[q.prefix(), ":", q.local()]);
    }

    /// The next member's key: `parts` concatenated.
    fn key_parts(&mut self, parts: &[&str]) {
        #[cfg(debug_assertions)]
        self.check_key_order(parts);
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
        self.value();
        self.quoted(&[s]);
    }

    /// `q` as the string `prefix:local`.
    pub fn qname(&mut self, q: &QName) {
        self.str_parts(&[q.prefix(), ":", q.local()]);
    }

    /// `parts` concatenated, as one string.
    pub fn str_parts(&mut self, parts: &[&str]) {
        self.value();
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
        self.value();
        self.put(decimal(n, &mut [0; 20]));
    }

    pub fn i64(&mut self, n: i64) {
        self.value();
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
        self.value();
        let mut text = StackText {
            buf: [0; 64],
            len: 0,
        };
        write!(text, "{v:?}").expect("an f64 prints in under 64 bytes");
        self.put(&text.buf[..text.len]);
    }

    pub fn bool(&mut self, b: bool) {
        self.value();
        self.put(if b { b"true" } else { b"false" });
    }

    pub fn null(&mut self) {
        self.value();
        self.put(b"null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

    /// `value` written through the writer, compact or pretty.
    fn written(value: &Value, pretty: bool) -> String {
        fn walk<W: Write>(w: &mut JsonWriter<W>, v: &Value) {
            match v {
                Value::Null => w.null(),
                Value::Bool(b) => w.bool(*b),
                Value::Number(n) => match (n.as_u64(), n.as_i64()) {
                    (Some(u), _) => w.u64(u),
                    (None, Some(i)) => w.i64(i),
                    _ => w.f64(n.as_f64().unwrap()),
                },
                Value::String(s) => w.str(s),
                Value::Array(items) => w.array(|w| items.iter().for_each(|item| walk(w, item))),
                Value::Object(map) => w.object(|w| {
                    for (k, item) in map {
                        w.key(k);
                        walk(w, item);
                    }
                }),
            }
        }
        let mut w = JsonWriter::in_memory(pretty);
        walk(&mut w, value);
        w.into_string()
    }

    fn every_control_byte() -> String {
        (0u8..0x20).map(char::from).collect()
    }

    #[test]
    fn values_print_as_the_value_tree_prints() {
        let tree = json!({
            "": "",
            "quote \" and \\ backslash": "\"\\/",
            "controls": every_control_byte(),
            "unicode": "é \u{2028} 😀 \u{7f}",
            "ints": [0, 1, -1, i64::MIN, i64::MAX, u64::MAX],
            "floats": [0.0, -0.0, 1.5, 1e21, 1e-7, 5e-324, f64::MAX, -2.5e-9, 123456789.125],
            "nonfinite": [f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            "empty": {"object": {}, "array": []},
            "nested": [[], {}, [1, [2, {"a": null, "b": true, "c": false}]]],
        });
        for pretty in [false, true] {
            let reference = if pretty {
                serde_json::to_string_pretty(&tree).unwrap()
            } else {
                serde_json::to_string(&tree).unwrap()
            };
            assert_eq!(written(&tree, pretty), reference, "pretty: {pretty}");
        }
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
        let mut reference = serde_json::Map::new();
        reference.insert(nasty.clone(), json!(nasty));
        assert_eq!(body, Value::Object(reference).to_string());
        // Longer than the stack buffer: the same bytes through a String.
        let long = "x\"".repeat(100);
        assert_eq!(to_string(|w| w.display(&long)), json!(long).to_string());
    }

    #[test]
    fn qualified_names_print_as_prefix_colon_local() {
        let q = QName::new("ex", "a\"b");
        let body = to_string(|w| {
            w.object(|w| {
                w.key_qname(&q);
                w.qname(&q);
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
        let reference = serde_json::to_string_pretty(&items).unwrap();
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
