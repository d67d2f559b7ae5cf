//! The service's only HTTP/1.1 reader: the server reads requests with
//! it (`HttpParser<RequestLine>`), `Client` and `http::request` read
//! responses (`HttpParser<StatusLine>`). A connection owns the socket;
//! [`HttpParser`] owns the bytes, read straight into its buffer, and
//! each [`HttpParser::next`] takes one message out, leaving what a peer
//! pipelined behind it. A head is one grammar either way; only the
//! start line's three tokens are read per direction ([`StartLine`]).
//! The refusals — 431 for a header section over [`MAX_HEADER_BYTES`] or
//! [`MAX_HEADERS`] (found *incrementally*, so a flood is refused before
//! any terminator arrives), 501 for `Transfer-Encoding: chunked`, 400
//! for everything else malformed, an ambiguous body framing included
//! (RFC 9112 §5.1, §6.3) — are what the robustness tests assert on. The
//! server answers one with its status; a client reads it as a transport
//! error ([`io::ErrorKind::InvalidData`]).

use std::io::{self, Read};

/// Maximum total bytes in the start line + header section; a peer
/// streaming endless headers is refused (431) once the budget is spent
/// instead of growing a connection's buffer without bound.
pub(crate) const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Maximum number of header fields (431 beyond it).
pub(crate) const MAX_HEADERS: usize = 128;
/// The least one read asks the socket for.
const READ_CHUNK: usize = 16 * 1024;

/// A refusal: the status a server answers it with, and the message.
pub(crate) type Refusal = (u16, String);

/// How one direction reads the three tokens of a start line.
pub(crate) trait StartLine: Sized {
    fn read(tokens: [&str; 3]) -> Result<Self, Refusal>;
}

/// `METHOD TARGET HTTP/1.x`: what a server reads.
#[derive(Debug)]
pub(crate) struct RequestLine {
    pub method: String,
    pub target: String,
}

impl StartLine for RequestLine {
    fn read([method, target, version]: [&str; 3]) -> Result<Self, Refusal> {
        for (token, what) in [(method, "method"), (target, "path"), (version, "version")] {
            if token.is_empty() {
                return Err((400, format!("missing {what}")));
            }
        }
        http_version(version)?;
        Ok(RequestLine {
            method: method.to_string(),
            target: target.to_string(),
        })
    }
}

/// `HTTP/1.x STATUS REASON`: what a client reads (the reason, of which
/// only the first word is a token, is not kept).
#[derive(Debug)]
pub(crate) struct StatusLine {
    pub status: u16,
}

impl StartLine for StatusLine {
    fn read([version, status, _reason]: [&str; 3]) -> Result<Self, Refusal> {
        http_version(version)?;
        if status.len() != 3 || !status.bytes().all(|b| b.is_ascii_digit()) {
            return Err((400, format!("bad status {status:?}")));
        }
        Ok(StatusLine {
            status: status.parse().unwrap_or_default(),
        })
    }
}

fn http_version(version: &str) -> Result<(), Refusal> {
    if version.starts_with("HTTP/1.") {
        Ok(())
    } else {
        Err((400, format!("unsupported version {version}")))
    }
}

/// One message: its start line, the fields the service reads, its body.
#[derive(Debug)]
pub(crate) struct Message<S> {
    pub start: S,
    /// W3C `traceparent`, if the peer sent one.
    pub traceparent: Option<String>,
    /// `Connection: keep-alive` was sent (opt-in: absent it, close).
    pub keep_alive: bool,
    /// An integer-seconds `Retry-After` (this server sends no dates).
    pub retry_after: Option<u64>,
    content_length: usize,
    /// `Transfer-Encoding: chunked` was named: not implemented, so the
    /// message is refused (501) rather than misread as an empty body.
    chunked: bool,
    pub body: Vec<u8>,
}

#[derive(Debug)]
enum State<S> {
    /// Accumulating the start line + header section.
    Head,
    /// Header section done; `content_length` body bytes outstanding.
    Body(Message<S>),
}

/// An incremental HTTP/1.1 message parser: read bytes in with
/// [`HttpParser::read_from`], take messages out with [`HttpParser::next`].
/// After a refusal (`Err((status, message))`) the connection is closed.
#[derive(Debug)]
pub(crate) struct HttpParser<S> {
    buf: Vec<u8>,
    /// How far the head-terminator scan has progressed, so a slowloris
    /// trickling one byte at a time costs O(1) per byte, not O(n²).
    scan: usize,
    state: State<S>,
}

impl<S: StartLine> HttpParser<S> {
    pub fn new() -> HttpParser<S> {
        HttpParser {
            buf: Vec::new(),
            scan: 0,
            state: State::Head,
        }
    }

    /// Reads once from `source` straight into the buffer; `Ok(0)` is
    /// the end of the stream. A read asks for at least
    /// [`READ_CHUNK`] bytes, and for a body's missing bytes only up to
    /// as many as are already held: a large body takes few reads, and
    /// its announced length is not trusted before its bytes arrive.
    pub fn read_from(&mut self, source: &mut impl Read) -> io::Result<usize> {
        let held = self.buf.len();
        let owed = match &self.state {
            State::Body(message) => message.content_length.saturating_sub(held),
            State::Head => 0,
        };
        self.buf.resize(held + owed.min(held).max(READ_CHUNK), 0);
        let read = source.read(&mut self.buf[held..]);
        self.buf.truncate(held + read.as_ref().map_or(0, |&n| n));
        read
    }

    /// True when bytes no message has taken are buffered — what the
    /// server's read timeout watches, and what keeps a client from
    /// parking a connection.
    pub fn has_partial(&self) -> bool {
        match self.state {
            State::Head => !self.buf.is_empty(),
            State::Body(_) => true,
        }
    }

    /// How many CR and LF bytes lead the buffer: a peer may send stray
    /// CRLFs between messages (and the shutdown nudge is an empty
    /// connection).
    fn blank_lead(&self) -> usize {
        self.buf
            .iter()
            .take_while(|&&b| matches!(b, b'\r' | b'\n'))
            .count()
    }

    /// Tries to complete one message from the buffered bytes, refusing
    /// a body over `max_body` before it arrives. `Ok(None)` means "need
    /// more bytes"; call again after the next [`Self::read_from`]. A
    /// refusal leaves the bytes that caused it buffered.
    pub fn next(&mut self, max_body: usize) -> Result<Option<Message<S>>, Refusal> {
        loop {
            match &self.state {
                State::Head => {
                    let lead = self.blank_lead();
                    if lead > 0 {
                        self.buf.drain(..lead);
                        self.scan = 0;
                    }
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    let Some(end) = find_head_end(&self.buf, self.scan) else {
                        // No terminator yet: enforce the budgets
                        // incrementally, so a flood with no blank line
                        // is still refused (431) instead of buffered
                        // without bound.
                        let lines = self.buf.iter().filter(|&&b| b == b'\n').count();
                        if lines.saturating_sub(1) > MAX_HEADERS {
                            return Err(too_many_headers());
                        }
                        if self.buf.len() >= MAX_HEADER_BYTES {
                            return Err(over_budget());
                        }
                        // Back off two bytes so a terminator split
                        // across reads is still found.
                        self.scan = self.buf.len().saturating_sub(2);
                        return Ok(None);
                    };
                    if end > MAX_HEADER_BYTES {
                        return Err(over_budget());
                    }
                    let message = parse_head(&self.buf[..end])?;
                    if message.chunked {
                        return Err((
                            501,
                            "Transfer-Encoding: chunked is not supported; send Content-Length"
                                .to_string(),
                        ));
                    }
                    if message.content_length > max_body {
                        return Err((
                            400,
                            format!("body of {} bytes exceeds limit", message.content_length),
                        ));
                    }
                    self.buf.drain(..end);
                    self.scan = 0;
                    if message.content_length == 0 {
                        return Ok(Some(message));
                    }
                    self.state = State::Body(message);
                }
                State::Body(message) => {
                    let length = message.content_length;
                    if self.buf.len() < length {
                        return Ok(None);
                    }
                    let State::Body(mut message) = std::mem::replace(&mut self.state, State::Head)
                    else {
                        unreachable!()
                    };
                    // A body that ends the buffer leaves it uncopied.
                    let rest = self.buf.split_off(length);
                    message.body = std::mem::replace(&mut self.buf, rest);
                    return Ok(Some(message));
                }
            }
        }
    }

    /// The peer closed its write side. `None` means the stream ended
    /// cleanly between messages; `Some((status, message))` is the
    /// refusal of a message cut off mid-flight.
    pub fn finish_eof(&self) -> Option<Refusal> {
        match &self.state {
            State::Body(_) => Some((400, "short body: failed to fill whole buffer".to_string())),
            State::Head => {
                let lead = self.blank_lead();
                if lead == self.buf.len() {
                    return None;
                }
                // A head that ended before its blank line: whatever is
                // wrong with the lines that did arrive (start line
                // first, then each field), else the missing blank line.
                Some(parse_head::<S>(&self.buf[lead..]).err().unwrap_or_else(|| {
                    (400, "header section ended without a blank line".to_string())
                }))
            }
        }
    }
}

/// Reads one message from `source`, reading only when the parser needs
/// bytes. `Ok(None)`: the stream ended before a byte of one arrived. A
/// refusal is [`io::ErrorKind::InvalidData`], a stream cut off
/// mid-message [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_message<S: StartLine>(
    parser: &mut HttpParser<S>,
    source: &mut impl Read,
    max_body: usize,
) -> io::Result<Option<Message<S>>> {
    loop {
        match parser.next(max_body) {
            Ok(None) => {}
            done => {
                return done.map_err(|(_, msg)| io::Error::new(io::ErrorKind::InvalidData, msg))
            }
        }
        match parser.read_from(source) {
            Ok(0) => {
                return parser.finish_eof().map_or(Ok(None), |(_, msg)| {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, msg))
                })
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn over_budget() -> Refusal {
    (
        431,
        format!("header section exceeds {MAX_HEADER_BYTES} bytes"),
    )
}

fn too_many_headers() -> Refusal {
    (431, format!("more than {MAX_HEADERS} header fields"))
}

/// Finds the end of the header section (the byte *after* the blank
/// line), scanning from `from`. The section ends at the first empty
/// line: `\n\r\n` or `\n\n`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Parses a header section (start line through blank line, or as far
/// as it got when the peer closed early) into a message awaiting its
/// body.
fn parse_head<S: StartLine>(head: &[u8]) -> Result<Message<S>, Refusal> {
    fn utf8(line: &[u8]) -> Result<&str, Refusal> {
        let invalid = "read error: stream did not contain valid UTF-8";
        std::str::from_utf8(line).map_err(|_| (400, invalid.to_string()))
    }
    let mut lines = head.split(|&b| b == b'\n');
    let mut tokens = utf8(lines.next().unwrap_or_default())?.split_whitespace();
    let mut token = || tokens.next().unwrap_or_default();
    let mut message = Message {
        start: S::read([token(), token(), token()])?,
        traceparent: None,
        keep_alive: false,
        retry_after: None,
        content_length: 0,
        chunked: false,
        body: Vec::new(),
    };
    let mut content_length = None;
    let mut header_count = 0usize;
    for line in lines {
        let text = utf8(line)?.trim_end_matches('\r');
        if text.trim().is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(too_many_headers());
        }
        let Some((name, value)) = text.split_once(':') else {
            continue;
        };
        // RFC 9112 §5.1: a name followed by whitespace is refused, or
        // `Content-Length : 5` would frame nothing and its body would
        // be read as the next message.
        if name.ends_with([' ', '\t']) {
            return Err((
                400,
                "whitespace between a header field name and its colon".to_string(),
            ));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` (RFC 9110 §8.6): `usize::from_str` alone would
            // take a leading `+`.
            let length = value
                .parse()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                .ok_or((400, "bad content-length".to_string()))?;
            if content_length.is_some_and(|earlier| earlier != length) {
                return Err((400, "conflicting content-length values".to_string()));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            message.chunked |= value.to_ascii_lowercase().contains("chunked");
        } else if name.eq_ignore_ascii_case("traceparent") {
            message.traceparent = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            message.keep_alive = value.eq_ignore_ascii_case("keep-alive");
        } else if name.eq_ignore_ascii_case("retry-after") {
            message.retry_after = value.parse().ok();
        }
    }
    message.content_length = content_length.unwrap_or(0);
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn parser() -> HttpParser<RequestLine> {
        HttpParser::new()
    }

    /// Reads all of `bytes` into the parser.
    fn push<S: StartLine>(p: &mut HttpParser<S>, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            p.read_from(&mut bytes).unwrap();
        }
    }

    fn next(p: &mut HttpParser<RequestLine>) -> Result<Option<Request>, Refusal> {
        p.next(1024).map(|message| message.map(Request::from))
    }

    #[test]
    fn parses_a_complete_request_in_one_push() {
        let mut p = parser();
        push(
            &mut p,
            b"POST /api/v0/documents?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
        );
        let req = next(&mut p).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/v0/documents");
        assert_eq!(req.query, vec![("x".to_string(), "1".to_string())]);
        assert_eq!(req.body, b"body");
        assert!(!req.keep_alive);
        assert!(next(&mut p).unwrap().is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn parses_byte_at_a_time() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let mut p = parser();
        for (i, b) in raw.iter().enumerate() {
            push(&mut p, &[*b]);
            let got = next(&mut p).unwrap();
            if i + 1 < raw.len() {
                assert!(got.is_none(), "complete too early at byte {i}");
            } else {
                let req = got.unwrap();
                assert_eq!(req.path, "/healthz");
                assert!(req.keep_alive);
            }
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = parser();
        push(&mut p, b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n");
        let paths: Vec<String> = std::iter::from_fn(|| next(&mut p).unwrap())
            .map(|r| r.path)
            .collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
    }

    #[test]
    fn header_field_cap_fires_without_a_terminator() {
        let mut p = parser();
        push(&mut p, b"GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            push(&mut p, format!("X-{i}: v\r\n").as_bytes());
        }
        let err = next(&mut p).unwrap_err();
        assert_eq!(err.0, 431);
        assert!(err.1.contains("header fields"), "{}", err.1);
    }

    #[test]
    fn header_byte_budget_fires_without_a_terminator() {
        let mut p = parser();
        push(&mut p, b"GET / HTTP/1.1\r\nX-Flood: ");
        push(&mut p, &vec![b'a'; MAX_HEADER_BYTES]);
        let err = next(&mut p).unwrap_err();
        assert_eq!(err.0, 431);
        assert!(err.1.contains("exceeds"), "{}", err.1);
    }

    #[test]
    fn chunked_rejected_with_501() {
        let mut p = parser();
        push(
            &mut p,
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        let err = next(&mut p).unwrap_err();
        assert_eq!(err.0, 501);
    }

    #[test]
    fn oversized_body_rejected_before_the_body_arrives() {
        let mut p = parser();
        push(&mut p, b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        let err = next(&mut p).unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("exceeds limit"), "{}", err.1);
    }

    #[test]
    fn eof_mid_body_is_a_short_body() {
        let mut p = parser();
        push(&mut p, b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal");
        assert!(next(&mut p).unwrap().is_none());
        let (status, msg) = p.finish_eof().unwrap();
        assert_eq!(status, 400);
        assert!(msg.starts_with("short body"), "{msg}");
    }

    #[test]
    fn eof_between_requests_is_clean() {
        let mut p = parser();
        push(&mut p, b"GET / HTTP/1.1\r\n\r\n");
        assert!(next(&mut p).unwrap().is_some());
        assert!(p.finish_eof().is_none());
        let mut empty = parser();
        push(&mut empty, b"\r\n");
        assert!(next(&mut empty).unwrap().is_none());
        assert!(empty.finish_eof().is_none());
    }

    #[test]
    fn eof_mid_head_names_what_was_wrong_with_the_lines_that_arrived() {
        for (raw, want) in [
            (&b"GET"[..], "missing path"),
            (&b"GET /x"[..], "missing version"),
            (&b"GET /x SPDY/99"[..], "unsupported version"),
            (
                &b"GET /x HTTP/1.1\r\nHost: h\r\n"[..],
                "without a blank line",
            ),
        ] {
            let mut p = parser();
            push(&mut p, raw);
            assert!(next(&mut p).unwrap().is_none(), "{want}");
            let (status, msg) = p.finish_eof().unwrap();
            assert_eq!(status, 400, "{msg}");
            assert!(msg.contains(want), "{msg} vs {want}");
        }
    }

    #[test]
    fn whitespace_before_a_header_colon_is_refused() {
        // Read as no Content-Length at all, the body would be parsed
        // as a second request.
        let mut p = parser();
        push(
            &mut p,
            b"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
        );
        let (status, msg) = next(&mut p).unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("colon"), "{msg}");
    }

    #[test]
    fn two_different_content_lengths_are_refused() {
        let mut p = parser();
        push(
            &mut p,
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
        );
        let (status, msg) = next(&mut p).unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("conflicting"), "{msg}");
        // The same value twice is one length.
        let mut p = parser();
        push(
            &mut p,
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert_eq!(next(&mut p).unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn a_content_length_that_is_not_all_digits_is_refused() {
        for value in ["+5", "-5", " ", "5 5", "0x5"] {
            let mut p = parser();
            push(
                &mut p,
                format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello").as_bytes(),
            );
            let (status, msg) = next(&mut p).unwrap_err();
            assert_eq!(status, 400, "{value:?}");
            assert_eq!(msg, "bad content-length", "{value:?}");
        }
    }

    #[test]
    fn a_response_is_read_by_the_same_rules() {
        let mut p = HttpParser::<StatusLine>::new();
        push(
            &mut p,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nRetry-After: 1\r\nConnection: keep-alive\r\n\r\n{}",
        );
        let response = p.next(usize::MAX).unwrap().unwrap();
        assert_eq!(response.start.status, 503);
        assert_eq!(response.retry_after, Some(1));
        assert!(response.keep_alive);
        assert_eq!(response.body, b"{}");
        assert!(!p.has_partial());

        for (raw, want) in [
            (&b"HTTP/1.1 20 OK\r\n\r\n"[..], "bad status"),
            (&b"HTTP/1.1 2000 OK\r\n\r\n"[..], "bad status"),
            (&b"HTTP/1.1 +20 OK\r\n\r\n"[..], "bad status"),
            (&b"HTTP/1.1\r\n\r\n"[..], "bad status"),
            (&b"SPDY/3 200 OK\r\n\r\n"[..], "unsupported version"),
            (
                &b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}"[..],
                "bad content-length",
            ),
        ] {
            let mut p = HttpParser::<StatusLine>::new();
            push(&mut p, raw);
            let (_, msg) = p.next(usize::MAX).unwrap_err();
            assert!(msg.contains(want), "{msg} vs {want}");
            assert!(p.has_partial(), "a refusal keeps its bytes");
        }
    }

    /// What a parser makes of `chunks` read one after another: every
    /// message it completes, then the refusal that stopped it or what
    /// the end of the stream would mean.
    fn outcome<S: StartLine + std::fmt::Debug>(chunks: &[&[u8]]) -> Vec<String> {
        let mut p = HttpParser::<S>::new();
        let mut seen = Vec::new();
        for chunk in chunks {
            push(&mut p, chunk);
            loop {
                match p.next(1024) {
                    Ok(Some(message)) => seen.push(format!("{message:?}")),
                    Ok(None) => break,
                    Err(refusal) => {
                        seen.push(format!("refused {refusal:?}"));
                        return seen;
                    }
                }
            }
        }
        seen.push(format!("at eof {:?}", p.finish_eof()));
        seen
    }

    /// Every byte split of `raw` reads as one read of all of it does.
    /// Past 4 KiB (only the 32 KiB flood) every 61st split is tried, or
    /// a debug build spends half a minute on it.
    fn splits_agree<S: StartLine + std::fmt::Debug>(raw: &[u8]) -> Vec<String> {
        let whole = outcome::<S>(&[raw]);
        let step = if raw.len() > 4096 { 61 } else { 1 };
        for at in (0..=raw.len()).step_by(step) {
            let (a, b) = raw.split_at(at);
            assert_eq!(outcome::<S>(&[a, b]), whole, "split at {at}");
        }
        whole
    }

    /// Heads the parser refuses in either direction, after `start`.
    fn refused_framings(start: &str) -> Vec<Vec<u8>> {
        let mut fields = String::new();
        for i in 0..=MAX_HEADERS {
            fields.push_str(&format!("X-{i}: v\r\n"));
        }
        [
            "Content-Length: +2\r\n\r\n{}".to_string(),
            "Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}!".to_string(),
            "Content-Length : 2\r\n\r\n{}".to_string(),
            "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n".to_string(),
            format!("{fields}\r\n"),
            format!("X-Flood: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES)),
        ]
        .into_iter()
        .map(|rest| format!("{start}\r\n{rest}").into_bytes())
        .collect()
    }

    #[test]
    fn every_byte_split_reads_as_the_whole_buffer_does() {
        let requests: [&[u8]; 4] = [
            b"GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
            b"POST /b?x=1 HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nhi",
            b"POST /c HTTP/1.1\r\nContent-Length: 9\r\n\r\ncut short",
        ];
        for raw in requests {
            let seen = splits_agree::<RequestLine>(raw);
            assert!(!seen.iter().any(|s| s.starts_with("refused")), "{seen:?}");
        }
        let responses: [&[u8]; 4] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{}",
            b"HTTP/1.1 204 No Content\r\nConnection: keep-alive\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        ];
        for raw in responses {
            let seen = splits_agree::<StatusLine>(raw);
            assert!(!seen.iter().any(|s| s.starts_with("refused")), "{seen:?}");
        }
        for raw in refused_framings("POST / HTTP/1.1") {
            let seen = splits_agree::<RequestLine>(&raw);
            assert!(seen.last().unwrap().starts_with("refused"), "{seen:?}");
        }
        for raw in refused_framings("HTTP/1.1 200 OK") {
            let seen = splits_agree::<StatusLine>(&raw);
            assert!(seen.last().unwrap().starts_with("refused"), "{seen:?}");
        }
    }
}
