//! The server's only request parser.
//!
//! A connection thread owns the socket; this module owns the bytes.
//! [`HttpParser`] is an incremental request decoder: bytes are pushed
//! as they arrive, and each call to [`HttpParser::next`] takes one
//! complete request out, leaving the bytes of any request a peer
//! pipelined behind it in the buffer.
//!
//! Its error taxonomy — 431 for a header section over
//! [`MAX_HEADER_BYTES`] or [`MAX_HEADERS`] (detected *incrementally*,
//! so a flood is rejected before any terminator arrives), 501 for
//! `Transfer-Encoding: chunked`, 400 for everything else malformed,
//! framing a body ambiguously included (RFC 9112 §5.1, §6.3) — is what
//! the robustness tests assert on, byte for byte.

use crate::http::Request;

/// Maximum total bytes in the request line + header section; a peer
/// streaming endless headers gets 431 once the budget is spent instead
/// of growing a connection's buffer without bound.
pub(crate) const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Maximum number of header fields (431 beyond it).
pub(crate) const MAX_HEADERS: usize = 128;

/// Parser limits, lifted from the server config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
}

/// A fully parsed header section, waiting for its body.
#[derive(Debug)]
struct Head {
    method: String,
    target: String,
    traceparent: Option<String>,
    keep_alive: bool,
    content_length: usize,
    /// `Transfer-Encoding: chunked` was named: not implemented, so the
    /// request is refused (501) rather than misread as an empty body.
    chunked: bool,
}

#[derive(Debug)]
enum State {
    /// Accumulating the request line + headers.
    Head,
    /// Header section done; `Content-Length` body bytes outstanding.
    Body(Head),
}

/// An incremental HTTP/1.1 request parser. Push bytes in with
/// [`HttpParser::push`], pull complete requests out with
/// [`HttpParser::next`]; a protocol violation surfaces as
/// `Err((status, message))` exactly once, after which the connection
/// should answer and close.
#[derive(Debug)]
pub(crate) struct HttpParser {
    buf: Vec<u8>,
    /// How far the head-terminator scan has progressed, so a slowloris
    /// trickling one byte at a time costs O(1) per byte, not O(n²).
    scan: usize,
    state: State,
}

impl HttpParser {
    pub fn new() -> HttpParser {
        HttpParser {
            buf: Vec::new(),
            scan: 0,
            state: State::Head,
        }
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when bytes of an incomplete request are buffered — what the
    /// read timeout watches.
    pub fn has_partial(&self) -> bool {
        match self.state {
            State::Head => !self.buf.is_empty(),
            State::Body(_) => true,
        }
    }

    /// Tries to complete one request from the buffered bytes. `Ok(None)`
    /// means "need more bytes"; call again after the next [`Self::push`].
    pub fn next(&mut self, limits: &Limits) -> Result<Option<Request>, (u16, String)> {
        loop {
            match &self.state {
                State::Head => {
                    // A peer is allowed stray CRLFs between requests
                    // (and the shutdown nudge is an empty connection):
                    // skip blank space before the request line.
                    let lead = self
                        .buf
                        .iter()
                        .take_while(|&&b| b == b'\r' || b == b'\n')
                        .count();
                    if lead > 0 {
                        self.buf.drain(..lead);
                        self.scan = 0;
                    }
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    match find_head_end(&self.buf, self.scan) {
                        Some(end) => {
                            if end > MAX_HEADER_BYTES {
                                return Err(over_budget());
                            }
                            let head_bytes: Vec<u8> = self.buf.drain(..end).collect();
                            self.scan = 0;
                            let head = parse_head(&head_bytes)?;
                            if head.chunked {
                                return Err((
                                    501,
                                    "Transfer-Encoding: chunked is not supported; send Content-Length"
                                        .to_string(),
                                ));
                            }
                            if head.content_length > limits.max_body {
                                return Err((
                                    400,
                                    format!("body of {} bytes exceeds limit", head.content_length),
                                ));
                            }
                            if head.content_length == 0 {
                                return Ok(Some(build_request(head, Vec::new())));
                            }
                            self.state = State::Body(head);
                        }
                        None => {
                            // No terminator yet: enforce the budgets
                            // incrementally, so a flood with no blank
                            // line is still rejected (431) instead of
                            // buffered without bound.
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
                        }
                    }
                }
                State::Body(head) => {
                    if self.buf.len() < head.content_length {
                        return Ok(None);
                    }
                    let State::Body(head) = std::mem::replace(&mut self.state, State::Head) else {
                        unreachable!()
                    };
                    let body: Vec<u8> = self.buf.drain(..head.content_length).collect();
                    self.scan = 0;
                    return Ok(Some(build_request(head, body)));
                }
            }
        }
    }

    /// The peer closed its write side. `None` means the connection
    /// ended cleanly between requests; `Some((status, message))` is the
    /// rejection for a request cut off mid-flight.
    pub fn finish_eof(&self) -> Option<(u16, String)> {
        match &self.state {
            State::Body(_) => Some((400, "short body: failed to fill whole buffer".to_string())),
            State::Head => {
                let trimmed: Vec<u8> = self
                    .buf
                    .iter()
                    .copied()
                    .skip_while(|&b| b == b'\r' || b == b'\n')
                    .collect();
                if trimmed.is_empty() {
                    return None;
                }
                // A head that ended before its blank line: whatever is
                // wrong with the lines that did arrive (request line
                // first, then each header), else the missing blank line.
                Some(parse_head(&trimmed).err().unwrap_or_else(|| {
                    (400, "header section ended without a blank line".to_string())
                }))
            }
        }
    }
}

fn over_budget() -> (u16, String) {
    (
        431,
        format!("header section exceeds {MAX_HEADER_BYTES} bytes"),
    )
}

fn too_many_headers() -> (u16, String) {
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

/// Parses a header section (request line through blank line, or as far
/// as it got when the peer closed early).
fn parse_head(head: &[u8]) -> Result<Head, (u16, String)> {
    fn utf8(line: &[u8]) -> Result<&str, (u16, String)> {
        std::str::from_utf8(line).map_err(|_| {
            (
                400,
                "read error: stream did not contain valid UTF-8".to_string(),
            )
        })
    }
    let mut lines = head.split(|&b| b == b'\n');

    // `METHOD TARGET HTTP/1.x`
    let mut parts = utf8(lines.next().unwrap_or_default())?.split_whitespace();
    let method = parts
        .next()
        .ok_or((400, "missing method".to_string()))?
        .to_string();
    let target = parts
        .next()
        .ok_or((400, "missing path".to_string()))?
        .to_string();
    let version = parts.next().ok_or((400, "missing version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err((400, format!("unsupported version {version}")));
    }

    let mut content_length = None;
    let mut chunked = false;
    let mut traceparent = None;
    let mut keep_alive = false;
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
        if let Some((name, value)) = text.split_once(':') {
            // RFC 9112 §5.1: a name followed by whitespace is refused,
            // or `Content-Length : 5` would frame nothing and its body
            // would be read as the next request.
            if name.ends_with([' ', '\t']) {
                return Err((
                    400,
                    "whitespace between a header field name and its colon".to_string(),
                ));
            }
            if name.eq_ignore_ascii_case("content-length") {
                // `1*DIGIT` (RFC 9110 §8.6): `usize::from_str` alone
                // would take a leading `+`.
                let value = value.trim();
                let length = value
                    .parse()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                    .ok_or((400, "bad content-length".to_string()))?;
                if content_length.is_some_and(|earlier| earlier != length) {
                    return Err((400, "conflicting content-length values".to_string()));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.to_ascii_lowercase().contains("chunked")
            {
                chunked = true;
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                // Keep-alive is opt-in: only an explicit request header
                // holds the connection open, so clients built for the
                // one-shot server (read to EOF) still see a close.
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    Ok(Head {
        method,
        target,
        traceparent,
        keep_alive,
        content_length: content_length.unwrap_or(0),
        chunked,
    })
}

fn build_request(head: Head, body: Vec<u8>) -> Request {
    Request::from_parts(
        head.method,
        &head.target,
        body,
        head.traceparent,
        head.keep_alive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits { max_body: 1024 }
    }

    #[test]
    fn parses_a_complete_request_in_one_push() {
        let mut p = HttpParser::new();
        p.push(b"POST /api/v0/documents?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody");
        let req = p.next(&limits()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/v0/documents");
        assert_eq!(req.query, vec![("x".to_string(), "1".to_string())]);
        assert_eq!(req.body, b"body");
        assert!(!req.keep_alive);
        assert!(p.next(&limits()).unwrap().is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn parses_byte_at_a_time() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let mut p = HttpParser::new();
        for (i, b) in raw.iter().enumerate() {
            p.push(&[*b]);
            let got = p.next(&limits()).unwrap();
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
        let mut p = HttpParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n");
        let paths: Vec<String> = std::iter::from_fn(|| p.next(&limits()).unwrap())
            .map(|r| r.path)
            .collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
    }

    #[test]
    fn header_field_cap_fires_without_a_terminator() {
        let mut p = HttpParser::new();
        p.push(b"GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            p.push(format!("X-{i}: v\r\n").as_bytes());
        }
        let err = p.next(&limits()).unwrap_err();
        assert_eq!(err.0, 431);
        assert!(err.1.contains("header fields"), "{}", err.1);
    }

    #[test]
    fn header_byte_budget_fires_without_a_terminator() {
        let mut p = HttpParser::new();
        p.push(b"GET / HTTP/1.1\r\nX-Flood: ");
        p.push(&vec![b'a'; MAX_HEADER_BYTES]);
        let err = p.next(&limits()).unwrap_err();
        assert_eq!(err.0, 431);
        assert!(err.1.contains("exceeds"), "{}", err.1);
    }

    #[test]
    fn chunked_rejected_with_501() {
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let err = p.next(&limits()).unwrap_err();
        assert_eq!(err.0, 501);
    }

    #[test]
    fn oversized_body_rejected_before_the_body_arrives() {
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        let err = p.next(&limits()).unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("exceeds limit"), "{}", err.1);
    }

    #[test]
    fn eof_mid_body_is_a_short_body() {
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal");
        assert!(p.next(&limits()).unwrap().is_none());
        let (status, msg) = p.finish_eof().unwrap();
        assert_eq!(status, 400);
        assert!(msg.starts_with("short body"), "{msg}");
    }

    #[test]
    fn eof_between_requests_is_clean() {
        let mut p = HttpParser::new();
        p.push(b"GET / HTTP/1.1\r\n\r\n");
        assert!(p.next(&limits()).unwrap().is_some());
        assert!(p.finish_eof().is_none());
        let mut empty = HttpParser::new();
        empty.push(b"\r\n");
        assert!(empty.next(&limits()).unwrap().is_none());
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
            let mut p = HttpParser::new();
            p.push(raw);
            assert!(p.next(&limits()).unwrap().is_none(), "{want}");
            let (status, msg) = p.finish_eof().unwrap();
            assert_eq!(status, 400, "{msg}");
            assert!(msg.contains(want), "{msg} vs {want}");
        }
    }

    #[test]
    fn whitespace_before_a_header_colon_is_refused() {
        // Read as no Content-Length at all, the body would be parsed
        // as a second request.
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello");
        let (status, msg) = p.next(&limits()).unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("colon"), "{msg}");
    }

    #[test]
    fn two_different_content_lengths_are_refused() {
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!");
        let (status, msg) = p.next(&limits()).unwrap_err();
        assert_eq!(status, 400);
        assert!(msg.contains("conflicting"), "{msg}");
        // The same value twice is one length.
        let mut p = HttpParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(p.next(&limits()).unwrap().unwrap().body, b"hello");
    }

    #[test]
    fn a_content_length_that_is_not_all_digits_is_refused() {
        for value in ["+5", "-5", " ", "5 5", "0x5"] {
            let mut p = HttpParser::new();
            p.push(format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello").as_bytes());
            let (status, msg) = p.next(&limits()).unwrap_err();
            assert_eq!(status, 400, "{value:?}");
            assert_eq!(msg, "bad content-length", "{value:?}");
        }
    }
}
