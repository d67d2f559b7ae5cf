//! A retrying HTTP client for the provenance service.
//!
//! The one-shot [`crate::http::request`] helper sends one request on a
//! connection of its own and retries nothing; upload paths (a training
//! job shipping its provenance at the end of a run, replication pushes,
//! cluster routing) must survive transient server trouble — connection
//! refused during a restart, 503 while overloaded. [`Client`] wraps the
//! same wire format in bounded, deterministic exponential backoff: delays
//! double from [`RetryPolicy::base_delay`] up to
//! [`RetryPolicy::max_delay`], each scaled by a jitter factor in
//! [0.5, 1.0) derived from [`RetryPolicy::jitter_seed`] — so tests and
//! replayed runs see identical schedules, while distinct seeds decorrelate
//! real clients.
//!
//! Both read responses with the server's own parser (`conn::HttpParser`):
//! what it refuses in a request — a head over 32 KiB or 128 fields, a
//! field name followed by whitespace, a `Content-Length` not all digits
//! or given two values, `Transfer-Encoding: chunked` — it refuses in a
//! response too, as does a status that is not three digits or a byte
//! after a keep-alive response. Each is a transport error
//! ([`io::ErrorKind::InvalidData`]), and that connection is dropped.
//! Only transport errors and 502/503/504 are retried; any other status
//! is a definitive answer and is returned as-is.
//!
//! When a retryable response names its own schedule — the server's
//! watermark shedding path answers 503 with a `Retry-After` header —
//! that wait is honored (capped at [`MAX_RETRY_AFTER`]) instead of
//! the backoff schedule: the server knows when it will have capacity
//! better than a blind exponential guess does.
//!
//! Requests are sent with `Connection: keep-alive`, and a connection
//! whose response agrees is parked, socket and parser, and reused by
//! the next request (a clone of the client shares it). Replication
//! streams — many small frames to the same peer — stop paying a TCP
//! connect per frame. A parked connection the server has since closed
//! is detected on first use (the failure happens before any response
//! byte); **idempotent** requests (GET/HEAD/PUT/DELETE) are replayed
//! on a fresh connect transparently, while non-idempotent ones (POST —
//! uploads, replication frames) surface the failure as a transport
//! error instead, because a server can act on a request and die before
//! writing a single response byte, and silently resending would apply
//! the side effect twice. The caller-visible retry policy decides
//! whether such a request is attempted again. Servers that answer
//! `Connection: close` simply never get pooled.

use crate::conn::{read_message, HttpParser, Message, StatusLine};
use crate::sync::lock;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ceiling on a server-supplied `Retry-After` wait, so a confused (or
/// hostile) server cannot park a client indefinitely.
pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(30);

/// Percent-encodes a document id for use in a path segment (or a query
/// value): every byte but the RFC 3986 unreserved set is escaped, so an
/// id holding `/`, `?`, `%`, `#` or a space reaches its own route.
pub(crate) fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// splitmix64: the same tiny deterministic generator the simulator's
/// fault planner uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Retry/backoff/timeout knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); clamped to at least 1.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the exponential delay (before jitter).
    pub max_delay: Duration,
    /// Per-request connect/read/write timeout.
    pub request_timeout: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0 = first retry):
    /// `min(max_delay, base_delay · 2^attempt)` scaled by a
    /// deterministic jitter factor in [0.5, 1.0).
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let exp = self.base_delay.saturating_mul(factor).min(self.max_delay);
        let mut s = self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let frac = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        exp.mul_f64(0.5 + 0.5 * frac)
    }
}

/// A completed (non-retried-away) HTTP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Attempts it took (1 = first try succeeded).
    pub attempts: u32,
}

/// The terminal failure of one attempt — what was happening when the
/// retry budget ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Connect/read/write failed before a response arrived.
    Transport(String),
    /// A retryable HTTP status (502/503/504).
    Status(u16),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Transport(msg) => write!(f, "i/o error: {msg}"),
            Failure::Status(code) => write!(f, "HTTP {code}"),
        }
    }
}

/// Why a request ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every attempt failed; `last` is the final attempt's failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure mode.
        last: Failure,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "request failed after {attempts} attempts; last error: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking client with retries and keep-alive connection reuse.
/// Clones share the parked connection.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    /// The parked keep-alive connection, if the last response allowed
    /// reuse. One slot is enough: each exchange is serialized under the
    /// lock, and concurrent callers simply open fresh connections.
    pool: Arc<Mutex<Option<Conn>>>,
}

/// A keep-alive connection: its socket and the parser of its responses.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: HttpParser<StatusLine>,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Client {
        Client {
            addr,
            policy,
            pool: Arc::new(Mutex::new(None)),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Sends `method path` with an optional body, retrying transport
    /// errors and 502/503/504 with backoff. Any other status — success
    /// or definitive client error — is returned as-is.
    pub fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ClientError> {
        self.send_with_read_timeout(method, path, body, self.policy.request_timeout)
    }

    /// [`Self::send`] with an explicit socket read timeout — the
    /// long-poll [`Self::watch`] legitimately waits far past the normal
    /// per-request budget while the server parks its request.
    fn send_with_read_timeout(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        read_timeout: Duration,
    ) -> Result<Response, ClientError> {
        let max_attempts = self.policy.max_attempts.max(1);
        // One span covers the whole logical request (all attempts); the
        // traceparent derived from it is attached to every attempt so
        // the server's handler spans join this client's trace.
        let mut trace = obs::trace::span("http_request");
        if obs::trace::is_enabled() {
            trace.annotate("method", method);
            trace.annotate("path", path);
        }
        let traceparent = obs::trace::traceparent();
        let mut last = Failure::Status(0);
        // Set when the previous retryable response carried Retry-After:
        // the server's schedule overrides the backoff schedule.
        let mut server_wait: Option<Duration> = None;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                let wait = server_wait
                    .take()
                    .unwrap_or_else(|| self.policy.backoff_delay(attempt - 1));
                std::thread::sleep(wait);
            }
            match self.once(method, path, body, traceparent.as_deref(), read_timeout) {
                Ok(response) if !matches!(response.start.status, 502..=504) => {
                    return Ok(Response {
                        status: response.start.status,
                        body: utf8_body(response.body),
                        attempts: attempt + 1,
                    });
                }
                Ok(response) => {
                    last = Failure::Status(response.start.status);
                    server_wait = response
                        .retry_after
                        .map(|s| Duration::from_secs(s).min(MAX_RETRY_AFTER));
                }
                Err(e) => last = Failure::Transport(e.to_string()),
            }
        }
        Err(ClientError::Exhausted {
            attempts: max_attempts,
            last,
        })
    }

    /// One wire exchange, under the per-request timeouts.
    ///
    /// A parked keep-alive connection is tried first. If it fails
    /// before a single response byte arrives — usually the server
    /// idle-closed it while parked — an idempotent request is replayed
    /// once on a fresh connection. A non-idempotent request is not: the
    /// server may have acted on it before dying, so the failure
    /// propagates to the caller's retry policy instead of being
    /// silently resent. Failures on a fresh connection, or after
    /// response bytes were seen, always propagate.
    fn once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        traceparent: Option<&str>,
        read_timeout: Duration,
    ) -> io::Result<Message<StatusLine>> {
        let body = body.unwrap_or("");
        let trace_header = traceparent
            .map(|tp| format!("traceparent: {tp}\r\n"))
            .unwrap_or_default();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{trace_header}Connection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        let replayable = matches!(method, "GET" | "HEAD" | "PUT" | "DELETE" | "OPTIONS");
        // Take the parked connection in its own statement: an
        // `if let Some(r) = lock(&self.pool).take()` scrutinee keeps
        // the MutexGuard alive for the whole if-let body (2021-edition
        // temporary scope), and re-parking below would self-deadlock.
        let parked = lock(&self.pool).take();
        if let Some(mut conn) = parked {
            // The parked socket keeps whatever read timeout its last
            // request used; re-arm it for this one.
            conn.stream.set_read_timeout(Some(read_timeout))?;
            match exchange(&mut conn, req.as_bytes()) {
                Ok(response) => return Ok(self.park(conn, response)),
                Err(ExchangeError::Stale) if replayable => {} // fall through to a fresh connect
                Err(ExchangeError::Stale) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "stale keep-alive connection closed before a response",
                    ));
                }
                Err(ExchangeError::Io(e)) => return Err(e),
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.policy.request_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(self.policy.request_timeout))?;
        let mut conn = Conn {
            stream,
            parser: HttpParser::new(),
        };
        let response = exchange(&mut conn, req.as_bytes()).map_err(|e| match e {
            ExchangeError::Stale => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed unanswered")
            }
            ExchangeError::Io(e) => e,
        })?;
        Ok(self.park(conn, response))
    }

    /// Parks `conn` for the next request when `response` kept it alive.
    fn park(&self, conn: Conn, response: Message<StatusLine>) -> Message<StatusLine> {
        if response.keep_alive {
            *lock(&self.pool) = Some(conn);
        }
        response
    }

    /// GET convenience.
    pub fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.send("GET", path, None)
    }

    /// Liveness probe.
    pub fn health(&self) -> Result<Response, ClientError> {
        self.get("/healthz")
    }

    /// Uploads a PROV-JSON document; on 201 the body carries `{"id"}`.
    pub fn upload_document(&self, prov_json: &str) -> Result<Response, ClientError> {
        self.send("POST", "/api/v0/documents", Some(prov_json))
    }

    /// Merges a standalone PROV-JSON delta into document `id`; on 200
    /// the body carries `{"id", "version"}` with the post-merge watch
    /// cursor.
    pub fn upload_delta(&self, id: &str, delta_json: &str) -> Result<Response, ClientError> {
        let id = encode_id(id);
        self.send(
            "POST",
            &format!("/api/v0/documents/{id}/deltas"),
            Some(delta_json),
        )
    }

    /// Runs a lineage query or ML audit against document `id`. The
    /// body is the query endpoint's JSON form — either
    /// `{"query": <PathQuery IR>}` or `{"audit": "leakage" | "gdpr" |
    /// "fairness" | "join", ...}`, optionally with `"docs"` (joined
    /// documents) and `"render": "dot"`.
    pub fn query(&self, id: &str, body_json: &str) -> Result<Response, ClientError> {
        let id = encode_id(id);
        self.send(
            "POST",
            &format!("/api/v0/documents/{id}/query"),
            Some(body_json),
        )
    }

    /// Long-polls document `id` for a version newer than `after`,
    /// parking server-side for up to `timeout`. The socket read timeout
    /// is widened past the park window so a quiet document does not
    /// read as a transport failure.
    pub fn watch(&self, id: &str, after: u64, timeout: Duration) -> Result<Response, ClientError> {
        let timeout_ms = timeout.as_millis().min(30_000) as u64;
        let id = encode_id(id);
        self.send_with_read_timeout(
            "GET",
            &format!("/api/v0/documents/{id}/watch?after={after}&timeout_ms={timeout_ms}"),
            None,
            self.policy.request_timeout + Duration::from_millis(timeout_ms),
        )
    }
}

/// How one wire exchange failed.
enum ExchangeError {
    /// The connection died before a response byte arrived: a parked one
    /// the server idle-closed, safe to replay on a fresh socket.
    Stale,
    /// Any other failure; not silently replayable.
    Io(io::Error),
}

/// Writes `req` and reads one response through the connection's
/// parser. A keep-alive response must end the bytes read, or what
/// follows it would be read as the next request's answer.
fn exchange(conn: &mut Conn, req: &[u8]) -> Result<Message<StatusLine>, ExchangeError> {
    // A write onto a dead socket fails before any response byte is
    // read, so the request was not observed to be acted on: stale.
    if conn.stream.write_all(req).is_err() || conn.stream.flush().is_err() {
        return Err(ExchangeError::Stale);
    }
    match read_message(&mut conn.parser, &mut conn.stream, usize::MAX) {
        Ok(Some(response)) if response.keep_alive && conn.parser.has_partial() => {
            Err(ExchangeError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "bytes after a keep-alive response",
            )))
        }
        Ok(Some(response)) => Ok(response),
        // Closed, or failed, before a response byte arrived.
        Ok(None) => Err(ExchangeError::Stale),
        Err(_) if !conn.parser.has_partial() => Err(ExchangeError::Stale),
        Err(e) => Err(ExchangeError::Io(e)),
    }
}

/// A response body as text; invalid UTF-8 is replaced, not refused.
pub(crate) fn utf8_body(body: Vec<u8>) -> String {
    String::from_utf8(body).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Server, ServerConfig};
    use crate::store::DocumentStore;
    use std::io::Read;
    use testkit::{Fault, FaultProxy};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 42,
        }
    }

    fn sample_doc_json() -> String {
        let mut doc = prov_model::ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(prov_model::QName::new("ex", "data"));
        doc.to_json_string().unwrap()
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..8u32 {
            let d1 = p.backoff_delay(attempt);
            let d2 = p.backoff_delay(attempt);
            assert_eq!(d1, d2, "same attempt, same delay");
            let envelope = p
                .base_delay
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(p.max_delay);
            assert!(d1 <= envelope, "attempt {attempt}: {d1:?} > {envelope:?}");
            assert!(
                d1 >= envelope / 2,
                "attempt {attempt}: {d1:?} < half envelope"
            );
        }
        // A different seed gives a different (but still bounded) schedule.
        let other = RetryPolicy {
            jitter_seed: 1,
            ..p
        };
        assert_ne!(p.backoff_delay(0), other.backoff_delay(0));
    }

    /// A server behind a proxy that answers its next `failures`
    /// uploads with 503.
    fn flaky_server(failures: usize) -> (Server, FaultProxy) {
        let server =
            Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
        let proxy = FaultProxy::bind();
        proxy.forward_to(server.addr());
        proxy.fault("POST", "/api/v0/documents", Fault::Status(503), failures);
        (server, proxy)
    }

    #[test]
    fn retries_through_injected_upload_faults() {
        let (server, proxy) = flaky_server(2);
        let client = Client::new(proxy.addr(), fast_policy());
        let resp = client.upload_document(&sample_doc_json()).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.attempts, 3, "two 503s, then success");
        server.shutdown();
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (server, proxy) = flaky_server(100);
        let client = Client::new(
            proxy.addr(),
            RetryPolicy {
                max_attempts: 2,
                ..fast_policy()
            },
        );
        let err = client.upload_document(&sample_doc_json()).unwrap_err();
        match err {
            ClientError::Exhausted { attempts, ref last } => {
                assert_eq!(attempts, 2);
                assert_eq!(*last, Failure::Status(503));
            }
        }
        assert!(err.to_string().contains("HTTP 503"), "{err}");
        server.shutdown();
    }

    #[test]
    fn honors_server_retry_after_over_backoff() {
        // A hand-rolled peer: sheds the first request with
        // `Retry-After: 1`, serves the second. The client's own backoff
        // (5 ms base) would retry almost immediately; honoring the
        // server's schedule means waiting the full second.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{}",
            )
            .unwrap();
            drop(s);
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}")
                .unwrap();
        });
        let client = Client::new(addr, fast_policy());
        let started = std::time::Instant::now();
        let resp = client.health().unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.attempts, 2);
        assert!(
            started.elapsed() >= Duration::from_millis(900),
            "the 1 s Retry-After must override the 5 ms backoff; waited {:?}",
            started.elapsed()
        );
    }

    /// A hand-rolled peer that answers one keep-alive response, closes
    /// the connection while the client has it parked, then serves one
    /// more request on a fresh connection.
    fn park_then_close_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
            )
            .unwrap();
            drop(s); // the parked connection goes stale here
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}")
                .unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn stale_parked_connection_replays_get_transparently() {
        let (addr, server) = park_then_close_server();
        let client = Client::new(addr, fast_policy());
        assert_eq!(client.get("/a").unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(50)); // let the FIN land
        let resp = client.get("/b").unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.attempts, 1,
            "an idempotent replay is transparent, not a visible retry"
        );
    }

    #[test]
    fn parked_connection_is_reused_across_sequential_requests() {
        // A healthy keep-alive peer that serves three requests on ONE
        // accepted connection. Every request after the first goes
        // through the pooled-reuse path in `once()` — the path that
        // used to self-deadlock on re-parking (the if-let scrutinee
        // held the pool MutexGuard across the body).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..3 {
                let _ = s.read(&mut buf);
                s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
                )
                .unwrap();
            }
        });
        let client = Client::new(addr, fast_policy());
        for i in 0..3 {
            let resp = client.get("/a").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.attempts, 1, "request {i} must not burn retries");
        }
        server.join().unwrap();
    }

    #[test]
    fn stale_parked_connection_does_not_silently_replay_post() {
        let (addr, server) = park_then_close_server();
        let client = Client::new(addr, fast_policy());
        assert_eq!(client.get("/a").unwrap().status, 200);
        std::thread::sleep(Duration::from_millis(50)); // let the FIN land

        // The POST hits the stale parked connection. It must NOT be
        // replayed by the pool — the server could have acted on it —
        // so the failure costs a visible attempt and the retry policy
        // decides to resend.
        let resp = client.send("POST", "/b", Some("{}")).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.attempts, 2,
            "a non-idempotent resend must be a counted retry"
        );
    }

    #[test]
    fn delta_upload_and_watch_long_poll_round_trip() {
        let server =
            Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
        let client = Client::new(server.addr(), fast_policy());
        let up = client.upload_document(&sample_doc_json()).unwrap();
        assert_eq!(up.status, 201);
        let id = up.body.split('"').nth(3).unwrap().to_string();

        // A watcher parked past the current version must wake when the
        // delta lands, carrying the merged document.
        let watcher = {
            let client = client.clone();
            let id = id.clone();
            std::thread::spawn(move || client.watch(&id, 1, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(100)); // let the watcher park

        let mut delta = prov_model::ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.entity(prov_model::QName::new("ex", "extra"));
        let resp = client
            .upload_delta(&id, &delta.to_json_string().unwrap())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"version\":2"), "{}", resp.body);

        let woke = watcher.join().unwrap().unwrap();
        assert_eq!(woke.status, 200);
        assert!(woke.body.contains("\"changed\":true"), "{}", woke.body);
        assert!(woke.body.contains("\"version\":2"), "{}", woke.body);
        assert!(
            woke.body.contains("extra"),
            "woken watch carries the merged document: {}",
            woke.body
        );
        server.shutdown();
    }

    #[test]
    fn an_id_that_needs_escaping_takes_a_delta_a_watch_and_a_query() {
        let server =
            Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
        let client = Client::new(server.addr(), fast_policy());
        let id = "a?b#c%d+e";
        let put = client
            .send(
                "PUT",
                "/api/v0/documents/a%3Fb%23c%25d%2Be",
                Some(&sample_doc_json()),
            )
            .unwrap();
        assert_eq!(put.status, 201, "{}", put.body);

        let mut delta = prov_model::ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.entity(prov_model::QName::new("ex", "extra"));
        let merged = client
            .upload_delta(id, &delta.to_json_string().unwrap())
            .unwrap();
        assert_eq!(merged.status, 200, "{}", merged.body);
        assert!(merged.body.contains("\"version\":2"), "{}", merged.body);

        let woke = client.watch(id, 1, Duration::from_secs(1)).unwrap();
        assert_eq!(woke.status, 200, "{}", woke.body);
        assert!(woke.body.contains("\"changed\":true"), "{}", woke.body);
        assert!(woke.body.contains("extra"), "{}", woke.body);

        let audit = client.query(id, r#"{"audit": "leakage"}"#).unwrap();
        assert_eq!(audit.status, 200, "{}", audit.body);
        assert!(audit.body.contains("\"clean\":true"), "{}", audit.body);
        server.shutdown();
    }

    #[test]
    fn an_announced_length_is_not_trusted_before_its_bytes_arrive() {
        // A peer announces a body no machine could hold, then one that
        // is not a number; each is an error for the caller, neither a
        // panic nor an empty 200.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            for length in ["18446744073709551615", "abc"] {
                let (mut s, _) = listener.accept().unwrap();
                let _ = s.read(&mut [0u8; 4096]);
                let _ = s.write_all(
                    format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\nConnection: close\r\n\r\n{{}}")
                        .as_bytes(),
                );
            }
        });
        let client = Client::new(
            addr,
            RetryPolicy {
                max_attempts: 1,
                ..fast_policy()
            },
        );
        for _ in 0..2 {
            let ClientError::Exhausted { last, .. } = client.get("/a").unwrap_err();
            assert!(matches!(last, Failure::Transport(_)), "{last:?}");
        }
        peer.join().unwrap();
    }

    #[test]
    fn a_misframed_response_is_a_transport_error_and_its_connection_is_dropped() {
        // Each case follows `HTTP/1.1 200 OK` and `Connection:
        // keep-alive`; the server refuses each of these framings in a
        // request, and its client refuses them in a response.
        let flood = format!("X-Flood: {}\r\n", "a".repeat(32 * 1024));
        let fields: String = (0..=128).map(|i| format!("X-{i}: v\r\n")).collect();
        let cases = [
            "Content-Length: +2\r\n\r\n{}".to_string(),
            "Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}!".to_string(),
            "Content-Length : 2\r\n\r\n{}".to_string(),
            "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n".to_string(),
            format!("{flood}Content-Length: 2\r\n\r\n{{}}"),
            format!("{fields}Content-Length: 2\r\n\r\n{{}}"),
            "Content-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\n".to_string(),
        ];
        for case in cases {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let bad = format!("HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n{case}");
            let peer = std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                // The misframed answer's connection stays open: a client
                // that parked it would send its next request here.
                let (mut first, _) = listener.accept().unwrap();
                let _ = first.read(&mut buf);
                let _ = first.write_all(bad.as_bytes());
                let (mut second, _) = listener.accept().unwrap();
                let _ = second.read(&mut buf);
                second
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                    )
                    .unwrap();
                first
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let reused = matches!(first.read(&mut buf), Ok(n) if n > 0);
                // The one-shot helper reads by the same rules.
                let (mut third, _) = listener.accept().unwrap();
                let _ = third.read(&mut buf);
                let _ = third.write_all(bad.as_bytes());
                reused
            });
            let client = Client::new(
                addr,
                RetryPolicy {
                    max_attempts: 1,
                    request_timeout: Duration::from_secs(1),
                    ..fast_policy()
                },
            );
            let ClientError::Exhausted { last, .. } = client.get("/a").unwrap_err();
            assert!(matches!(last, Failure::Transport(_)), "{case:?}: {last:?}");
            let next = client.get("/b").unwrap();
            assert_eq!((next.status, next.body.as_str()), (200, "ok"), "{case:?}");
            let one_shot = crate::http::request(addr, "GET", "/c", None).unwrap_err();
            assert_eq!(one_shot.kind(), io::ErrorKind::InvalidData, "{case:?}");
            assert!(!peer.join().unwrap(), "{case:?}: the connection was parked");
        }
    }

    #[test]
    fn non_retryable_statuses_return_immediately() {
        let server =
            Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
        let client = Client::new(server.addr(), fast_policy());
        let resp = client.upload_document("{not json").unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(resp.attempts, 1, "4xx is definitive, no retry");
        server.shutdown();
    }

    #[test]
    fn dead_server_exhausts_with_io_error() {
        // Bind then drop a listener to get a port that refuses.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = Client::new(
            addr,
            RetryPolicy {
                max_attempts: 2,
                ..fast_policy()
            },
        );
        let err = client.health().unwrap_err();
        assert!(err.to_string().contains("after 2 attempts"), "{err}");
        let ClientError::Exhausted { last, .. } = err;
        assert!(matches!(last, Failure::Transport(_)), "{last:?}");
    }
}
