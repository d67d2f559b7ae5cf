//! A from-scratch HTTP/1.1 server exposing the store.
//!
//! No frameworks. [`Server`] runs one core on `std::net` (the private
//! `serve` module): an acceptor thread admits connections, and each
//! admitted connection is served by a reusable thread, one request at a
//! time: its next request is parsed once the previous response is
//! written, so a pipelining client is answered in order. At most
//! [`ServerConfig::workers`] handlers run at once.
//!
//! The parser (`conn::HttpParser`, which also reads the responses
//! [`request`] and `Client` receive) is defensive: the header section
//! is capped at 32 KiB and 128 fields (431 beyond either limit), and
//! `Transfer-Encoding: chunked` — which this server does not implement
//! — is rejected with 501 instead of being misread as an empty body.
//! Path segments are percent-decoded (without the `+`-to-space query
//! rule), so percent-encoded document ids round-trip.
//!
//! ## Routes (yProv-style)
//!
//! One row per row of `routes::ROUTES` (a test holds the two equal).
//! A request no row matches is answered `404 {"error":"no such route"}`.
//!
//! | Method | Path | Effect |
//! |---|---|---|
//! | GET | `/healthz` | liveness |
//! | GET | `/metrics` | Prometheus text exposition of server + store metrics |
//! | GET | `/` | the HTML explorer page |
//! | GET | `/explorer` | the HTML explorer page |
//! | GET | `/api/v0/documents` | list handle ids |
//! | POST | `/api/v0/documents` | upload PROV-JSON under its content id (`doc-` + 32 hex digits of its SHA-256) |
//! | PUT | `/api/v0/documents/{id}` | upload/replace under a chosen id |
//! | GET | `/api/v0/documents/{id}` | the PROV-JSON document |
//! | DELETE | `/api/v0/documents/{id}` | remove |
//! | GET | `/api/v0/documents/{id}/stats` | element/relation counts and graph-index statistics |
//! | GET | `/api/v0/documents/{id}/ancestors` | lineage of `?focus=<qname>` |
//! | GET | `/api/v0/documents/{id}/subgraph` | sub-document around `?focus=<qname>` |
//! | GET | `/api/v0/documents/{id}/provn` | PROV-N rendering |
//! | GET | `/api/v0/documents/{id}/turtle` | PROV-O / Turtle rendering |
//! | GET | `/api/v0/documents/{id}/dot` | Graphviz DOT of the graph |
//! | POST | `/api/v0/documents/{id}/deltas` | merge a PROV-JSON delta (ledgered + replicated) |
//! | GET | `/api/v0/documents/{id}/watch` | long-poll `?after=N&timeout_ms=M` for a newer version |
//! | POST | `/api/v0/documents/{id}/query` | planned path query or ML audit (JSON IR body) |
//! | GET | `/api/v0/ledger` | the tamper-evident upload chain |
//! | GET | `/api/v0/ledger/verify` | verify every chain this node holds |
//! | POST | `/api/v0/replication/frames` | apply a batch of replication frames in order |
//! | GET | `/api/v0/replication/head` | this replica's cursor for `?source=` |
//! | GET | `/api/v0/replication/sources` | all replication cursors |
//! | GET | `/api/v0/obs/health` | liveness + readiness checks (503 when not ready) |
//! | GET | `/api/v0/obs/timeseries` | windowed tsdb query `?metric=&since=&step=` |
//! | GET | `/api/v0/obs/slowlog` | slowest and erroring requests per route |
//! | GET | `/api/v0/obs/alerts` | every alert rule's lifecycle state |
//! | GET | `/api/v0/obs/cluster` | federated metrics + health of every member |
//!
//! A `POST`ed document is named by its content, so a retried or re-sent
//! upload lands on the same id on any node. That id names the bytes
//! first stored under it; a later `PUT` or delta may change them. A
//! `PUT` id must pass the store's one name rule — non-empty, no leading
//! `.`, no `/` or `\`, no ASCII whitespace or control character, not
//! `ledger` — or the request is answered 400 and nothing is written.
//!
//! When [`ServerConfig::cluster`] is set, uploads are streamed to the
//! document's replica set before being acknowledged (see
//! [`crate::cluster`]); under-replicated writes are answered 503. Every
//! 503 — shed or under-replicated — carries a `Retry-After` header so
//! well-behaved clients back off on the server's schedule.
//!
//! The server injects no faults of its own: tests put
//! `testkit::FaultProxy` on the wire between a client and a server, or
//! between two peers, to drop, tear, duplicate, delay or refuse
//! requests.

use crate::client::utf8_body;
use crate::cluster::Replicator;
use crate::conn::{read_message, HttpParser, Message, RequestLine, StatusLine};
use crate::error::ServiceError;
use crate::store::DocumentStore;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How many request handlers run at once.
    pub workers: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
    /// Read timeout: a peer that stops sending mid-request gets a 400
    /// after this long instead of holding its connection forever.
    pub read_timeout: Duration,
    /// Write timeout: a peer that stops reading its response is closed
    /// after this long.
    pub write_timeout: Duration,
    /// How many connections are admitted beyond `workers`; past
    /// `workers + queue_depth` open connections the server sheds new
    /// ones with 503 instead of letting the backlog (and client
    /// latency) grow without bound.
    pub queue_depth: usize,
    /// A keep-alive connection that has served at least one response
    /// and then goes quiet is closed (silently) after this long.
    pub idle_timeout: Duration,
    /// Multi-node mode: this node's identity, peers and replication
    /// tunables. `None` (the default) runs a plain single node.
    pub cluster: Option<crate::cluster::ClusterConfig>,
    /// Ops plane: alert rules and whether the server scrapes itself.
    pub ops: crate::ops::OpsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_body: 256 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            queue_depth: 64,
            idle_timeout: Duration::from_secs(10),
            cluster: None,
            ops: crate::ops::OpsConfig::default(),
        }
    }
}

/// What every handler of one server shares.
pub(crate) struct ServerState {
    pub(crate) store: DocumentStore,
    /// Per-server registry (always on): request metrics are the
    /// server's own concern and stay out of the process-global tracker
    /// registry.
    pub(crate) registry: Arc<obs::Registry>,
    pub(crate) replicator: Option<Replicator>,
    pub(crate) ops: Arc<crate::ops::Ops>,
}

/// A running server; dropping it (or calling [`Server::shutdown`] /
/// [`Server::stop`]) stops it gracefully: busy connections finish their
/// response (for at most five seconds) and idle ones close at once.
pub struct Server {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    core: Option<crate::serve::Core>,
    /// Dropping the sender wakes the scraper out of its cadence sleep.
    scraper_stop: Option<Sender<()>>,
    scraper_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`.
    pub fn bind(addr: &str, store: DocumentStore, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::new(obs::Registry::new());
        registry.set_help(
            "http_requests_total",
            "Requests served, by method, route and status.",
        );
        registry.set_help(
            "http_request_duration_seconds",
            "Request handling latency, by route.",
        );
        registry.set_help(
            "http_parse_errors_total",
            "Connections rejected with an unparseable request.",
        );
        registry.set_help(
            "replication_frames_total",
            "Ledger entries received from peers in replication batches.",
        );
        registry.set_help(
            "replication_bytes_total",
            "Request body bytes of the replication batches received from peers.",
        );
        registry.set_help(
            "replication_rejects_total",
            "Replication batches refused at a frame (forks, gaps, torn bytes).",
        );
        registry.set_help(
            "server_connections_open",
            "Connections currently open: admitted, or lingering after a shed.",
        );
        registry.set_help(
            "server_connections_accepted_total",
            "Connections accepted since start (including shed ones).",
        );
        registry.set_help(
            "server_requests_pipelined_total",
            "Requests parsed from bytes already buffered when the previous response was written.",
        );
        registry.set_help(
            "server_shed_total",
            "Connections/requests shed with 503, by watermark reason.",
        );
        registry.set_help(
            "server_queued_jobs",
            "Requests running a handler or waiting for a handler turn.",
        );
        registry.set_help(
            "server_queued_bytes",
            "Response bytes not yet written, across all connections.",
        );
        let state = Arc::new(ServerState {
            ops: crate::ops::Ops::new(&config.ops, &registry),
            replicator: config
                .cluster
                .as_ref()
                .map(|c| Replicator::new(c.clone(), &registry)),
            registry,
            store,
        });

        // The scraper thread: snapshots both registries on the cadence
        // and feeds the ops plane. Wall-clock seconds drive production
        // ticks; tests that need determinism turn `self_scrape` off and
        // call `Ops::tick` with a virtual clock instead.
        let (scraper_stop, scraper_thread) = if config.ops.self_scrape {
            let (tx, rx) = channel::<()>();
            let state = Arc::clone(&state);
            let thread = std::thread::Builder::new()
                .name("yprov-ops-scrape".into())
                .spawn(move || loop {
                    let now_s = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(0.0);
                    state
                        .ops
                        .tick(now_s, &[&state.registry, state.store.registry()]);
                    match rx.recv_timeout(crate::ops::SCRAPE_INTERVAL) {
                        Err(RecvTimeoutError::Timeout) => continue,
                        _ => break, // stop signal or sender dropped
                    }
                })?;
            (Some(tx), Some(thread))
        } else {
            (None, None)
        };

        let core = crate::serve::spawn(listener, config, Arc::clone(&state))?;
        Ok(Server {
            addr: local,
            state,
            core: Some(core),
            scraper_stop,
            scraper_thread,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The server's metrics registry (what `GET /metrics` renders).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.state.registry
    }

    /// The server's ops plane: tsdb history, alert rules, slowlog.
    pub fn ops(&self) -> &Arc<crate::ops::Ops> {
        &self.state.ops
    }

    /// Stops accepting connections and drains ([`Server::stop`]).
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the server with a graceful drain: the listener closes,
    /// idle connections close at once, busy ones finish their response
    /// and close, and whatever is left after five seconds is closed.
    /// A handler still running then is not waited for. Idempotent.
    pub fn stop(&mut self) {
        // Stop the scraper first: dropping the sender wakes it out of
        // its cadence sleep immediately.
        drop(self.scraper_stop.take());
        if let Some(thread) = self.scraper_thread.take() {
            let _ = thread.join();
        }
        if let Some(core) = self.core.take() {
            core.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[derive(Debug)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
    /// W3C `traceparent` header, if the client sent one; the handler
    /// span joins that trace instead of starting its own.
    pub(crate) traceparent: Option<String>,
    /// The client opted into keep-alive (`Connection: keep-alive`).
    /// Absent the header the connection closes after the response —
    /// one-shot read-to-EOF clients keep working unchanged.
    pub(crate) keep_alive: bool,
}

impl From<Message<RequestLine>> for Request {
    /// Splits the target into a path and decoded query pairs.
    fn from(message: Message<RequestLine>) -> Request {
        let RequestLine { method, target } = message.start;
        let (path, query) = target.split_once('?').unwrap_or((&target, ""));
        let query = query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (url_decode(k), url_decode(v)))
            .collect();
        Request {
            method,
            path: path.to_string(),
            query,
            body: message.body,
            traceparent: message.traceparent,
            keep_alive: message.keep_alive,
        }
    }
}

impl Request {
    /// The first query-string value given for `key`.
    pub(crate) fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The active trace id (remote-adopted or process-local) as the same
/// 32-hex string the Chrome trace export stamps on every span event —
/// the slowlog's linkage key. `None` when tracing is disabled.
pub(crate) fn current_trace_id_hex() -> Option<String> {
    // `traceparent` is `00-<32 hex trace id>-<16 hex span id>-01`.
    obs::trace::traceparent().map(|tp| tp[3..35].to_string())
}

/// Records one request in the per-route counter family. The method is a
/// peer-supplied string, so it is sanitized before being interpolated
/// into a Prometheus label; route labels are the fixed set of
/// [`crate::routes::ROUTES`].
pub(crate) fn count_request(registry: &obs::Registry, method: &str, route: &str, status: u16) {
    let method: String = method
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .take(16)
        .collect();
    registry
        .counter(&format!(
            "http_requests_total{{method=\"{method}\",route=\"{route}\",status=\"{status}\"}}"
        ))
        .inc();
}

/// Decodes `%XX` escapes; with `plus_is_space`, also maps `+` to a
/// space. Plus-as-space is query-string/form semantics only — in a path
/// segment `+` is a literal plus, so callers decoding paths pass
/// `false`. An escape is `%` and two hex digits; anything else after a
/// `%` (`%zz`, `%+a`) stays literal, as RFC 3986 has it.
pub(crate) fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let hex = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push((hi << 4) | lo);
                i += 3;
                continue;
            }
        }
        out.push(if plus_is_space && bytes[i] == b'+' {
            b' '
        } else {
            bytes[i]
        });
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Query-string decoding (`%XX` plus `+` → space).
fn url_decode(s: &str) -> String {
    percent_decode(s, true)
}

/// The JSON body every refusal carries: `{"error": <msg>}`.
pub(crate) fn error_body(msg: &str) -> String {
    one_member("error", msg)
}

/// `{"<key>": "<value>"}`.
pub(crate) fn one_member(key: &str, value: &str) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key(key);
            w.str(value);
        })
    })
}

/// Maps a [`ServiceError`] onto its HTTP status and a JSON error body.
pub(crate) fn error_response(err: &ServiceError) -> (u16, String) {
    (err.http_status(), error_body(&err.to_string()))
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Encodes a response head (status line + headers + blank line).
pub(crate) fn encode_response_head(
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) -> String {
    let reason = status_reason(status);
    // Every 503 — watermark shed, injected fault, under-replicated
    // write — tells the client when to come back; the retrying client
    // honors this over its own backoff schedule.
    let retry_after = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\n{retry_after}Connection: {connection}\r\n\r\n"
    )
}

// ---------------------------------------------------------------------------
// A tiny blocking client, used by tests and examples.
// ---------------------------------------------------------------------------

/// Sends one HTTP request on a connection of its own, reads the
/// response through the server's parser and returns `(status, body)`.
/// A response the parser refuses, or bytes after it, is
/// [`io::ErrorKind::InvalidData`].
pub fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut parser = HttpParser::<StatusLine>::new();
    let response =
        read_message(&mut parser, &mut stream, usize::MAX)?.ok_or(io::ErrorKind::UnexpectedEof)?;
    // One shot: the close the request asked for must follow the response.
    if parser.has_partial() || parser.read_from(&mut stream)? > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bytes after the response",
        ));
    }
    Ok((response.start.status, utf8_body(response.body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{ProvDocument, QName};
    use std::io::{BufReader, Read};

    #[test]
    fn error_body_matches_its_tree() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for msg in [
            "",
            "no such route",
            "document \"a\\b\" not found",
            &controls,
            "invalid JSON: expected `,` or `}` at line 1 column 9\r\n\u{2028}é",
        ] {
            let tree = json::json!({ "error": msg }).to_string();
            assert_eq!(error_body(msg), tree);
        }
    }

    fn sample_doc_json() -> String {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", "data"));
        doc.activity(QName::new("ex", "train"));
        doc.entity(QName::new("ex", "model"));
        doc.used(QName::new("ex", "train"), QName::new("ex", "data"));
        doc.was_generated_by(QName::new("ex", "model"), QName::new("ex", "train"));
        doc.to_json_string().unwrap()
    }

    fn start() -> Server {
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap()
    }

    /// Writes raw bytes and reads whatever comes back, tolerating a
    /// reset after the response (the server may close with unread
    /// request bytes still queued, which turns its close into an RST).
    fn raw_request(addr: std::net::SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(raw);
        let _ = s.flush();
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn health_endpoint() {
        let server = start();
        let (status, body) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ok"));
        server.shutdown();
    }

    #[test]
    fn upload_fetch_delete_cycle() {
        let server = start();
        let (status, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        assert_eq!(status, 201, "{body}");
        let id: json::Value = json::parse(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();

        let (status, listing) = request(server.addr(), "GET", "/api/v0/documents", None).unwrap();
        assert_eq!(status, 200);
        assert!(listing.contains(&id));

        let (status, fetched) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let parsed = ProvDocument::from_json_str(&fetched).unwrap();
        assert_eq!(parsed.element_count(), 3);

        let (status, _) = request(
            server.addr(),
            "DELETE",
            &format!("/api/v0/documents/{id}"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let (status, _) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}"),
            None,
        )
        .unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn stats_and_lineage_endpoints() {
        let server = start();
        let (_, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        let id: json::Value = json::parse(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();

        let (status, stats) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/stats"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let stats: json::Value = json::parse(&stats).unwrap();
        assert_eq!(stats["entities"], 2);
        assert_eq!(stats["activities"], 1);

        let (status, anc) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/ancestors?focus=ex:model"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(anc.contains("ex:data"), "{anc}");

        let (status, sub) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/subgraph?focus=ex:train"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(ProvDocument::from_json_str(&sub).unwrap().element_count() == 3);
        server.shutdown();
    }

    #[test]
    fn ledger_endpoint_exposes_chain() {
        let dir = std::env::temp_dir().join(format!("ysvc_http_ledger_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = DocumentStore::persistent(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();
        request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        let (status, body) = request(server.addr(), "GET", "/api/v0/ledger", None).unwrap();
        assert_eq!(status, 200);
        let v: json::Value = json::parse(&body).unwrap();
        let entries = v["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0]["index"], 0);
        assert!(entries[0]["entry_hash"].as_str().unwrap().len() == 64);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unparseable_committed_document_answers_500_and_others_still_serve() {
        // A replica stores an intact frame without parsing it; bytes
        // that are not PROV-JSON are refused when a route first needs
        // their tree.
        let store = DocumentStore::new();
        let bad = "not PROV-JSON";
        let entry = crate::ledger::Ledger::new()
            .append("run-bad", bad.as_bytes())
            .clone();
        store.apply_replicated("node-a", entry, Some(bad)).unwrap();
        let server = Server::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();
        let good = upload(server.addr(), &sample_doc_json());
        for tail in ["stats", "ancestors?focus=ex:model", "provn"] {
            let path = format!("/api/v0/documents/run-bad/{tail}");
            let (status, body) = request(server.addr(), "GET", &path, None).unwrap();
            assert_eq!(status, 500, "{path}: {body}");
            assert!(body.contains("cannot be read"), "{path}: {body}");
        }
        let (status, body) =
            request(server.addr(), "GET", "/api/v0/documents/run-bad", None).unwrap();
        assert_eq!((status, body.as_str()), (200, bad));
        let path = format!("/api/v0/documents/{good}/ancestors?focus=ex:model");
        assert_eq!(request(server.addr(), "GET", &path, None).unwrap().0, 200);
        let (status, html) = request(server.addr(), "GET", "/explorer", None).unwrap();
        assert_eq!(status, 200);
        assert!(html.contains(&good));
        let verify = request(server.addr(), "GET", "/api/v0/ledger/verify", None).unwrap();
        assert_eq!(verify.0, 200);
        server.shutdown();
    }

    #[test]
    fn explorer_page_served_at_root() {
        let server = start();
        let id = upload(server.addr(), &sample_doc_json());
        for path in ["/", "/explorer"] {
            let (status, html) = request(server.addr(), "GET", path, None).unwrap();
            assert_eq!(status, 200, "{path}");
            assert!(html.contains("yProv Explorer"), "{path}");
            assert!(html.contains(&id));
        }
        server.shutdown();
    }

    #[test]
    fn export_endpoints_render_all_serializations() {
        let server = start();
        let (_, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        let id: json::Value = json::parse(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();

        let (status, provn) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/provn"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(provn.contains("wasGeneratedBy(ex:model, ex:train)"));

        let (status, ttl) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/turtle"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(ttl.contains("ex:model prov:wasGeneratedBy ex:train ."));

        let (status, dot) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/dot"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(dot.starts_with("digraph"));

        let (status, _) =
            request(server.addr(), "GET", "/api/v0/documents/ghost/provn", None).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn bad_requests_rejected() {
        let server = start();
        let (status, _) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some("{not json"),
        )
        .unwrap();
        assert_eq!(status, 400);
        // Every route that reads a document refuses a cut-off one the
        // same way.
        for (method, path) in [
            ("POST", "/api/v0/documents"),
            ("PUT", "/api/v0/documents/cut"),
            ("POST", "/api/v0/documents/cut/deltas"),
        ] {
            let (status, body) =
                request(server.addr(), method, path, Some(r#"{"entity":"#)).unwrap();
            assert_eq!(status, 400, "{method} {path}");
            assert!(
                body.starts_with(r#"{"error":"invalid JSON:"#),
                "{method} {path}: {body}"
            );
        }
        let (status, body) = request(
            server.addr(),
            "PUT",
            "/api/v0/documents/odd",
            Some(r#"{"entity":{"noColon":{}}}"#),
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("invalid qualified name"), "{body}");
        let (status, _) = request(server.addr(), "GET", "/api/v0/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = request(
            server.addr(),
            "GET",
            "/api/v0/documents/doc-1/ancestors",
            None,
        )
        .unwrap();
        assert_eq!(status, 400, "missing focus");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = start();
        let addr = server.addr();
        // Each client sends 10 documents of its own and the one they all
        // share: 80 ids, plus one.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..10 {
                        let mut doc = ProvDocument::new();
                        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
                        doc.entity(QName::new("ex", format!("t{t}-{i}")));
                        ids.push(upload(addr, &doc.to_json_string().unwrap()));
                    }
                    (ids, upload(addr, &sample_doc_json()))
                })
            })
            .collect();
        let (own, shared): (Vec<Vec<String>>, Vec<String>) =
            handles.into_iter().map(|h| h.join().unwrap()).unzip();
        let mut own: Vec<String> = own.concat();
        own.sort();
        own.dedup();
        assert_eq!(own.len(), 80);
        assert!(shared.iter().all(|id| *id == shared[0]), "{shared:?}");
        let (_, listing) = request(addr, "GET", "/api/v0/documents", None).unwrap();
        let listing: json::Value = json::parse(&listing).unwrap();
        assert_eq!(listing["documents"].as_array().unwrap().len(), 81);
        server.shutdown();
    }

    #[test]
    fn slow_peer_times_out_and_overload_sheds_503() {
        // One worker, queue depth 1: a peer that stalls mid-request pins
        // the worker until the read timeout, and further connections
        // beyond the queue are shed with 503 instead of hanging.
        let server = Server::bind(
            "127.0.0.1:0",
            DocumentStore::new(),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                read_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        // The stalled peer: opens a connection, sends half a request
        // line, never finishes.
        let started = std::time::Instant::now();
        let mut stall = TcpStream::connect(addr).unwrap();
        stall.write_all(b"GET /healthz HT").unwrap();
        std::thread::sleep(Duration::from_millis(200)); // let the worker pick it up

        // Burst while the worker is pinned: more requests than worker +
        // queue can hold, so at least one must be shed.
        let mut handles = Vec::new();
        for _ in 0..6 {
            handles.push(std::thread::spawn(move || {
                request(addr, "GET", "/healthz", None).map(|(s, _)| s)
            }));
        }
        let statuses: Vec<u16> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap_or(0))
            .collect();
        assert!(
            statuses.contains(&503),
            "expected load shedding, got {statuses:?}"
        );

        // The stalled connection is cut loose by the read timeout — the
        // server answers 400 instead of blocking forever.
        stall
            .set_read_timeout(Some(Duration::from_secs(8)))
            .unwrap();
        let mut response = String::new();
        BufReader::new(&stall)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "server held a dead peer too long: {:?}",
            started.elapsed()
        );

        // After the stall clears, service is healthy again.
        let (status, _) = request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn shed_and_injected_503s_carry_retry_after() {
        // The server's own 503: an under-replicated write to a node
        // whose only peer refuses connections.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let peers = vec![crate::cluster::NodeSpec::new("node-b", dead)];
        let cluster = crate::cluster::ClusterConfig {
            push_policy: crate::client::RetryPolicy {
                max_attempts: 1,
                request_timeout: Duration::from_millis(500),
                ..Default::default()
            },
            ..crate::cluster::ClusterConfig::new("node-a", peers)
        };
        let server = Server::bind(
            "127.0.0.1:0",
            DocumentStore::new(),
            ServerConfig {
                cluster: Some(cluster),
                ..Default::default()
            },
        )
        .unwrap();
        let doc = sample_doc_json();
        let put = format!(
            "PUT /api/v0/documents/run-1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{doc}",
            doc.len()
        );
        let resp = raw_request(server.addr(), put.as_bytes());
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("under-replicated"), "{resp}");
        assert!(resp.contains("Retry-After: 1"), "{resp}");
        // Non-503 responses never carry the header.
        let ok = raw_request(server.addr(), b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(!ok.contains("Retry-After"), "{ok}");
        server.shutdown();
    }

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("ex%3Amodel"), "ex:model");
        assert_eq!(url_decode("a+b"), "a b");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%"), "bad%");
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("%+a"), "% a");
    }

    #[test]
    fn plus_stays_literal_in_path_segments() {
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("doc%2D1", false), "doc-1");
        assert_eq!(percent_decode("bad%", false), "bad%");
        assert_eq!(percent_decode("x%+a", false), "x%+a");
    }

    #[test]
    fn percent_encoded_document_ids_round_trip() {
        let server = start();
        let id = upload(server.addr(), &sample_doc_json());
        // Fetch, stat, and delete it through its percent-encoded
        // spelling ("doc%2D...").
        let encoded = id.replace('-', "%2D");
        let path = format!("/api/v0/documents/{encoded}");
        let (status, fetched) = request(server.addr(), "GET", &path, None).unwrap();
        assert_eq!(status, 200, "{fetched}");
        assert_eq!(
            ProvDocument::from_json_str(&fetched)
                .unwrap()
                .element_count(),
            3
        );
        let stats = format!("{path}/stats");
        let (status, _) = request(server.addr(), "GET", &stats, None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = request(server.addr(), "DELETE", &path, None).unwrap();
        assert_eq!(status, 200);
        let plain = format!("/api/v0/documents/{id}");
        let (status, _) = request(server.addr(), "GET", &plain, None).unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn header_byte_flood_rejected_with_431() {
        let server = start();
        let mut flood = String::from("GET /healthz HTTP/1.1\r\n");
        while flood.len() < 48 * 1024 {
            flood.push_str("X-Flood: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        flood.push_str("\r\n");
        let resp = raw_request(server.addr(), flood.as_bytes());
        // The server closes with flood bytes still unread, so the 431
        // may be lost to a reset on some stacks — but it is always
        // counted, and the server always survives.
        assert!(
            resp.is_empty() || resp.starts_with("HTTP/1.1 431"),
            "unexpected response: {}",
            &resp[..resp.len().min(120)]
        );
        let scrape = server.registry().render_prometheus();
        assert!(scrape.contains("status=\"431\""), "{scrape}");
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "server must survive the flood");
        server.shutdown();
    }

    #[test]
    fn too_many_header_fields_rejected_with_431() {
        let server = start();
        // Exactly one header past the cap, and no terminating blank
        // line: the server consumes every byte sent before rejecting,
        // so the close is clean and the 431 always arrives.
        let mut flood = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..=crate::conn::MAX_HEADERS {
            flood.push_str(&format!("X-{i}: v\r\n"));
        }
        let resp = raw_request(server.addr(), flood.as_bytes());
        assert!(
            resp.starts_with("HTTP/1.1 431"),
            "unexpected response: {}",
            &resp[..resp.len().min(120)]
        );
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn chunked_transfer_encoding_rejected_with_501() {
        let server = start();
        let resp = raw_request(
            server.addr(),
            b"POST /api/v0/documents HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(
            resp.starts_with("HTTP/1.1 501"),
            "unexpected response: {}",
            &resp[..resp.len().min(120)]
        );
        assert!(resp.contains("not supported"), "{resp}");
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_reports_route_counters() {
        let server = start();
        let (status, first) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let _ = first; // the first scrape may predate any instrument

        let (status, _) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        assert_eq!(status, 201);

        let (status, scrape) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            scrape.contains("# TYPE http_requests_total counter"),
            "{scrape}"
        );
        assert!(
            scrape.contains(
                "# HELP http_requests_total Requests served, by method, route and status."
            ),
            "{scrape}"
        );
        assert!(
            scrape.contains(
                "http_requests_total{method=\"POST\",route=\"/api/v0/documents\",status=\"201\"} 1"
            ),
            "{scrape}"
        );
        assert!(
            scrape.contains(
                "http_requests_total{method=\"GET\",route=\"/metrics\",status=\"200\"} 1"
            ),
            "{scrape}"
        );
        assert!(
            scrape.contains("http_request_duration_seconds_count{route=\"/api/v0/documents\"} 1"),
            "{scrape}"
        );
        assert!(
            scrape.contains("http_request_duration_seconds_bucket{route=\"/api/v0/documents\","),
            "{scrape}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_scrape_uses_the_prometheus_text_content_type() {
        let server = start();
        let resp = raw_request(
            server.addr(),
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(
            resp.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            "scrape must use the 0.0.4 exposition content type: {}",
            &resp[..resp.len().min(300)]
        );
        server.shutdown();
    }

    #[test]
    fn every_scraped_metric_family_carries_help_and_type() {
        let server = start();
        // Exercise enough surface that every family registers: a
        // store write, a lineage query, a parse error, and a scrape.
        let (status, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        assert_eq!(status, 201);
        let id: json::Value = json::parse(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();
        let (status, _) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/ancestors?focus=ex:model"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        raw_request(server.addr(), b"NOT A REQUEST\r\n\r\n");

        let (status, scrape) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let mut typed = std::collections::BTreeSet::new();
        let mut helped = std::collections::BTreeSet::new();
        for line in scrape.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap().to_string());
            }
        }
        let mut families_seen = 0;
        for line in scrape.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            // Histogram samples render under `_bucket`/`_sum`/`_count`
            // suffixes of their family name.
            let family = std::iter::once(name)
                .chain(
                    ["_bucket", "_sum", "_count"]
                        .iter()
                        .filter_map(|s| name.strip_suffix(s)),
                )
                .find(|f| typed.contains(*f))
                .unwrap_or_else(|| panic!("sample {name} has no # TYPE line:\n{scrape}"));
            assert!(
                helped.contains(family),
                "family {family} has no # HELP line:\n{scrape}"
            );
            families_seen += 1;
        }
        assert!(families_seen > 0, "scrape was empty: {scrape}");
        server.shutdown();
    }

    fn delta_json() -> String {
        let mut delta = ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.activity(QName::new("ex", "eval"));
        delta.entity(QName::new("ex", "report"));
        delta.used(QName::new("ex", "eval"), QName::new("ex", "model"));
        delta.was_generated_by(QName::new("ex", "report"), QName::new("ex", "eval"));
        delta.to_json_string().unwrap()
    }

    #[test]
    fn delta_upload_merges_and_watch_observes_versions() {
        let server = start();
        let addr = server.addr();
        let id = upload(addr, &sample_doc_json());
        let doc = format!("/api/v0/documents/{id}");

        // A watch cursor behind the current version answers immediately
        // with the document inline.
        let (status, w) = request(addr, "GET", &format!("{doc}/watch?after=0"), None).unwrap();
        assert_eq!(status, 200, "{w}");
        let w: json::Value = json::parse(&w).unwrap();
        assert_eq!(w["changed"], true);
        assert_eq!(w["version"], 1);
        assert_eq!(w["id"], id.as_str());

        // Park a watcher past the head, then merge a delta: it wakes
        // with the merged document, well before its timeout.
        let watch = format!("{doc}/watch?after=1&timeout_ms=10000");
        let watcher = std::thread::spawn(move || request(addr, "GET", &watch, None).unwrap());
        std::thread::sleep(Duration::from_millis(100));
        let deltas = format!("{doc}/deltas");
        let (status, body) = request(addr, "POST", &deltas, Some(&delta_json())).unwrap();
        assert_eq!(status, 200, "{body}");
        let v: json::Value = json::parse(&body).unwrap();
        assert_eq!(v["version"], 2);
        let (status, w) = watcher.join().unwrap();
        assert_eq!(status, 200, "{w}");
        let w: json::Value = json::parse(&w).unwrap();
        assert_eq!(w["changed"], true);
        assert_eq!(w["version"], 2);
        let merged = ProvDocument::from_json_str(&w["document"].to_string()).unwrap();
        assert_eq!(merged.element_count(), 5);

        // At the head, the watch times out unchanged.
        let watch = format!("{doc}/watch?after=2&timeout_ms=100");
        let (status, w) = request(addr, "GET", &watch, None).unwrap();
        assert_eq!(status, 200);
        let w: json::Value = json::parse(&w).unwrap();
        assert_eq!(w["changed"], false);
        assert_eq!(w["version"], 2);

        // Ghost documents 404; the merged lineage spans the delta; the
        // merge is visible as an incremental index extension.
        let (status, _) = request(addr, "GET", "/api/v0/documents/ghost/watch", None).unwrap();
        assert_eq!(status, 404);
        let ancestors = format!("{doc}/ancestors?focus=ex:report");
        let (status, anc) = request(addr, "GET", &ancestors, None).unwrap();
        assert_eq!(status, 200);
        assert!(anc.contains("ex:data"), "{anc}");
        let (_, scrape) = request(addr, "GET", "/metrics", None).unwrap();
        assert!(
            scrape.contains("store_incremental_merges_total 1"),
            "{scrape}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_exposes_store_cache_counters() {
        let server = start();
        let (_, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        let id: json::Value = json::parse(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();
        for _ in 0..2 {
            let (status, _) = request(
                server.addr(),
                "GET",
                &format!("/api/v0/documents/{id}/ancestors?focus=ex:model"),
                None,
            )
            .unwrap();
            assert_eq!(status, 200);
        }
        let (status, scrape) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        // The index was built at upload time, so both lineage queries
        // hit the cache; backend put latency was recorded by the upload.
        assert!(
            scrape.contains("store_graph_cache_hits_total 2"),
            "{scrape}"
        );
        assert!(
            scrape.contains("store_graph_cache_misses_total 0"),
            "{scrape}"
        );
        assert!(
            scrape.contains("store_backend_put_seconds_count 1"),
            "{scrape}"
        );
        server.shutdown();
    }

    /// An ML-run document with a leak: the test split feeds training.
    fn leaky_doc_json() -> String {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut()
            .register("yprov4ml", prov_model::qname::YPROV_NS)
            .unwrap();
        doc.entity(QName::new("ex", "test_split"))
            .attr(QName::yprov("split"), prov_model::AttrValue::from("test"));
        doc.entity(QName::new("ex", "train_split"))
            .attr(QName::yprov("group"), prov_model::AttrValue::from("a"));
        doc.entity(QName::new("ex", "extra_split"))
            .attr(QName::yprov("group"), prov_model::AttrValue::from("b"));
        doc.activity(QName::new("ex", "training_run"));
        doc.entity(QName::new("ex", "model"));
        doc.used(
            QName::new("ex", "training_run"),
            QName::new("ex", "test_split"),
        );
        doc.used(
            QName::new("ex", "training_run"),
            QName::new("ex", "train_split"),
        );
        doc.used(
            QName::new("ex", "training_run"),
            QName::new("ex", "extra_split"),
        );
        doc.was_generated_by(QName::new("ex", "model"), QName::new("ex", "training_run"));
        doc.to_json_string().unwrap()
    }

    fn upload(addr: std::net::SocketAddr, json: &str) -> String {
        let (status, body) = request(addr, "POST", "/api/v0/documents", Some(json)).unwrap();
        assert_eq!(status, 201, "{body}");
        let v: json::Value = json::parse(&body).unwrap();
        v["id"].as_str().unwrap().to_string()
    }

    #[test]
    fn query_endpoint_runs_path_queries() {
        let server = start();
        let id = upload(server.addr(), &sample_doc_json());

        // ex:model towards its origins over any kinds to ex:data — the
        // lineage path (forward follows the dependency edges).
        let body = r#"{"query": {
            "start": {"id": "ex:model"},
            "steps": [{"dir": "forward", "repeat": "+",
                       "target": {"id": "ex:data"}}]
        }, "render": "dot"}"#;
        let (status, resp) = request(
            server.addr(),
            "POST",
            &format!("/api/v0/documents/{id}/query"),
            Some(body),
        )
        .unwrap();
        assert_eq!(status, 200, "{resp}");
        let v: json::Value = json::parse(&resp).unwrap();
        assert_eq!(v["scenario"], "path");
        assert_eq!(v["row_count"], 1);
        assert_eq!(v["truncated"], false);
        assert_eq!(v["rows"][0]["start"], "ex:model");
        assert_eq!(v["rows"][0]["end"], "ex:data");
        let path = v["rows"][0]["path"].as_array().unwrap();
        assert_eq!(path.len(), 3, "{resp}");
        assert!(!v["plan"]["reason"].as_str().unwrap().is_empty());
        assert!(v["dot"].as_str().unwrap().contains("digraph"));

        // Malformed bodies are 400s that say what went wrong.
        for bad in [
            "not json",
            r#"{"render": "dot"}"#,
            r#"{"query": {}, "audit": "leakage"}"#,
            r#"{"audit": "no-such-audit"}"#,
            r#"{"query": {"start": {"wrongClause": 1}, "steps": []}}"#,
            r#"{"query": {"start": {}, "steps": []}, "docs": [1]}"#,
        ] {
            let (status, resp) = request(
                server.addr(),
                "POST",
                &format!("/api/v0/documents/{id}/query"),
                Some(bad),
            )
            .unwrap();
            assert_eq!(status, 400, "{bad} -> {resp}");
            assert!(resp.contains("error"), "{resp}");
        }

        // A key the scenario does not read is a 400 that names it, not
        // a default silently applied.
        for (bad, key) in [
            (
                r#"{"audit": "fairness", "model": "ex:model", "groupKey": "ex:gender"}"#,
                "groupKey",
            ),
            (
                r#"{"query": {"start": {"id": "ex:model"}, "steps": []}, "limt": 3}"#,
                "limt",
            ),
            (r#"{"audit": "leakage", "sample": "ex:s"}"#, "sample"),
        ] {
            let path = format!("/api/v0/documents/{id}/query");
            let (status, resp) = request(server.addr(), "POST", &path, Some(bad)).unwrap();
            assert_eq!(status, 400, "{bad} -> {resp}");
            assert!(
                resp.contains(&format!("unknown key \\\"{key}\\\"")),
                "{resp}"
            );
        }

        // Unknown documents are 404s.
        let (status, _) = request(
            server.addr(),
            "POST",
            "/api/v0/documents/ghost/query",
            Some(r#"{"audit": "leakage"}"#),
        )
        .unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn query_endpoint_refuses_other_renders_and_deep_repeats() {
        let server = start();
        let id = upload(server.addr(), &leaky_doc_json());
        let path = format!("/api/v0/documents/{id}/query");
        for (body, named) in [
            (r#"{"audit": "leakage", "render": "svg"}"#, r#"\"svg\""#),
            (r#"{"audit": "join", "render": 1}"#, "render 1"),
        ] {
            let (status, resp) = request(server.addr(), "POST", &path, Some(body)).unwrap();
            assert_eq!(status, 400, "{body} -> {resp}");
            assert!(resp.contains(named), "{resp}");
        }

        // A two-node cycle keeps every level of an exact repeat full: a
        // million-hop bound is refused before it is walked.
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", "a"));
        doc.entity(QName::new("ex", "b"));
        doc.was_derived_from(QName::new("ex", "a"), QName::new("ex", "b"));
        doc.was_derived_from(QName::new("ex", "b"), QName::new("ex", "a"));
        let cyclic = upload(server.addr(), &doc.to_json_string().unwrap());
        let path = format!("/api/v0/documents/{cyclic}/query");
        for repeat in ["1000000", r#"{"min": 1000000, "max": 1000000}"#] {
            let body = format!(
                r#"{{"query": {{"start": {{"id": "ex:a"}}, "steps": [{{"repeat": {repeat}}}]}}}}"#
            );
            let t0 = std::time::Instant::now();
            let (status, resp) = request(server.addr(), "POST", &path, Some(&body)).unwrap();
            assert_eq!(status, 400, "{resp}");
            assert!(resp.contains("MAX_REPEAT_HOPS (64)"), "{resp}");
            assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        }
        server.shutdown();
    }

    #[test]
    fn query_endpoint_runs_ml_audits() {
        let server = start();
        let id = upload(server.addr(), &leaky_doc_json());
        let post = |body: &str| {
            let (status, resp) = request(
                server.addr(),
                "POST",
                &format!("/api/v0/documents/{id}/query"),
                Some(body),
            )
            .unwrap();
            assert_eq!(status, 200, "{resp}");
            json::parse(&resp).unwrap()
        };

        // Data leakage: the default filters catch test_split -> training_run.
        let v = post(r#"{"audit": "leakage", "render": "dot"}"#);
        assert_eq!(v["scenario"], "leakage");
        assert_eq!(v["clean"], false);
        assert_eq!(v["test_artifacts"], 1);
        assert_eq!(v["training_activities"], 1);
        assert_eq!(v["leaks"][0]["start"], "ex:test_split");
        assert_eq!(v["leaks"][0]["end"], "ex:training_run");
        assert!(v["dot"].as_str().unwrap().contains("digraph"));

        // GDPR membership: the training sample reaches the model.
        let v = post(r#"{"audit": "gdpr", "sample": "ex:train_split", "model": "ex:model"}"#);
        assert_eq!(v["scenario"], "gdpr");
        assert_eq!(v["trained_on"], true);
        let path = v["path"].as_array().unwrap();
        assert_eq!(path.first().unwrap(), "ex:train_split");
        assert_eq!(path.last().unwrap(), "ex:model");
        let v = post(r#"{"audit": "gdpr", "sample": "ex:model", "model": "ex:train_split"}"#);
        assert_eq!(v["trained_on"], false);

        // Group fairness: upstream groups a=1, b=1 -> balanced.
        let v = post(r#"{"audit": "fairness", "model": "ex:model"}"#);
        assert_eq!(v["scenario"], "fairness");
        assert_eq!(v["groups"]["a"], 1);
        assert_eq!(v["groups"]["b"], 1);
        assert_eq!(v["balance"], 1.0);

        // Missing required arguments are 400s.
        for bad in [
            r#"{"audit": "gdpr", "sample": "ex:train_split"}"#,
            r#"{"audit": "fairness"}"#,
            r#"{"audit": "gdpr", "sample": "not a qname", "model": "ex:model"}"#,
        ] {
            let (status, resp) = request(
                server.addr(),
                "POST",
                &format!("/api/v0/documents/{id}/query"),
                Some(bad),
            )
            .unwrap();
            assert_eq!(status, 400, "{bad} -> {resp}");
        }
        server.shutdown();
    }

    #[test]
    fn query_endpoint_joins_runs_through_digests() {
        let server = start();
        let mk = |activity: &str, artifact: &str, digest: &str, produces: bool| {
            let mut doc = ProvDocument::new();
            doc.namespaces_mut().register("ex", "http://ex/").unwrap();
            doc.namespaces_mut()
                .register("yprov4ml", prov_model::qname::YPROV_NS)
                .unwrap();
            doc.activity(QName::new("ex", activity));
            doc.entity(QName::new("ex", artifact))
                .attr(QName::yprov("sha256"), prov_model::AttrValue::from(digest));
            if produces {
                doc.was_generated_by(QName::new("ex", artifact), QName::new("ex", activity));
            } else {
                doc.used(QName::new("ex", activity), QName::new("ex", artifact));
            }
            doc.to_json_string().unwrap()
        };
        let run = upload(
            server.addr(),
            &mk("training_run", "run_artifact", "d1", true),
        );
        let wf = upload(server.addr(), &mk("wf_task", "wf_artifact", "d1", false));

        let body = format!(r#"{{"audit": "join", "docs": ["{wf}"]}}"#);
        let (status, resp) = request(
            server.addr(),
            "POST",
            &format!("/api/v0/documents/{run}/query"),
            Some(&body),
        )
        .unwrap();
        assert_eq!(status, 200, "{resp}");
        let v: json::Value = json::parse(&resp).unwrap();
        assert_eq!(v["scenario"], "join");
        assert_eq!(v["shared_count"], 1);
        assert_eq!(v["documents"].as_array().unwrap().len(), 2);
        let joined = v["joined"].as_array().unwrap();
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0]["digest"], "d1");
        assert_eq!(joined[0]["producers"][0], "ex:training_run");
        assert_eq!(joined[0]["consumers"][0], "ex:wf_task");
        assert_eq!(joined[0]["shared"], true);

        // A path query over the joined view sees both documents' nodes.
        let body = format!(
            r#"{{"query": {{"start": {{"attrEquals": {{"key": "yprov4ml:sha256", "value": "d1"}}}},
                 "steps": []}}, "docs": ["{wf}"]}}"#
        );
        let (status, resp) = request(
            server.addr(),
            "POST",
            &format!("/api/v0/documents/{run}/query"),
            Some(&body),
        )
        .unwrap();
        assert_eq!(status, 200, "{resp}");
        let v: json::Value = json::parse(&resp).unwrap();
        assert_eq!(v["row_count"], 2, "{resp}");

        // Joining against a missing document is a 404, not a panic.
        let (status, _) = request(
            server.addr(),
            "POST",
            &format!("/api/v0/documents/{run}/query"),
            Some(r#"{"audit": "join", "docs": ["ghost"]}"#),
        )
        .unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn stats_endpoint_reports_graph_index() {
        let server = start();
        let id = upload(server.addr(), &sample_doc_json());
        let (status, stats) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/stats"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let v: json::Value = json::parse(&stats).unwrap();
        assert_eq!(v["graph"]["nodes"], 3, "{stats}");
        assert_eq!(v["graph"]["edges"], 2);
        assert_eq!(v["graph"]["per_kind"]["used"], 1);
        assert_eq!(v["graph"]["per_kind"]["wasGeneratedBy"], 1);
        assert!(v["graph"]["avg_degree"].as_f64().unwrap() > 0.0);
        server.shutdown();
    }

    #[test]
    fn metrics_count_queries_by_scenario() {
        let server = start();
        let id = upload(server.addr(), &leaky_doc_json());
        for body in [
            r#"{"query": {"start": {"id": "ex:model"}, "steps": []}}"#,
            r#"{"audit": "leakage"}"#,
            r#"{"audit": "leakage"}"#,
        ] {
            let (status, _) = request(
                server.addr(),
                "POST",
                &format!("/api/v0/documents/{id}/query"),
                Some(body),
            )
            .unwrap();
            assert_eq!(status, 200);
        }
        let (status, scrape) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            scrape.contains("query_requests_total{scenario=\"path\"} 1"),
            "{scrape}"
        );
        assert!(
            scrape.contains("query_requests_total{scenario=\"leakage\"} 2"),
            "{scrape}"
        );
        assert!(scrape.contains("# HELP query_plan_seconds"), "{scrape}");
        assert!(scrape.contains("query_exec_seconds_count 3"), "{scrape}");
        server.shutdown();
    }
}
