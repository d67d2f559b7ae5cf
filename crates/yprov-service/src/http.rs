//! A from-scratch HTTP/1.1 server exposing the store.
//!
//! No frameworks. Two interchangeable cores sit behind the [`Server`]
//! facade, selected by [`ServerConfig::core`]:
//!
//! * [`ServerCore::EventLoop`] (the default) — a non-blocking epoll
//!   reactor (see [`crate::reactor`]): one thread multiplexes every
//!   connection, complete requests are dispatched to a worker pool,
//!   and keep-alive/pipelined connections are first-class. Slow peers
//!   cost a buffer instead of a thread.
//! * [`ServerCore::Threaded`] — the original thread-per-connection
//!   design: a listener thread hands accepted sockets to a fixed pool
//!   of workers over a bounded crossbeam channel; each worker parses
//!   one request, routes it, and writes one `Connection: close`
//!   response. Kept as the bench baseline and a fallback.
//!
//! Both cores share this module's parser semantics, routing, metrics
//! and response encoding, so their observable behavior for one-shot
//! (`Connection: close`) clients is byte-identical.
//!
//! The parser is defensive: the header section is capped in total bytes
//! and field count (431 beyond either limit), and `Transfer-Encoding:
//! chunked` — which this server does not implement — is rejected with
//! 501 instead of being silently misread as an empty body. Path
//! segments are percent-decoded (without the `+`-to-space query rule),
//! so percent-encoded document ids round-trip.
//!
//! ## Routes (yProv-style)
//!
//! | Method | Path | Effect |
//! |---|---|---|
//! | GET    | `/healthz` | liveness |
//! | GET    | `/metrics` | Prometheus text exposition of server + store metrics |
//! | GET    | `/api/v0/documents` | list handle ids |
//! | POST   | `/api/v0/documents` | upload PROV-JSON, returns `{"id"}` |
//! | GET    | `/api/v0/documents/{id}` | the PROV-JSON document |
//! | DELETE | `/api/v0/documents/{id}` | remove |
//! | GET    | `/api/v0/documents/{id}/stats` | element/relation counts |
//! | GET    | `/api/v0/documents/{id}/ancestors?focus=<qname>` | lineage |
//! | GET    | `/api/v0/documents/{id}/subgraph?focus=<qname>` | focused sub-document |
//! | GET    | `/api/v0/documents/{id}/provn` | PROV-N rendering (text) |
//! | GET    | `/api/v0/documents/{id}/turtle` | PROV-O / Turtle rendering |
//! | GET    | `/api/v0/documents/{id}/dot` | Graphviz DOT of the graph |
//! | POST   | `/api/v0/documents/{id}/deltas` | merge a PROV-JSON delta (ledgered + replicated) |
//! | GET    | `/api/v0/documents/{id}/watch?after=N&timeout_ms=M` | long-poll for a version newer than `N` |
//! | POST   | `/api/v0/documents/{id}/query` | planned path-pattern query / ML audit (JSON IR body; `docs` joins documents, `render:"dot"` adds the matched subgraph) |
//! | GET    | `/api/v0/ledger` | the tamper-evident upload chain |
//! | PUT    | `/api/v0/documents/{id}` | upload/replace under a chosen id |
//! | GET    | `/api/v0/ledger/verify` | verify every chain this node holds |
//! | POST   | `/api/v0/replication/frames` | apply a batch of replication frames in order (JSON header line + raw document bytes); 200 with the new head, 409 + `expect_index` at the first refusal |
//! | GET    | `/api/v0/replication/head?source=` | this replica's cursor for a source |
//! | GET    | `/api/v0/replication/sources` | all replication cursors |
//!
//! When [`ServerConfig::cluster`] is set, uploads are streamed to the
//! document's replica set before being acknowledged (see
//! [`crate::cluster`]); under-replicated writes are answered 503. Every
//! 503 — shed, injected, or under-replicated — carries a `Retry-After`
//! header so well-behaved clients back off on the server's schedule.

use crate::cluster::Replicator;
use crate::error::ServiceError;
use crate::store::{DocumentStore, WatchOutcome};
use crossbeam::channel::{bounded, Sender, TrySendError};
use prov_model::query::{ElementFilter, PathQuery};
use prov_model::{ProvDocument, QName};
use serde_json::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which server core drives connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerCore {
    /// Non-blocking epoll reactor with keep-alive and pipelining.
    #[default]
    EventLoop,
    /// Thread-per-connection over blocking sockets (bench baseline).
    Threaded,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which core drives connections (event loop by default).
    pub core: ServerCore,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
    /// Maximum total bytes in the request line + header section; a peer
    /// streaming endless headers gets 431 once the budget is spent
    /// instead of growing a worker's memory without bound.
    pub max_header_bytes: usize,
    /// Maximum number of header fields (431 beyond it).
    pub max_headers: usize,
    /// Socket read timeout: a peer that stops sending mid-request gets
    /// a 400 after this long instead of pinning a worker forever.
    pub read_timeout: Duration,
    /// Socket write timeout: a peer that stops reading its response
    /// frees the worker after this long.
    pub write_timeout: Duration,
    /// Accepted connections queued between the listener and the
    /// workers; beyond this the server sheds load with 503 instead of
    /// letting the backlog (and client latency) grow without bound.
    pub queue_depth: usize,
    /// Event-loop core: open-connection admission watermark. `None`
    /// (the default) derives `workers + queue_depth` — the same bound
    /// the threaded core's bounded accept queue enforced — so beyond
    /// it new connections are shed with 503.
    pub max_connections: Option<usize>,
    /// Event-loop core: total response bytes buffered across all
    /// connections before further dispatches shed with 503.
    pub max_queued_bytes: usize,
    /// Event-loop core: a keep-alive connection that has served at
    /// least one response and then goes quiet is closed (silently)
    /// after this long.
    pub idle_timeout: Duration,
    /// Event-loop core: [`Server::stop`] drains in-flight connections
    /// for at most this long before force-closing the stragglers.
    pub drain_deadline: Duration,
    /// Fault injection: fail this many document uploads with 503 before
    /// serving normally (exercises client retry; 0 in production).
    pub chaos_fail_uploads: u32,
    /// Multi-node mode: this node's identity, peers and replication
    /// tunables. `None` (the default) runs a plain single node.
    pub cluster: Option<crate::cluster::ClusterConfig>,
    /// Ops plane: self-scrape cadence, tsdb tiers, slowlog depth and
    /// alert rules.
    pub ops: crate::ops::OpsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            core: ServerCore::default(),
            workers: 4,
            max_body: 256 * 1024 * 1024,
            max_header_bytes: 32 * 1024,
            max_headers: 128,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            queue_depth: 64,
            max_connections: None,
            max_queued_bytes: 64 * 1024 * 1024,
            idle_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            chaos_fail_uploads: 0,
            cluster: None,
            ops: crate::ops::OpsConfig::default(),
        }
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`] /
/// [`Server::stop`]) stops the core and its workers. On the event-loop
/// core the stop is graceful: in-flight connections drain (bounded by
/// [`ServerConfig::drain_deadline`]) before the reactor exits.
pub struct Server {
    addr: std::net::SocketAddr,
    core: Option<CoreHandle>,
    registry: Arc<obs::Registry>,
    replicator: Option<Arc<Replicator>>,
    ops: Arc<crate::ops::Ops>,
    /// Dropping the sender wakes the scraper out of its cadence sleep.
    scraper_stop: Option<Sender<()>>,
    scraper_thread: Option<std::thread::JoinHandle<()>>,
}

/// The running core behind the facade.
enum CoreHandle {
    Threaded {
        stop: Arc<AtomicBool>,
        listener_thread: std::thread::JoinHandle<()>,
    },
    Event {
        handle: crate::reactor::ReactorHandle,
        thread: std::thread::JoinHandle<()>,
    },
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`.
    pub fn bind(addr: &str, store: DocumentStore, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let chaos = Arc::new(AtomicU32::new(config.chaos_fail_uploads));
        // Per-server registry (always on): request metrics are the
        // server's own concern and stay out of the process-global
        // tracker registry.
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
            "Connections currently held by the event-loop core.",
        );
        registry.set_help(
            "server_connections_accepted_total",
            "Connections accepted since start (including shed ones).",
        );
        registry.set_help(
            "server_requests_pipelined_total",
            "Requests that arrived on a connection with earlier requests still in flight.",
        );
        registry.set_help(
            "server_shed_total",
            "Connections/requests shed with 503, by watermark reason.",
        );
        registry.set_help(
            "reactor_loop_lag_seconds",
            "Time one reactor iteration spent processing between epoll waits.",
        );
        registry.set_help(
            "reactor_queued_jobs",
            "Requests dispatched to workers and not yet completed.",
        );
        registry.set_help(
            "reactor_queued_bytes",
            "Response bytes buffered across all connections.",
        );
        let ops = crate::ops::Ops::new(&config.ops, &registry);
        let replicator = config
            .cluster
            .as_ref()
            .map(|c| Arc::new(Replicator::new(c.clone(), &registry)));

        // The scraper thread: snapshots both registries on the cadence
        // and feeds the ops plane. Wall-clock seconds drive production
        // ticks; tests that need determinism turn `self_scrape` off and
        // call `Ops::tick` with a virtual clock instead.
        let (scraper_stop, scraper_thread) = if config.ops.self_scrape {
            let interval = config.ops.scrape_interval.max(Duration::from_millis(10));
            let (tx, rx) = bounded::<()>(0);
            let ops_handle = Arc::clone(&ops);
            let server_registry = Arc::clone(&registry);
            let store_registry = Arc::clone(store.registry());
            let thread = std::thread::Builder::new()
                .name("yprov-ops-scrape".into())
                .spawn(move || loop {
                    let now_s = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(0.0);
                    ops_handle.tick(now_s, &[&server_registry, &store_registry]);
                    match rx.recv_timeout(interval) {
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                        _ => break, // stop signal or sender dropped
                    }
                })?;
            (Some(tx), Some(thread))
        } else {
            (None, None)
        };

        let core = match config.core {
            ServerCore::EventLoop => {
                let ev = crate::reactor::spawn(
                    listener,
                    store,
                    config,
                    chaos,
                    Arc::clone(&registry),
                    replicator.clone(),
                    Arc::clone(&ops),
                )?;
                CoreHandle::Event {
                    handle: ev.handle,
                    thread: ev.thread,
                }
            }
            ServerCore::Threaded => {
                let (tx, rx) = bounded::<TcpStream>(config.queue_depth.max(1));
                for i in 0..config.workers.max(1) {
                    let rx = rx.clone();
                    let store = store.clone();
                    let cfg = config.clone();
                    let chaos = Arc::clone(&chaos);
                    let registry = Arc::clone(&registry);
                    let replicator = replicator.clone();
                    let ops = Arc::clone(&ops);
                    std::thread::Builder::new()
                        .name(format!("yprov-http-{i}"))
                        .spawn(move || {
                            while let Ok(stream) = rx.recv() {
                                let _ = handle_connection(
                                    stream,
                                    &store,
                                    &cfg,
                                    &chaos,
                                    &registry,
                                    replicator.as_deref(),
                                    &ops,
                                );
                            }
                        })?;
                }
                let stop_l = Arc::clone(&stop);
                let listener_thread = std::thread::Builder::new()
                    .name("yprov-http-accept".into())
                    .spawn(move || accept_loop(listener, tx, stop_l))?;
                CoreHandle::Threaded {
                    stop,
                    listener_thread,
                }
            }
        };

        Ok(Server {
            addr: local,
            core: Some(core),
            registry,
            replicator,
            ops,
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
        &self.registry
    }

    /// The server's ops plane: tsdb history, alert rules, slowlog.
    pub fn ops(&self) -> &Arc<crate::ops::Ops> {
        &self.ops
    }

    /// A shared handle to the replication chaos knobs, when this server
    /// is cluster-configured — how the chaos harness injects dropped,
    /// torn, duplicated or delayed frames mid-run.
    pub fn replication_chaos(&self) -> Option<crate::cluster::ReplicationChaos> {
        self.replicator.as_ref().map(|r| r.chaos())
    }

    /// Stops accepting connections and joins the listener.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the core. On the event-loop core this is a graceful
    /// drain: the listener is deregistered, in-flight connections
    /// finish (bounded by [`ServerConfig::drain_deadline`]), and the
    /// call returns once the reactor has exited. Idempotent.
    pub fn stop(&mut self) {
        // Stop the scraper first: dropping the sender wakes it out of
        // its cadence sleep immediately.
        drop(self.scraper_stop.take());
        if let Some(thread) = self.scraper_thread.take() {
            let _ = thread.join();
        }
        match self.core.take() {
            None => {}
            Some(CoreHandle::Threaded {
                stop,
                listener_thread,
            }) => {
                stop.store(true, Ordering::Release);
                // Nudge the blocking accept() with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
                let _ = listener_thread.join();
            }
            Some(CoreHandle::Event { handle, thread }) => {
                handle.stop();
                let _ = thread.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<TcpStream>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(s) => match tx.try_send(s) {
                Ok(()) => {}
                Err(TrySendError::Full(s)) => {
                    // All workers busy and the queue is at capacity:
                    // shed load immediately rather than queue without
                    // bound. Best effort — a peer that won't read its
                    // 503 is dropped by the short write timeout.
                    let _ = s.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = write_response(
                        s,
                        503,
                        &json!({"error": "server overloaded, retry later"}).to_string(),
                    );
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(_) => continue,
        }
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

impl Request {
    /// Assembles a request from parsed parts, splitting the target
    /// into a path and decoded query pairs.
    pub(crate) fn from_parts(
        method: String,
        target: &str,
        body: Vec<u8>,
        traceparent: Option<String>,
        keep_alive: bool,
    ) -> Request {
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (url_decode(k), url_decode(v)))
            .collect();
        Request {
            method,
            path,
            query,
            body,
            traceparent,
            keep_alive,
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    store: &DocumentStore,
    cfg: &ServerConfig,
    chaos: &AtomicU32,
    registry: &obs::Registry,
    replicator: Option<&Replicator>,
    ops: &crate::ops::Ops,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let started = Instant::now();
    let request = match parse_request(&mut reader, cfg) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()), // empty connection (shutdown nudge)
        Err((status, msg)) => {
            registry.counter("http_parse_errors_total").inc();
            count_request(registry, "-", "unparsed", status);
            return write_response(stream, status, &json!({"error": msg}).to_string());
        }
    };

    // Adopt the client's trace before opening the handler span, so the
    // span's trace id matches the sender's. Declaration order matters:
    // `_remote` outlives `trace`, so the span closes while the remote
    // context is still in force.
    let _remote = request
        .traceparent
        .as_deref()
        .and_then(obs::trace::adopt_remote);
    let mut trace = obs::trace::span("handle_request");
    let trace_id = current_trace_id_hex();
    if obs::trace::is_enabled() {
        trace.annotate("method", request.method.clone());
        trace.annotate("path", request.path.clone());
    }
    let (status, body) = route(&request, store, chaos, registry, replicator, ops);
    if obs::trace::is_enabled() {
        trace.annotate("status", status.to_string());
    }
    drop(trace);
    let label = route_label(&request.path);
    count_request(registry, &request.method, label, status);
    let elapsed = started.elapsed();
    registry
        .histogram(&format!(
            "http_request_duration_seconds{{route=\"{label}\"}}"
        ))
        .record(elapsed);
    ops.slowlog().record(
        &request.method,
        &request.path,
        label,
        status,
        elapsed.as_nanos() as u64,
        None,
        trace_id,
    );

    let content_type = content_type_for(&request.path, status);
    write_response_typed(stream, status, content_type, &body)
}

/// The active trace id (remote-adopted or process-local) as the same
/// 32-hex string the Chrome trace export stamps on every span event —
/// the slowlog's linkage key. `None` when tracing is disabled.
pub(crate) fn current_trace_id_hex() -> Option<String> {
    // `traceparent` is `00-<32 hex trace id>-<16 hex span id>-01`.
    obs::trace::traceparent().map(|tp| tp[3..35].to_string())
}

/// Picks the response `Content-Type` for a route's body — text for the
/// serialization exports and the metrics exposition, HTML for the
/// explorer, JSON otherwise.
pub(crate) fn content_type_for(path: &str, status: u16) -> &'static str {
    match path.rsplit('/').next() {
        Some("provn") | Some("turtle") | Some("dot") if status == 200 => {
            "text/plain; charset=utf-8"
        }
        Some("metrics") if status == 200 && path == "/metrics" => {
            "text/plain; version=0.0.4; charset=utf-8"
        }
        Some("") | Some("explorer") if status == 200 && path.len() <= "/explorer".len() => {
            "text/html; charset=utf-8"
        }
        _ => "application/json",
    }
}

/// Records one request in the per-route counter family. The method is a
/// peer-supplied string, so it is sanitized before being interpolated
/// into a Prometheus label; route labels come from the fixed
/// [`route_label`] template set.
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

/// Maps a request path onto its route template, so metrics aggregate
/// per route rather than per document id.
pub(crate) fn route_label(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        [] | ["explorer"] => "/explorer",
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["api", "v0", "ledger"] => "/api/v0/ledger",
        ["api", "v0", "ledger", "verify"] => "/api/v0/ledger/verify",
        ["api", "v0", "replication", "frames"] => "/api/v0/replication/frames",
        ["api", "v0", "replication", "head"] => "/api/v0/replication/head",
        ["api", "v0", "replication", "sources"] => "/api/v0/replication/sources",
        ["api", "v0", "documents"] => "/api/v0/documents",
        ["api", "v0", "documents", _] => "/api/v0/documents/{id}",
        ["api", "v0", "documents", _, "stats"] => "/api/v0/documents/{id}/stats",
        ["api", "v0", "documents", _, "ancestors"] => "/api/v0/documents/{id}/ancestors",
        ["api", "v0", "documents", _, "subgraph"] => "/api/v0/documents/{id}/subgraph",
        ["api", "v0", "documents", _, "provn"] => "/api/v0/documents/{id}/provn",
        ["api", "v0", "documents", _, "turtle"] => "/api/v0/documents/{id}/turtle",
        ["api", "v0", "documents", _, "dot"] => "/api/v0/documents/{id}/dot",
        ["api", "v0", "documents", _, "deltas"] => "/api/v0/documents/{id}/deltas",
        ["api", "v0", "documents", _, "watch"] => "/api/v0/documents/{id}/watch",
        ["api", "v0", "documents", _, "query"] => "/api/v0/documents/{id}/query",
        ["api", "v0", "obs", "health"] => "/api/v0/obs/health",
        ["api", "v0", "obs", "timeseries"] => "/api/v0/obs/timeseries",
        ["api", "v0", "obs", "slowlog"] => "/api/v0/obs/slowlog",
        ["api", "v0", "obs", "alerts"] => "/api/v0/obs/alerts",
        ["api", "v0", "obs", "cluster"] => "/api/v0/obs/cluster",
        _ => "unmatched",
    }
}

/// Parses one request. `Err((status, message))` distinguishes plain
/// malformed input (400) from the header budget (431) and unimplemented
/// transfer encodings (501).
fn parse_request(
    reader: &mut BufReader<TcpStream>,
    cfg: &ServerConfig,
) -> Result<Option<Request>, (u16, String)> {
    // The request line and headers share one byte budget, enforced by
    // reading through a `Take`: a header flood hits the limit and gets
    // 431 instead of growing buffers without bound.
    let mut head = (&mut *reader).take(cfg.max_header_bytes as u64);
    let over_budget = || {
        (
            431,
            format!("header section exceeds {} bytes", cfg.max_header_bytes),
        )
    };

    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| (400, format!("read error: {e}")))?;
    if line.trim().is_empty() {
        return Ok(None);
    }
    if !line.ends_with('\n') && head.limit() == 0 {
        return Err(over_budget());
    }
    let mut parts = line.split_whitespace();
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

    let mut content_length = 0usize;
    let mut chunked = false;
    let mut traceparent = None;
    let mut keep_alive = false;
    let mut header_count = 0usize;
    loop {
        let mut header = String::new();
        let n = head
            .read_line(&mut header)
            .map_err(|e| (400, format!("read error: {e}")))?;
        if n == 0 {
            // No blank line ever arrived: either the byte budget ran
            // out exactly at a line boundary, or the peer closed early.
            // Both are rejections — not a complete header section.
            return Err(if head.limit() == 0 {
                over_budget()
            } else {
                (400, "header section ended without a blank line".to_string())
            });
        }
        let text = header.trim_end();
        if text.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > cfg.max_headers {
            return Err((431, format!("more than {} header fields", cfg.max_headers)));
        }
        if !header.ends_with('\n') && head.limit() == 0 {
            return Err(over_budget());
        }
        if let Some((name, value)) = text.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, "bad content-length".to_string()))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.to_ascii_lowercase().contains("chunked")
            {
                // Flagged here, rejected after the header section: the
                // old parser ignored it and misread the body as empty.
                chunked = true;
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    drop(head);
    if chunked {
        return Err((
            501,
            "Transfer-Encoding: chunked is not supported; send Content-Length".to_string(),
        ));
    }
    if content_length > cfg.max_body {
        return Err((400, format!("body of {content_length} bytes exceeds limit")));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| (400, format!("short body: {e}")))?;

    Ok(Some(Request::from_parts(
        method,
        &target,
        body,
        traceparent,
        keep_alive,
    )))
}

/// Decodes `%XX` escapes; with `plus_is_space`, also maps `+` to a
/// space. Plus-as-space is query-string/form semantics only — in a path
/// segment `+` is a literal plus, so callers decoding paths pass
/// `false`.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Some(b) = std::str::from_utf8(&bytes[i + 1..i + 3])
                .ok()
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                out.push(b);
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

/// Acknowledges a committed upload. On a cluster-configured server the
/// upload is first streamed to its replica set; an under-replicated
/// write is answered 503 (the document *is* committed locally — the
/// client's retry replays idempotently under `PUT`, and duplicate
/// frame delivery is idempotent on the replicas).
fn acked_response(
    replicator: Option<&Replicator>,
    store: &DocumentStore,
    up: &crate::store::Upload,
) -> (u16, String) {
    if let Some(r) = replicator {
        let outcome = r.replicate(store, up);
        if !outcome.acked() {
            return (
                503,
                json!({
                    "error": format!(
                        "under-replicated: {}/{} replica confirmations",
                        outcome.confirmed, outcome.required
                    ),
                    "detail": outcome.errors,
                    "id": up.id,
                })
                .to_string(),
            );
        }
    }
    (201, json!({"id": up.id}).to_string())
}

pub(crate) fn route(
    req: &Request,
    store: &DocumentStore,
    chaos: &AtomicU32,
    registry: &obs::Registry,
    replicator: Option<&Replicator>,
    ops: &crate::ops::Ops,
) -> (u16, String) {
    // Path segments are percent-decoded individually so encoded
    // document ids round-trip; '/' produced by %2F stays inside its
    // segment and cannot change the route shape.
    let decoded: Vec<String> = req
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect();
    let segments: Vec<&str> = decoded.iter().map(String::as_str).collect();
    let focus = |req: &Request| -> Option<QName> {
        let raw = req
            .query
            .iter()
            .find(|(k, _)| k == "focus")
            .map(|(_, v)| v.clone())?;
        QName::parse(&raw).ok()
    };

    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, json!({"status": "ok"}).to_string()),

        ("GET", ["metrics"]) => {
            // One scrape covers both registries: the server's request
            // metrics and the store's cache/backend instruments.
            let mut exposition = registry.render_prometheus();
            exposition.push_str(&store.registry().render_prometheus());
            (200, exposition)
        }

        ("GET", []) | ("GET", ["explorer"]) => (
            200,
            crate::explorer::render_html(&crate::explorer::summarize(store)),
        ),

        ("GET", ["api", "v0", "documents"]) => {
            (200, json!({"documents": store.list()}).to_string())
        }

        ("GET", ["api", "v0", "ledger"]) => {
            let entries: Vec<serde_json::Value> = store
                .ledger_entries()
                .iter()
                .map(crate::cluster::entry_to_json)
                .collect();
            (200, json!({"entries": entries}).to_string())
        }

        ("POST", ["api", "v0", "documents"]) => {
            // Injected fault: pretend to be overloaded for the first
            // `chaos_fail_uploads` uploads (decrement-if-positive).
            if chaos
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                .is_ok()
            {
                return (
                    503,
                    json!({"error": "injected fault: upload unavailable"}).to_string(),
                );
            }
            match document_body(req) {
                Ok(doc) => match store.upload_full(doc) {
                    Ok(up) => acked_response(replicator, store, &up),
                    Err(e) => error_response(&e),
                },
                Err(refused) => refused,
            }
        }

        ("PUT", ["api", "v0", "documents", id]) => match document_body(req) {
            Ok(doc) => match store.upload_as_full(*id, doc) {
                Ok(up) => acked_response(replicator, store, &up),
                Err(e) => error_response(&e),
            },
            Err(refused) => refused,
        },

        ("GET", ["api", "v0", "ledger", "verify"]) => match store.verify_all() {
            Ok(()) => (200, json!({"ok": true}).to_string()),
            Err(e) => (
                500,
                json!({"ok": false, "error": e.to_string()}).to_string(),
            ),
        },

        ("POST", ["api", "v0", "replication", "frames"]) => {
            crate::cluster::apply_batch(store, registry, &req.body)
        }

        ("GET", ["api", "v0", "replication", "head"]) => {
            match req.query.iter().find(|(k, _)| k == "source") {
                None => (
                    400,
                    json!({"error": "missing ?source=<node-id>"}).to_string(),
                ),
                Some((_, source)) => {
                    let (next, head) = store.replication_head(source);
                    (
                        200,
                        json!({"source": source, "next_index": next, "head_hash": head})
                            .to_string(),
                    )
                }
            }
        }

        ("GET", ["api", "v0", "replication", "sources"]) => {
            let sources: Vec<serde_json::Value> = store
                .replication_sources()
                .into_iter()
                .map(|(source, entries)| json!({"source": source, "entries": entries}))
                .collect();
            (200, json!({"sources": sources}).to_string())
        }

        ("GET", ["api", "v0", "documents", id]) => match store.document_json(id) {
            Ok(json) => (200, json),
            Err(e) => error_response(&e),
        },

        ("DELETE", ["api", "v0", "documents", id]) => match store.delete(id) {
            Ok(true) => (200, json!({"deleted": id}).to_string()),
            Ok(false) => not_found(id),
            Err(e) => error_response(&e),
        },

        ("GET", ["api", "v0", "documents", id, "stats"]) => match store.get(id) {
            Some(doc) => {
                let s = doc.stats();
                // The cached index's statistics ride along: the same
                // node/edge/per-kind counters the query planner costs
                // anchor sides with.
                let graph_stats = match store.graph(id) {
                    Ok(shared) => {
                        let gs = shared.index().stats();
                        let mut per_kind = serde_json::Map::new();
                        for (kind, count) in &gs.per_kind {
                            per_kind.insert(kind.json_key().to_string(), json!(count));
                        }
                        json!({
                            "nodes": gs.nodes,
                            "edges": gs.edges,
                            "avg_degree": gs.avg_degree(),
                            "per_kind": serde_json::Value::Object(per_kind),
                        })
                    }
                    Err(_) => serde_json::Value::Null,
                };
                (
                    200,
                    json!({
                        "entities": s.entities,
                        "activities": s.activities,
                        "agents": s.agents,
                        "relations": s.relations,
                        "bundles": s.bundles,
                        "graph": graph_stats,
                    })
                    .to_string(),
                )
            }
            None => not_found(id),
        },

        ("GET", ["api", "v0", "documents", id, "ancestors"]) => match focus(req) {
            None => (
                400,
                json!({"error": "missing or invalid ?focus=prefix:local"}).to_string(),
            ),
            Some(q) => match store.ancestors(id, &q) {
                Ok(anc) => (
                    200,
                    json!({"focus": q.to_string(),
                           "ancestors": anc.iter().map(|a| a.to_string()).collect::<Vec<_>>()})
                    .to_string(),
                ),
                Err(e) => error_response(&e),
            },
        },

        ("GET", ["api", "v0", "documents", id, "provn"]) => match store.get(id) {
            Some(doc) => (200, prov_model::provn::to_provn(&doc)),
            None => not_found(id),
        },

        ("GET", ["api", "v0", "documents", id, "turtle"]) => match store.get(id) {
            Some(doc) => (200, prov_model::turtle::to_turtle(&doc)),
            None => not_found(id),
        },

        ("GET", ["api", "v0", "documents", id, "dot"]) => match store.get(id) {
            Some(doc) => (
                200,
                prov_graph::to_dot(&doc, &prov_graph::DotOptions::default()),
            ),
            None => not_found(id),
        },

        ("POST", ["api", "v0", "documents", id, "deltas"]) => match document_body(req) {
            Ok(delta) => match store.merge_delta(id, &delta) {
                Ok((up, version)) => {
                    // The merged document replicates through the
                    // ordinary frame path: the Upload carries the
                    // full post-merge bytes, so replicas need no
                    // delta-aware logic.
                    let (status, body) = acked_response(replicator, store, &up);
                    if status == 201 {
                        (200, json!({"id": up.id, "version": version}).to_string())
                    } else {
                        (status, body)
                    }
                }
                Err(e) => error_response(&e),
            },
            Err(refused) => refused,
        },

        ("GET", ["api", "v0", "documents", id, "watch"]) => {
            let num = |key: &str| {
                req.query
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u64>().ok())
            };
            let after = num("after").unwrap_or(0);
            let timeout_ms = num("timeout_ms").unwrap_or(10_000).min(30_000);
            // Long-poll: this blocks the worker thread, not the reactor.
            // The connection counts as in-flight the whole time, so the
            // idle-reap sweep leaves it alone while it is parked here.
            match store.wait_for_newer(id, after, Duration::from_millis(timeout_ms)) {
                WatchOutcome::Gone => not_found(id),
                WatchOutcome::Unchanged(version) => (
                    200,
                    json!({"id": *id, "version": version, "changed": false}).to_string(),
                ),
                WatchOutcome::Changed(version) => match store.document_json(id) {
                    // The stored canonical bytes embed verbatim — the
                    // watcher receives exactly what a plain GET serves.
                    Ok(doc_json) => (
                        200,
                        format!(
                            "{{\"id\":{},\"version\":{version},\"changed\":true,\"document\":{doc_json}}}",
                            json!(*id)
                        ),
                    ),
                    Err(e) => error_response(&e),
                },
            }
        }

        ("GET", ["api", "v0", "documents", id, "subgraph"]) => match focus(req) {
            None => (
                400,
                json!({"error": "missing or invalid ?focus=prefix:local"}).to_string(),
            ),
            Some(q) => match store
                .subgraph(id, &q)
                .and_then(|sub| Ok(sub.to_json_string()?))
            {
                Ok(json) => (200, json),
                Err(e) => error_response(&e),
            },
        },

        ("POST", ["api", "v0", "documents", id, "query"]) => handle_query(store, id, &req.body),

        ("GET", ["api", "v0", "obs", "health"]) => {
            let (ready, body) = crate::ops::health_json(store, registry);
            (if ready { 200 } else { 503 }, body)
        }

        ("GET", ["api", "v0", "obs", "timeseries"]) => {
            let param = |key: &str| {
                req.query
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            let Some(metric) = param("metric") else {
                return (400, json!({"error": "missing ?metric=<name>"}).to_string());
            };
            let num =
                |key: &str, default: f64| param(key).and_then(|v| v.parse().ok()).unwrap_or(default);
            let since_s = num("since", 300.0).clamp(0.0, 86_400.0);
            let step_s = num("step", 0.0).clamp(0.0, 3_600.0);
            let now_s = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
            (200, ops.timeseries_json(&metric, since_s, step_s, now_s))
        }

        ("GET", ["api", "v0", "obs", "slowlog"]) => (200, ops.slowlog_json()),

        ("GET", ["api", "v0", "obs", "alerts"]) => (200, ops.alerts_json()),

        ("GET", ["api", "v0", "obs", "cluster"]) => {
            // Render this node's own exposition exactly the way
            // `/metrics` does, then fan out to the peers.
            let mut exposition = registry.render_prometheus();
            exposition.push_str(&store.registry().render_prometheus());
            (
                200,
                crate::ops::cluster_json(store, registry, replicator, &exposition),
            )
        }

        (_, _) => (404, json!({"error": "no such route"}).to_string()),
    }
}

// ---------------------------------------------------------------------------
// The lineage query endpoint
// ---------------------------------------------------------------------------

/// Serves one `POST /api/v0/documents/{id}/query` request.
///
/// The body is a JSON object selecting exactly one scenario:
///
/// * `{"query": <PathQuery IR>}` — a planned path-pattern query;
/// * `{"audit": "leakage", "test"?: <filter>, "training"?: <filter>}`;
/// * `{"audit": "gdpr", "sample": "pre:x", "model": "pre:y"}`;
/// * `{"audit": "fairness", "model": "pre:y", "group_key"?: "pre:k"}`;
/// * `{"audit": "join", "digest_key"?: "pre:k"}`.
///
/// Two cross-cutting keys: `"docs": [id, ...]` joins the named
/// documents into the queried view (canonical merge), and
/// `"render": "dot"` additionally returns the matched subgraph as
/// Graphviz DOT under `"dot"`.
fn handle_query(store: &DocumentStore, id: &str, body: &[u8]) -> (u16, String) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, json!({"error": "body is not UTF-8"}).to_string()),
    };
    let v: serde_json::Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return (
                400,
                json!({"error": format!("body is not JSON: {e}")}).to_string(),
            )
        }
    };
    let Some(obj) = v.as_object() else {
        return (
            400,
            json!({"error": "body must be a JSON object"}).to_string(),
        );
    };

    let extra: Vec<String> = match obj.get("docs") {
        None => Vec::new(),
        Some(serde_json::Value::Array(ids)) => {
            let mut out = Vec::with_capacity(ids.len());
            for entry in ids {
                match entry.as_str() {
                    Some(s) => out.push(s.to_string()),
                    None => {
                        return (
                            400,
                            json!({"error": "\"docs\" must be an array of document ids"})
                                .to_string(),
                        )
                    }
                }
            }
            out
        }
        Some(_) => {
            return (
                400,
                json!({"error": "\"docs\" must be an array of document ids"}).to_string(),
            )
        }
    };
    let render_dot = matches!(obj.get("render").and_then(|r| r.as_str()), Some("dot"));
    let documents_json = || {
        let mut all = vec![json!(*id)];
        all.extend(extra.iter().map(|e| json!(e)));
        serde_json::Value::Array(all)
    };

    match (obj.get("query"), obj.get("audit").and_then(|a| a.as_str())) {
        (Some(q), None) => {
            let query = match PathQuery::from_json(q) {
                Ok(q) => q,
                Err(e) => return (400, json!({"error": e.to_string()}).to_string()),
            };
            let (set, shared) = match store.run_query(id, &extra, &query) {
                Ok(r) => r,
                Err(e) => return error_response(&e),
            };
            let rows: Vec<serde_json::Value> = set.rows.iter().map(row_json).collect();
            let mut out = match json!({
                "scenario": "path",
                "documents": documents_json(),
                "plan": plan_json(&set.plan),
                "rows": rows,
                "row_count": set.rows.len(),
                "truncated": set.truncated,
            }) {
                serde_json::Value::Object(o) => o,
                _ => unreachable!("json! object literal"),
            };
            if render_dot {
                let sub = prov_graph::subgraph(shared.document(), &set.node_set());
                out.insert(
                    "dot".into(),
                    json!(prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())),
                );
            }
            (200, serde_json::Value::Object(out).to_string())
        }

        (None, Some(scenario)) => handle_audit(
            store,
            id,
            &extra,
            scenario,
            obj,
            render_dot,
            documents_json(),
        ),

        _ => (
            400,
            json!({"error": "body must contain exactly one of \"query\" or \"audit\""}).to_string(),
        ),
    }
}

/// JSON rendering of a planner decision.
fn plan_json(plan: &prov_graph::QueryPlan) -> serde_json::Value {
    let side = match plan.side {
        prov_graph::PlanSide::FromStart => "from_start",
        prov_graph::PlanSide::FromEnd => "from_end",
    };
    json!({
        "side": side,
        "start_candidates": plan.start_candidates,
        "end_candidates": plan.end_candidates,
        "cost_from_start": plan.cost_from_start,
        "cost_from_end": plan.cost_from_end,
        "reason": plan.reason,
    })
}

/// JSON rendering of one `(start, end)` match with its witness path.
fn row_json(row: &prov_graph::MatchRow) -> serde_json::Value {
    json!({
        "start": row.start.to_string(),
        "end": row.end.to_string(),
        "path": row.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
    })
}

/// Dispatches the `"audit"` scenarios of [`handle_query`].
fn handle_audit(
    store: &DocumentStore,
    id: &str,
    extra: &[String],
    scenario: &str,
    obj: &serde_json::Map<String, serde_json::Value>,
    render_dot: bool,
    documents: serde_json::Value,
) -> (u16, String) {
    use prov_graph::audit;

    let qname_arg = |key: &str| -> Result<Option<QName>, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => match v.as_str().map(QName::parse) {
                Some(Ok(q)) => Ok(Some(q)),
                _ => Err(format!("\"{key}\" must be a \"prefix:local\" string")),
            },
        }
    };
    let filter_arg = |key: &str| -> Result<Option<ElementFilter>, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => ElementFilter::from_json(v)
                .map(Some)
                .map_err(|e| format!("\"{key}\": {e}")),
        }
    };
    macro_rules! arg {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(msg) => return (400, json!({ "error": msg }).to_string()),
            }
        };
    }

    // The join audit builds its own merged view; every other scenario
    // runs over the (possibly joined) query view.
    if scenario == "join" {
        let digest_key = arg!(qname_arg("digest_key"));
        let mut docs = match store.get(id) {
            Some(d) => vec![d],
            None => return error_response(&ServiceError::NotFound { id: id.to_string() }),
        };
        for other in extra {
            match store.get(other) {
                Some(d) => docs.push(d),
                None => {
                    return error_response(&ServiceError::NotFound {
                        id: other.to_string(),
                    })
                }
            }
        }
        store.note_query("join");
        let refs: Vec<&ProvDocument> = docs.iter().map(|d| &**d).collect();
        let t0 = Instant::now();
        let (join, _merged) = match audit::cross_run_join(&refs, digest_key) {
            Ok(r) => r,
            Err(e) => {
                return error_response(&ServiceError::Conflict {
                    reason: format!("joining {id} + {extra:?}: {e}"),
                })
            }
        };
        // The merge + digest scan is the whole cost; there is no
        // separate planning phase to split out.
        store.note_query_timing(Duration::ZERO, t0.elapsed());
        let joined: Vec<serde_json::Value> = join
            .joined
            .iter()
            .map(|j| {
                json!({
                    "digest": j.digest,
                    "artifacts": j.artifacts.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "producers": j.producers.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "consumers": j.consumers.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "shared": j.is_shared(),
                })
            })
            .collect();
        return (
            200,
            json!({
                "scenario": "join",
                "documents": documents,
                "digest_key": join.digest_key.to_string(),
                "merged_nodes": join.merged_nodes,
                "merged_edges": join.merged_edges,
                "shared_count": join.shared().len(),
                "joined": joined,
            })
            .to_string(),
        );
    }

    let shared = match store.query_view(id, extra) {
        Ok(s) => s,
        Err(e) => return error_response(&e),
    };
    let graph = shared.view();

    // Each audit exposes the IR behind it, so the plan the service
    // reports is exactly the plan the audit executes under.
    let (audit_query, result): (PathQuery, _) = match scenario {
        "leakage" => {
            let test = arg!(filter_arg("test")).unwrap_or_else(audit::default_test_filter);
            let training =
                arg!(filter_arg("training")).unwrap_or_else(audit::default_training_filter);
            store.note_query("leakage");
            let query = audit::leakage_query(test.clone(), training.clone());
            let t0 = Instant::now();
            let plan = prov_graph::plan(&graph, &query);
            let planned = t0.elapsed();
            let t1 = Instant::now();
            let report = audit::data_leakage(&graph, Some(test), Some(training));
            store.note_query_timing(planned, t1.elapsed());
            let leaks: Vec<serde_json::Value> = report.leaks.iter().map(row_json).collect();
            (
                query,
                json!({
                    "scenario": "leakage",
                    "documents": documents,
                    "clean": report.is_clean(),
                    "test_artifacts": report.test_artifacts,
                    "training_activities": report.training_activities,
                    "leaks": leaks,
                    "plan": plan_json(&plan),
                }),
            )
        }
        "gdpr" => {
            let sample = match arg!(qname_arg("sample")) {
                Some(q) => q,
                None => {
                    return (
                        400,
                        json!({"error": "\"gdpr\" requires \"sample\" and \"model\" qnames"})
                            .to_string(),
                    )
                }
            };
            let model = match arg!(qname_arg("model")) {
                Some(q) => q,
                None => {
                    return (
                        400,
                        json!({"error": "\"gdpr\" requires \"sample\" and \"model\" qnames"})
                            .to_string(),
                    )
                }
            };
            store.note_query("gdpr");
            let query = audit::gdpr_query(&sample, &model);
            let t0 = Instant::now();
            let plan = prov_graph::plan(&graph, &query);
            let planned = t0.elapsed();
            let t1 = Instant::now();
            let report = audit::gdpr_trained_on(&graph, &sample, &model);
            store.note_query_timing(planned, t1.elapsed());
            (
                query,
                json!({
                    "scenario": "gdpr",
                    "documents": documents,
                    "sample": report.sample.to_string(),
                    "model": report.model.to_string(),
                    "trained_on": report.trained_on,
                    "path": report.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "plan": plan_json(&plan),
                }),
            )
        }
        "fairness" => {
            let model = match arg!(qname_arg("model")) {
                Some(q) => q,
                None => {
                    return (
                        400,
                        json!({"error": "\"fairness\" requires a \"model\" qname"}).to_string(),
                    )
                }
            };
            let group_key = arg!(qname_arg("group_key")).unwrap_or_else(|| QName::yprov("group"));
            store.note_query("fairness");
            let query = audit::fairness_query(&model, &group_key);
            let t0 = Instant::now();
            let plan = prov_graph::plan(&graph, &query);
            let planned = t0.elapsed();
            let t1 = Instant::now();
            let report = audit::group_fairness(&graph, &model, &group_key);
            store.note_query_timing(planned, t1.elapsed());
            let mut groups = serde_json::Map::new();
            for (value, count) in &report.groups {
                groups.insert(value.clone(), json!(count));
            }
            (
                query,
                json!({
                    "scenario": "fairness",
                    "documents": documents,
                    "model": report.model.to_string(),
                    "group_key": report.group_key.to_string(),
                    "groups": serde_json::Value::Object(groups),
                    "total": report.total,
                    "balance": report.balance(),
                    "plan": plan_json(&plan),
                }),
            )
        }
        other => {
            return (
                400,
                json!({
                    "error": format!(
                        "unknown audit {other:?}: expected \"leakage\", \"gdpr\", \
                         \"fairness\" or \"join\""
                    )
                })
                .to_string(),
            )
        }
    };

    let mut out = match result {
        serde_json::Value::Object(o) => o,
        _ => unreachable!("audit responses are objects"),
    };
    if render_dot {
        // Re-run the audit's own query for its witness nodes — the
        // matched subgraph is what the explorer renders.
        let set = prov_graph::execute(&graph, &audit_query);
        let sub = prov_graph::subgraph(shared.document(), &set.node_set());
        out.insert(
            "dot".into(),
            json!(prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())),
        );
    }
    (200, serde_json::Value::Object(out).to_string())
}

/// The PROV-JSON document a request carries, or the `400` that refuses
/// it (not UTF-8, not JSON, not PROV-JSON): the one place the routes
/// that read a document map a [`prov_model::ProvError`] to a response.
fn document_body(req: &Request) -> Result<ProvDocument, (u16, String)> {
    let refuse = |error: String| (400, json!({ "error": error }).to_string());
    let text = std::str::from_utf8(&req.body).map_err(|_| refuse("body is not UTF-8".into()))?;
    ProvDocument::from_json_str(text).map_err(|e| refuse(e.to_string()))
}

fn not_found(id: &str) -> (u16, String) {
    (
        404,
        json!({"error": format!("document {id:?} not found")}).to_string(),
    )
}

/// Maps a [`ServiceError`] onto its HTTP status and a JSON error body.
pub(crate) fn error_response(err: &ServiceError) -> (u16, String) {
    (
        err.http_status(),
        json!({"error": err.to_string()}).to_string(),
    )
}

fn write_response(stream: TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response_typed(stream, status, "application/json", body)
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

/// Encodes a response head (status line + headers + blank line). Both
/// cores use this, so the `Connection: close` byte sequence is
/// identical to the original single-shot server's.
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

fn write_response_typed(
    mut stream: TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = encode_response_head(status, content_type, body.len(), false);
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// A tiny blocking client, used by tests and examples.
// ---------------------------------------------------------------------------

/// Sends one HTTP request and returns `(status, body)`.
pub fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let id: serde_json::Value = serde_json::from_str(&body).unwrap();
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
        let id: serde_json::Value = serde_json::from_str(&body).unwrap();
        let id = id["id"].as_str().unwrap().to_string();

        let (status, stats) = request(
            server.addr(),
            "GET",
            &format!("/api/v0/documents/{id}/stats"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let stats: serde_json::Value = serde_json::from_str(&stats).unwrap();
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
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let entries = v["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0]["index"], 0);
        assert!(entries[0]["entry_hash"].as_str().unwrap().len() == 64);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explorer_page_served_at_root() {
        let server = start();
        let (_, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        let _ = body;
        for path in ["/", "/explorer"] {
            let (status, html) = request(server.addr(), "GET", path, None).unwrap();
            assert_eq!(status, 200, "{path}");
            assert!(html.contains("yProv Explorer"), "{path}");
            assert!(html.contains("doc-1"));
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
        let id: serde_json::Value = serde_json::from_str(&body).unwrap();
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
        let mut handles = Vec::new();
        for _ in 0..8 {
            let doc = sample_doc_json();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, _) =
                        request(addr, "POST", "/api/v0/documents", Some(&doc)).unwrap();
                    assert_eq!(status, 201);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (_, listing) = request(addr, "GET", "/api/v0/documents", None).unwrap();
        let listing: serde_json::Value = serde_json::from_str(&listing).unwrap();
        assert_eq!(listing["documents"].as_array().unwrap().len(), 80);
        server.shutdown();
    }

    #[test]
    fn chaos_config_fails_first_uploads_then_recovers() {
        let server = Server::bind(
            "127.0.0.1:0",
            DocumentStore::new(),
            ServerConfig {
                chaos_fail_uploads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let doc = sample_doc_json();
        let mut statuses = Vec::new();
        for _ in 0..4 {
            let (status, _) =
                request(server.addr(), "POST", "/api/v0/documents", Some(&doc)).unwrap();
            statuses.push(status);
        }
        assert_eq!(statuses, vec![503, 503, 201, 201]);
        // Reads were never affected.
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
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
            statuses.iter().any(|&s| s == 503),
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
        let server = Server::bind(
            "127.0.0.1:0",
            DocumentStore::new(),
            ServerConfig {
                chaos_fail_uploads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let resp = raw_request(
            server.addr(),
            b"POST /api/v0/documents HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
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
    }

    #[test]
    fn plus_stays_literal_in_path_segments() {
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("doc%2D1", false), "doc-1");
        assert_eq!(percent_decode("bad%", false), "bad%");
    }

    #[test]
    fn percent_encoded_document_ids_round_trip() {
        let server = start();
        let (status, body) = request(
            server.addr(),
            "POST",
            "/api/v0/documents",
            Some(&sample_doc_json()),
        )
        .unwrap();
        assert_eq!(status, 201, "{body}");
        // The store names it "doc-1"; fetch, stat, and delete it through
        // its percent-encoded spelling.
        let (status, fetched) =
            request(server.addr(), "GET", "/api/v0/documents/doc%2D1", None).unwrap();
        assert_eq!(status, 200, "{fetched}");
        assert_eq!(
            ProvDocument::from_json_str(&fetched)
                .unwrap()
                .element_count(),
            3
        );
        let (status, _) = request(
            server.addr(),
            "GET",
            "/api/v0/documents/doc%2D1/stats",
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let (status, _) =
            request(server.addr(), "DELETE", "/api/v0/documents/doc%2D1", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = request(server.addr(), "GET", "/api/v0/documents/doc-1", None).unwrap();
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
        for i in 0..=ServerConfig::default().max_headers {
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
        let id: serde_json::Value = serde_json::from_str(&body).unwrap();
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
        let (status, body) =
            request(addr, "POST", "/api/v0/documents", Some(&sample_doc_json())).unwrap();
        assert_eq!(status, 201, "{body}");

        // A watch cursor behind the current version answers immediately
        // with the document inline.
        let (status, w) =
            request(addr, "GET", "/api/v0/documents/doc-1/watch?after=0", None).unwrap();
        assert_eq!(status, 200, "{w}");
        let w: serde_json::Value = serde_json::from_str(&w).unwrap();
        assert_eq!(w["changed"], true);
        assert_eq!(w["version"], 1);
        assert_eq!(w["id"], "doc-1");

        // Park a watcher past the head, then merge a delta: it wakes
        // with the merged document, well before its timeout.
        let watcher = std::thread::spawn(move || {
            request(
                addr,
                "GET",
                "/api/v0/documents/doc-1/watch?after=1&timeout_ms=10000",
                None,
            )
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(100));
        let (status, body) = request(
            addr,
            "POST",
            "/api/v0/documents/doc-1/deltas",
            Some(&delta_json()),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["version"], 2);
        let (status, w) = watcher.join().unwrap();
        assert_eq!(status, 200, "{w}");
        let w: serde_json::Value = serde_json::from_str(&w).unwrap();
        assert_eq!(w["changed"], true);
        assert_eq!(w["version"], 2);
        let merged = ProvDocument::from_json_str(&w["document"].to_string()).unwrap();
        assert_eq!(merged.element_count(), 5);

        // At the head, the watch times out unchanged.
        let (status, w) = request(
            addr,
            "GET",
            "/api/v0/documents/doc-1/watch?after=2&timeout_ms=100",
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let w: serde_json::Value = serde_json::from_str(&w).unwrap();
        assert_eq!(w["changed"], false);
        assert_eq!(w["version"], 2);

        // Ghost documents 404; the merged lineage spans the delta; the
        // merge is visible as an incremental index extension.
        let (status, _) = request(addr, "GET", "/api/v0/documents/ghost/watch", None).unwrap();
        assert_eq!(status, 404);
        let (status, anc) = request(
            addr,
            "GET",
            "/api/v0/documents/doc-1/ancestors?focus=ex:report",
            None,
        )
        .unwrap();
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
        let id: serde_json::Value = serde_json::from_str(&body).unwrap();
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
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
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
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v["scenario"], "path");
        assert_eq!(v["row_count"], 1);
        assert_eq!(v["truncated"], false);
        assert_eq!(v["rows"][0]["start"], "ex:model");
        assert_eq!(v["rows"][0]["end"], "ex:data");
        let path = v["rows"][0]["path"].as_array().unwrap();
        assert_eq!(path.len(), 3, "{resp}");
        assert!(v["plan"]["reason"].as_str().unwrap().len() > 0);
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
            serde_json::from_str::<serde_json::Value>(&resp).unwrap()
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
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
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
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
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
        let v: serde_json::Value = serde_json::from_str(&stats).unwrap();
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
