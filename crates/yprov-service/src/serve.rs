//! The server core: an acceptor thread and one reusable thread per
//! admitted connection, on `std::net` alone.
//!
//! * **Admission** — below `workers + queue_depth` admitted connections
//!   the acceptor hands a stream to a connection thread; above it a
//!   linger thread answers 503 (shed reason `connections`); above the
//!   shed ceiling the stream is dropped (reason `overflow`).
//! * **Connection threads** are spawned on demand and reused, so they
//!   never outnumber the admission bound. The tracer keeps one span
//!   ring per thread that ever recorded a span, so reuse also keeps it
//!   bounded.
//! * **One request at a time** — a connection thread reads only when
//!   its parser needs bytes, serves one request, writes the response
//!   with a blocking write, and only then parses the next: responses
//!   leave in request order, and a connection holds at most one request
//!   and one response.
//! * **Handlers** — at most `workers` run at once, through one counting
//!   gate.
//! * **Timeouts** are socket timeouts, re-armed before each read.

use crate::conn::{HttpParser, RequestLine};
use crate::http::{self, error_body, Request, ServerConfig, ServerState};
use crate::routes;
use crate::slowlog::SlowEntry;
use crate::sync::lock;
use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock, WriteZero};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Response bytes not yet written, across all connections, past which a
/// request is shed with 503 before its handler runs.
const MAX_QUEUED_BYTES: usize = 64 * 1024 * 1024;
/// A stop waits at most this long for busy connections to finish
/// before force-closing them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// The body of every 503 a watermark sheds.
const SHED_MESSAGE: &str = "server overloaded, retry later";
/// The 400 for a request not completed within `read_timeout`.
const TIMED_OUT: &str = "read error: request timed out";

/// A running core, held by the `Server`.
pub(crate) struct Core {
    shared: Arc<Shared>,
    /// Where a loopback connect wakes the blocked `accept`.
    wake: SocketAddr,
    acceptor: JoinHandle<()>,
}

/// Everything the acceptor, the connection threads and `stop` share.
struct Shared {
    cfg: ServerConfig,
    state: Arc<ServerState>,
    /// `workers + queue_depth`: how many connections are admitted.
    slots: usize,
    stop: AtomicBool,
    pool: Mutex<Pool>,
    /// Signalled when a stream is queued for a waiting thread, and at
    /// stop.
    handoff: Condvar,
    /// Signalled when an admitted connection closes (the drain waits).
    closed: Condvar,
    gate: Gate,
    /// Response bytes not yet written.
    queued_bytes: AtomicUsize,
    open_gauge: Arc<obs::Gauge>,
    queued_bytes_gauge: Arc<obs::Gauge>,
    accepted: Arc<obs::Counter>,
    /// Requests parsed from bytes already buffered when the previous
    /// response on their connection was written.
    pipelined: Arc<obs::Counter>,
}

#[derive(Default)]
struct Pool {
    /// Admitted streams no thread has picked up yet.
    queue: VecDeque<TcpStream>,
    /// Connection threads waiting for a stream.
    waiting: usize,
    /// Admitted connections: queued or being served.
    admitted: usize,
    /// Shed connections still lingering.
    lingering: usize,
    /// By thread slot: a handle on the socket it serves, while it
    /// serves one, for `stop` to shut.
    conns: Vec<Option<TcpStream>>,
}

impl Pool {
    fn open(&self) -> i64 {
        (self.admitted + self.lingering) as i64
    }
}

/// Builds and starts the core: the acceptor thread. Connection threads
/// start as connections arrive.
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: ServerConfig,
    state: Arc<ServerState>,
) -> io::Result<Core> {
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let registry = &state.registry;
    let shared = Arc::new(Shared {
        slots: cfg.workers.max(1) + cfg.queue_depth,
        gate: Gate {
            running: Mutex::new(0),
            free: Condvar::new(),
            limit: cfg.workers.max(1),
            queued_jobs: registry.gauge("server_queued_jobs"),
        },
        accepted: registry.counter("server_connections_accepted_total"),
        pipelined: registry.counter("server_requests_pipelined_total"),
        open_gauge: registry.gauge("server_connections_open"),
        queued_bytes_gauge: registry.gauge("server_queued_bytes"),
        queued_bytes: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        pool: Mutex::new(Pool::default()),
        handoff: Condvar::new(),
        closed: Condvar::new(),
        cfg,
        state,
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("yprov-accept".into())
            .spawn(move || shared.accept_loop(&listener))?
    };
    Ok(Core {
        shared,
        wake,
        acceptor,
    })
}

impl Core {
    /// Stops accepting, drains, and returns once every admitted
    /// connection has closed or [`DRAIN_DEADLINE`] has passed. A handler
    /// still running then is not waited for; its connection is closed.
    pub fn stop(self) {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::SeqCst);
        if TcpStream::connect_timeout(&self.wake, Duration::from_secs(1)).is_ok() {
            let _ = self.acceptor.join();
        }
        let mut pool = lock(&shared.pool);
        pool.admitted -= pool.queue.len();
        pool.queue.clear();
        shared.open_gauge.set(pool.open());
        // A thread waiting for a request reads EOF and closes; a busy
        // one writes its response, reads EOF and closes.
        for stream in pool.conns.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        shared.handoff.notify_all();
        let drained = shared
            .closed
            .wait_timeout_while(pool, DRAIN_DEADLINE, |pool| pool.admitted > 0);
        for stream in wait(drained).0.conns.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn count_shed(&self, reason: &str) {
        self.state
            .registry
            .counter(&format!("server_shed_total{{reason=\"{reason}\"}}"))
            .inc();
    }

    // -- accept path --------------------------------------------------------

    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        for stream in listener.incoming() {
            if self.stopping() {
                break; // the wake connect, or a client racing the stop
            }
            match stream {
                Ok(stream) => {
                    self.accepted.inc();
                    self.admit(stream);
                }
                Err(e) if e.kind() == Interrupted => {}
                // Out of descriptors, most likely: give closes a moment.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Admission: a connection thread, a lingering 503, or a drop.
    fn admit(self: &Arc<Self>, stream: TcpStream) {
        let mut pool = lock(&self.pool);
        if pool.admitted < self.slots {
            pool.admitted += 1;
            pool.queue.push_back(stream);
            // Every waiting thread is owed a queued stream; spawn only
            // for a stream none of them will take. Threads thus never
            // outnumber admitted connections.
            if pool.queue.len() <= pool.waiting {
                self.handoff.notify_one();
            } else {
                let slot = pool.conns.len();
                let shared = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name(format!("yprov-conn-{slot}"))
                    .spawn(move || shared.connection_thread(slot));
                if spawned.is_ok() {
                    pool.conns.push(None);
                } else {
                    pool.queue.pop_back();
                    pool.admitted -= 1;
                }
            }
        } else if pool.admitted + pool.lingering >= self.shed_ceiling() {
            // Even a 503 holds a descriptor and a thread until it is
            // read, so past a hard ceiling a flood is dropped unanswered.
            self.count_shed("overflow");
        } else {
            self.count_shed("connections");
            let shared = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("yprov-linger".into())
                .spawn(move || shared.linger(stream));
            pool.lingering += usize::from(spawned.is_ok());
        }
        self.open_gauge.set(pool.open());
    }

    /// Admitted plus lingering connections past which a stream is
    /// dropped: twice the admission bound, with headroom so tiny
    /// configs still answer 503 during a burst.
    fn shed_ceiling(&self) -> usize {
        self.slots
            .saturating_mul(2)
            .max(self.slots.saturating_add(64))
    }

    /// A connection shed at accept. Closing right after its 503 would,
    /// whenever the peer's request sits unread in the receive queue
    /// (every client that writes before it reads), go out as a reset
    /// that replaces the 503 with `ECONNRESET`. So the write half is
    /// shut, and input is read and thrown away until the peer closes or
    /// `write_timeout` passes.
    fn linger(&self, mut stream: TcpStream) {
        let limit = self.cfg.write_timeout;
        let _ = stream.set_write_timeout(Some(limit));
        let answered = self.respond_with(
            &mut stream,
            503,
            routes::JSON,
            &error_body(SHED_MESSAGE),
            false,
        );
        if answered && stream.shutdown(Shutdown::Write).is_ok() {
            let deadline = Instant::now() + limit;
            let mut buf = [0u8; 16 * 1024];
            while let Ok(1..) = arm(&stream, deadline).and_then(|()| stream.read(&mut buf)) {}
        }
        drop(stream);
        let mut pool = lock(&self.pool);
        pool.lingering -= 1;
        self.open_gauge.set(pool.open());
    }

    // -- connection threads -------------------------------------------------

    /// Serves one admitted connection after another until the server
    /// stops.
    fn connection_thread(&self, slot: usize) {
        let mut pool = lock(&self.pool);
        loop {
            let Some(stream) = pool.queue.pop_front() else {
                if self.stopping() {
                    return;
                }
                pool.waiting += 1;
                pool = wait(self.handoff.wait(pool));
                pool.waiting -= 1;
                continue;
            };
            let admission = Admission { shared: self, slot };
            let Ok(handle) = stream.try_clone() else {
                pool = admission.release(pool);
                continue;
            };
            pool.conns[slot] = Some(handle);
            drop(pool);
            self.serve(stream);
            pool = admission.release(lock(&self.pool));
        }
    }

    /// Frees a connection thread's admission slot.
    fn close(&self, pool: &mut Pool, slot: usize) {
        pool.conns[slot] = None;
        pool.admitted -= 1;
        self.open_gauge.set(pool.open());
        self.closed.notify_all();
    }

    /// The connection loop: parse what is buffered, read only when the
    /// parser needs bytes, serve one request, repeat while the
    /// connection is kept alive.
    fn serve(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let mut parser = HttpParser::<RequestLine>::new();
        // Accept, the last read, or the last response written.
        let mut quiet_since = Instant::now();
        // A request has been incomplete since then.
        let mut partial_since = None;
        let mut served = false;
        // Nothing was read since the last response was written.
        let mut buffered = false;
        loop {
            match parser.next(self.cfg.max_body) {
                Ok(Some(message)) => {
                    partial_since = None;
                    if buffered {
                        self.pipelined.inc();
                    }
                    if !self.respond(&mut stream, Request::from(message)) {
                        return;
                    }
                    (served, buffered, quiet_since) = (true, true, Instant::now());
                }
                Ok(None) => {
                    partial_since = parser
                        .has_partial()
                        .then(|| partial_since.unwrap_or_else(Instant::now));
                    // Once a request has begun it must arrive whole
                    // within `read_timeout` (the slowloris bound), and a
                    // fresh connection gets as long for its first; a
                    // served one may idle for `idle_timeout`.
                    let deadline = match partial_since {
                        Some(since) => since + self.cfg.read_timeout,
                        None if served => quiet_since + self.cfg.idle_timeout,
                        None => quiet_since + self.cfg.read_timeout,
                    };
                    match arm(&stream, deadline).and_then(|()| parser.read_from(&mut stream)) {
                        Ok(0) => {
                            if let (false, Some((status, msg))) =
                                (self.stopping(), parser.finish_eof())
                            {
                                self.parse_reject(&mut stream, status, &msg);
                            }
                            return;
                        }
                        Ok(_) => (quiet_since, buffered) = (Instant::now(), false),
                        Err(e) if e.kind() == Interrupted => {}
                        // A served connection gone quiet closes silently;
                        // a request never completed gets a 400, as one
                        // cut off half-way does.
                        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                            if partial_since.is_some() || !served {
                                self.parse_reject(&mut stream, 400, TIMED_OUT);
                            }
                            return;
                        }
                        Err(_) => return,
                    }
                }
                Err((status, msg)) => {
                    self.parse_reject(&mut stream, status, &msg);
                    return;
                }
            }
        }
    }

    /// Serves one parsed request and writes its response; `true` when
    /// the connection stays open for the next.
    fn respond(&self, stream: &mut TcpStream, request: Request) -> bool {
        if self.stopping() {
            return false;
        }
        let started = Instant::now();
        // The duration histogram only sees requests that ran a handler,
        // so the slowlog is where a shed request stays findable.
        if self.queued_bytes.load(Ordering::Relaxed) > MAX_QUEUED_BYTES {
            let reason = "queued_bytes";
            self.count_shed(reason);
            self.state.ops.slowlog().record(SlowEntry {
                route: routes::lookup(&request.method, &request.path).0.label,
                method: request.method,
                path: request.path,
                status: 503,
                shed: Some(reason),
                ..Default::default()
            });
            self.reject(stream, 503, SHED_MESSAGE);
            return false;
        }
        let keep_alive = request.keep_alive;
        let (status, content_type, body) = {
            let _turn = self.gate.enter();
            handle(&self.state, request, started)
        };
        let keep_alive = keep_alive && !self.stopping();
        self.respond_with(stream, status, content_type, &body, keep_alive) && keep_alive
    }

    /// Writes one response with a blocking write, counted in the
    /// queued-bytes watermark until it is out; `false` if the write
    /// failed or timed out.
    fn respond_with(
        &self,
        stream: &mut TcpStream,
        status: u16,
        content_type: &str,
        body: &str,
        keep_alive: bool,
    ) -> bool {
        let head = http::encode_response_head(status, content_type, body.len(), keep_alive);
        let total = head.len() + body.len();
        self.queued_bytes.fetch_add(total, Ordering::Relaxed);
        self.queued_bytes_gauge.add(total as i64);
        let written = write_all_vectored(stream, head.as_bytes(), body.as_bytes()).is_ok();
        self.queued_bytes.fetch_sub(total, Ordering::Relaxed);
        self.queued_bytes_gauge.add(-(total as i64));
        written
    }

    /// The connection's last response, an error; the caller closes.
    fn reject(&self, stream: &mut TcpStream, status: u16, msg: &str) {
        self.respond_with(stream, status, routes::JSON, &error_body(msg), false);
    }

    /// Answers a protocol violation: counted as a parse error, one
    /// response, connection closed.
    fn parse_reject(&self, stream: &mut TcpStream, status: u16, msg: &str) {
        self.state.registry.counter("http_parse_errors_total").inc();
        http::count_request(&self.state.registry, "-", "unparsed", status);
        self.reject(stream, status, msg);
    }
}

/// The one place a request is served: trace adoption, handler span,
/// route lookup, handler, per-route metrics and slowlog. Returns the
/// status, the content type and the body.
fn handle(state: &ServerState, request: Request, started: Instant) -> (u16, &'static str, String) {
    let _remote = request
        .traceparent
        .as_deref()
        .and_then(obs::trace::adopt_remote);
    let mut trace = obs::trace::span("handle_request");
    let trace_id = http::current_trace_id_hex();
    if obs::trace::is_enabled() {
        trace.annotate("method", request.method.clone());
        trace.annotate("path", request.path.clone());
    }
    let (route, id) = routes::lookup(&request.method, &request.path);
    let (status, body) = (route.handler)(state, &request, &id);
    if obs::trace::is_enabled() {
        trace.annotate("status", status.to_string());
    }
    drop(trace);
    let label = route.label;
    http::count_request(&state.registry, &request.method, label, status);
    let elapsed = started.elapsed();
    state
        .registry
        .histogram(&format!(
            "http_request_duration_seconds{{route=\"{label}\"}}"
        ))
        .record(elapsed);
    state.ops.slowlog().record(SlowEntry {
        method: request.method,
        path: request.path,
        route: label,
        status,
        latency_ns: elapsed.as_nanos() as u64,
        trace_id,
        ..Default::default()
    });
    let content_type = if status == 200 {
        route.content_type
    } else {
        routes::JSON
    };
    (status, content_type, body)
}

/// Arms the read timeout with what is left of the time until
/// `deadline`; a deadline already passed is a timeout.
fn arm(stream: &TcpStream, deadline: Instant) -> io::Result<()> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(TimedOut.into());
    }
    stream.set_read_timeout(Some(left))
}

/// Writes `head` then `body`, in one system call when the socket takes
/// both.
fn write_all_vectored(stream: &mut TcpStream, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut slices = &mut slices[..];
    while !slices.is_empty() {
        match stream.write_vectored(slices) {
            Ok(0) => return Err(WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn wait<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A connection thread's admission slot, held while it serves one
/// connection; dropped by a panicking handler, it still frees the slot.
struct Admission<'a> {
    shared: &'a Shared,
    slot: usize,
}

impl<'a> Admission<'a> {
    /// Frees the slot under `pool`, which the thread keeps locked to
    /// pick its next stream, so no accept sees it in between.
    fn release(self, mut pool: MutexGuard<'a, Pool>) -> MutexGuard<'a, Pool> {
        self.shared.close(&mut pool, self.slot);
        std::mem::forget(self);
        pool
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.shared.close(&mut lock(&self.shared.pool), self.slot);
    }
}

/// At most `limit` handlers at once; the rest wait their turn.
struct Gate {
    running: Mutex<usize>,
    free: Condvar,
    limit: usize,
    /// Requests holding a turn or waiting for one.
    queued_jobs: Arc<obs::Gauge>,
}

impl Gate {
    fn enter(&self) -> Turn<'_> {
        self.queued_jobs.add(1);
        let mut running = lock(&self.running);
        while *running >= self.limit {
            running = wait(self.free.wait(running));
        }
        *running += 1;
        Turn(self)
    }
}

/// A held turn; dropping it, a panicking handler included, frees it.
struct Turn<'a>(&'a Gate);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        *lock(&self.0.running) -= 1;
        self.0.free.notify_one();
        self.0.queued_jobs.add(-1);
    }
}
