//! The server core: a from-scratch epoll reactor.
//!
//! One reactor thread multiplexes every connection through
//! level-triggered `epoll` (raw syscalls — no tokio, no mio, matching
//! the repo's dependency-free style): it accepts, reads, parses,
//! dispatches complete requests to a small worker pool, and streams
//! buffered responses back as sockets drain. Handlers never see any of
//! this — [`worker`] looks each request up in [`crate::routes`], runs
//! its handler on a worker thread, and hands the response back over a
//! channel (an eventfd waker folds completions into the epoll wait).
//!
//! What the event loop buys over a thread per connection:
//!
//! * **Keep-alive, one request at a time** — a connection outlives its
//!   request, and its next request is parsed only when it owes nothing:
//!   no request with a worker, no response bytes queued. A pipelining
//!   peer's later requests wait in the parser buffer or the kernel's
//!   socket buffer (`EPOLLIN` is armed only while the connection is
//!   idle), so responses leave in request order by construction and a
//!   connection holds at most one request and one response.
//! * **Slow peers cost a buffer, not a thread** — a slowloris trickling
//!   header bytes holds one [`Conn`] until the read timeout, while
//!   every worker keeps serving.
//! * **Watermark shedding** — admission is bounded by open connections
//!   (`workers + queue_depth`) and dispatch by in-flight jobs (the same
//!   bound) and globally queued response bytes
//!   ([`MAX_QUEUED_BYTES`]); every shed answers 503 with
//!   `Retry-After` and is counted in `server_shed_total{reason}`.
//!   A connection shed at accept closes lingeringly (write half shut,
//!   input discarded until the peer closes), so a client that sent its
//!   request before reading still reads the 503, never a reset.
//! * **Graceful drain** — stop deregisters the listener and lets
//!   in-flight connections finish (bounded by [`DRAIN_DEADLINE`]), so a
//!   mid-response close flushes instead of resetting.

use crate::conn::{HttpParser, Limits, WriteQueue};
use crate::http::{self, error_body, Request, ServerConfig, ServerState};
use crate::routes;
use crate::slowlog::SlowEntry;
use crate::sync::lock;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw epoll/eventfd bindings — the only unsafe surface of the core.
mod sys {
    /// Linux's `struct epoll_event`; packed on x86-64 (the kernel ABI).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
struct Poller {
    epfd: i32,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: takes no pointers; the fd it returns is owned by the
        // `Poller` and closed once, in its `Drop`.
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        // SAFETY: `evp` is null (allowed for `EPOLL_CTL_DEL`) or points at
        // `ev`, which lives until the call returns; the kernel copies
        // the event and keeps no pointer.
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, evp) }).map(|_| ())
    }

    fn add(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn delete(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the pointer and the length passed with it are one
        // live, exclusively borrowed slice of `EpollEvent`, so the kernel
        // writes at most `events.len()` entries inside it.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        cvt(n).map(|n| n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1`, nothing else closes
        // it, and `drop` runs once.
        unsafe { sys::close(self.epfd) };
    }
}

struct EventFd(i32);

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: the fd came from `eventfd`, only this wrapper owns it
        // (`Waker` clones share it through an `Arc`), and `drop` runs once.
        unsafe { sys::close(self.0) };
    }
}

/// Wakes the reactor out of `epoll_wait` from another thread (worker
/// completions, stop requests). Clones share one eventfd.
#[derive(Clone)]
struct Waker {
    fd: Arc<EventFd>,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        // SAFETY: takes no pointers; the fd goes straight into the
        // `EventFd` that closes it.
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker {
            fd: Arc::new(EventFd(fd)),
        })
    }

    fn raw(&self) -> i32 {
        self.fd.0
    }

    fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: reads exactly the 8 bytes of `one`, which outlives
        // the call; the fd is open for as long as `self.fd` is held.
        unsafe { sys::write(self.fd.0, (&one as *const u64).cast(), 8) };
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: writes at most 8 bytes into the 8-byte `buf`; the fd
        // is non-blocking and open for as long as `self.fd` is held.
        unsafe { sys::read(self.fd.0, buf.as_mut_ptr(), 8) };
    }
}

const TOK_LISTENER: u64 = u64::MAX;
const TOK_WAKER: u64 = u64::MAX - 1;

/// Fairness: bytes read from one socket per readiness event before
/// yielding to the rest (level-triggered epoll re-arms).
const READ_SLICE_BYTES: usize = 256 * 1024;
/// Response bytes buffered across all connections before further
/// dispatches shed with 503.
const MAX_QUEUED_BYTES: usize = 64 * 1024 * 1024;
/// A stop drains in-flight connections for at most this long before
/// force-closing the stragglers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// The body of every 503 a watermark sheds.
const SHED_MESSAGE: &str = "server overloaded, retry later";
/// The 400 for a request not completed within `read_timeout`.
const TIMED_OUT: &str = "read error: request timed out";

/// One parsed request on its way to a worker.
struct Job {
    token: u64,
    request: Request,
    started: Instant,
}

/// A handler's finished response on its way back to the reactor.
struct Completion {
    token: u64,
    status: u16,
    content_type: &'static str,
    body: String,
}

/// A running core, held by the `Server`.
pub(crate) struct EventCore {
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: std::thread::JoinHandle<()>,
}

impl EventCore {
    /// Asks the reactor to drain and exit, and waits for the drain.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        let _ = self.thread.join();
    }
}

/// Builds and starts the core: worker pool, reactor thread, waker.
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: ServerConfig,
    state: Arc<ServerState>,
) -> io::Result<EventCore> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, sys::EPOLLIN)?;
    poller.add(waker.raw(), TOK_WAKER, sys::EPOLLIN)?;

    let (jobs_tx, jobs_rx) = channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let (done_tx, done_rx) = channel::<Completion>();
    for i in 0..cfg.workers.max(1) {
        let rx = Arc::clone(&jobs_rx);
        let tx = done_tx.clone();
        let waker = waker.clone();
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name(format!("yprov-http-{i}"))
            .spawn(move || worker(&rx, tx, waker, &state))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let slots = cfg.workers.max(1) + cfg.queue_depth;
    let limits = Limits {
        max_body: cfg.max_body,
    };
    let registry = &state.registry;
    let open_gauge = registry.gauge("server_connections_open");
    open_gauge.set(0);
    let queued_jobs_gauge = registry.gauge("reactor_queued_jobs");
    queued_jobs_gauge.set(0);
    let queued_bytes_gauge = registry.gauge("reactor_queued_bytes");
    queued_bytes_gauge.set(0);
    let reactor = Reactor {
        accepted: registry.counter("server_connections_accepted_total"),
        pipelined: registry.counter("server_requests_pipelined_total"),
        loop_lag: registry.histogram("reactor_loop_lag_seconds"),
        open_gauge,
        queued_jobs_gauge,
        queued_bytes_gauge,
        poller,
        listener,
        waker: waker.clone(),
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 1,
        open: 0,
        open_shed: 0,
        cfg,
        limits,
        jobs_tx,
        done_rx,
        in_flight_jobs: 0,
        queued_bytes: 0,
        stop: Arc::clone(&stop),
        draining: None,
        slots,
        state,
    };
    let thread = std::thread::Builder::new()
        .name("yprov-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(EventCore {
        stop,
        waker,
        thread,
    })
}

/// A worker thread, the one place a request is served: trace adoption,
/// handler span, route lookup, handler, per-route metrics and slowlog —
/// then the response goes back to the reactor.
fn worker(rx: &Mutex<Receiver<Job>>, tx: Sender<Completion>, waker: Waker, state: &ServerState) {
    loop {
        // One queue, N workers: whoever holds the receiver takes the
        // next job. Received in a statement of its own, so the guard is
        // gone before the handler runs and the workers overlap.
        let job = lock(rx).recv();
        let Ok(Job {
            token,
            request,
            started,
        }) = job
        else {
            break; // the reactor dropped its sender
        };
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
        if tx
            .send(Completion {
                token,
                status,
                content_type,
                body,
            })
            .is_err()
        {
            break;
        }
        waker.wake();
    }
}

/// One connection's readiness state.
struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Bytes read and not yet parsed: at most the rest of the request
    /// being read, or requests a pipelining peer sent ahead.
    parser: HttpParser,
    write_q: WriteQueue,
    /// This connection's one request is with a worker.
    in_flight: bool,
    /// Registered epoll interest bits.
    interest: u32,
    /// Close as soon as the write queue drains, regardless of state.
    error_close: bool,
    /// Shed at accept: what the peer sends is read and thrown away,
    /// never parsed.
    shed: bool,
    /// A shed connection's 503 is flushed and its write half shut since
    /// this instant; it stays open, discarding input, until the peer
    /// closes or `write_timeout` passes.
    lingering: Option<Instant>,
    /// Close once the connection owes nothing (final request seen, or
    /// draining).
    close_when_idle: bool,
    eof: bool,
    /// At least one response has completed (keep-alive idle rules).
    served: bool,
    /// An incomplete request has been pending since this instant.
    partial_since: Option<Instant>,
    /// Last read progress (idle timeout baseline).
    last_activity: Instant,
    /// The write queue has been non-empty without progress since here.
    write_since: Option<Instant>,
}

impl Conn {
    fn token(&self, idx: usize) -> u64 {
        (u64::from(self.gen) << 32) | idx as u64
    }

    /// Owes the peer nothing: no request with a worker, no response
    /// bytes queued. Only then is a next request parsed.
    fn idle(&self) -> bool {
        !self.in_flight && self.write_q.is_empty()
    }

    /// Idle and expecting another request: the one state in which the
    /// socket is read.
    fn may_read(&self) -> bool {
        self.idle() && !(self.close_when_idle || self.error_close || self.eof)
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    waker: Waker,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    open: usize,
    /// How many of `open` were shed at accept and only linger: they
    /// count against `shed_ceiling()`, not against admission.
    open_shed: usize,
    cfg: ServerConfig,
    limits: Limits,
    jobs_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    in_flight_jobs: usize,
    /// Response bytes buffered across every connection — the global
    /// queued-byte shed watermark.
    queued_bytes: usize,
    stop: Arc<AtomicBool>,
    draining: Option<Instant>,
    /// `workers + queue_depth`: how many connections are admitted, and
    /// how many requests may be with the workers, before a 503.
    slots: usize,
    open_gauge: Arc<obs::Gauge>,
    accepted: Arc<obs::Counter>,
    /// Requests parsed from bytes already buffered when the previous
    /// response on their connection was queued.
    pipelined: Arc<obs::Counter>,
    /// Busy time of one loop iteration (everything between two epoll
    /// waits) — the event-loop saturation signal.
    loop_lag: Arc<obs::Histogram>,
    queued_jobs_gauge: Arc<obs::Gauge>,
    queued_bytes_gauge: Arc<obs::Gauge>,
    state: Arc<ServerState>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            let n = match self.poller.wait(&mut events, 100) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Loop lag = how long this iteration keeps the reactor away
            // from epoll_wait. Growth here shows event-loop saturation
            // before the shed watermarks trip.
            let busy_started = Instant::now();
            for ev in events.iter().take(n) {
                let ev = *ev;
                match ev.data {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.waker.drain(),
                    token => self.conn_ready(token, ev.events),
                }
            }
            // Completions drain *after* the socket events: a burst that
            // arrived together is judged against the in-flight work it
            // found, so the queue watermark sheds a burst instead of
            // queueing it without bound.
            self.drain_completions();
            if self.stop.load(Ordering::Acquire) && self.draining.is_none() {
                self.begin_drain();
            }
            self.sweep_timeouts();
            self.loop_lag.record(busy_started.elapsed());
            self.queued_jobs_gauge.set(self.in_flight_jobs as i64);
            self.queued_bytes_gauge.set(self.queued_bytes as i64);
            if self.draining.is_some() && self.open == 0 {
                break;
            }
        }
        // Dropping the job sender disconnects the workers' queue; each
        // worker exits after its current handler returns.
    }

    // -- accept path --------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accepted.inc();
                    if self.draining.is_some() {
                        continue; // racing the listener deregistration
                    }
                    if self.open - self.open_shed < self.slots {
                        let _ = self.register(stream, false);
                        continue;
                    }
                    // Even a shed holds an fd and a slab slot until its
                    // 503 flushes (or times out), so the courtesy
                    // response is itself a resource: above a hard
                    // ceiling the socket is dropped unregistered, and a
                    // connection flood cannot exhaust fds behind the
                    // admission watermark.
                    if self.open >= self.shed_ceiling() {
                        self.count_shed("overflow");
                        continue; // stream dropped without a response
                    }
                    self.shed_accept(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Admits a connection into the slab. With `shed`, its only purpose
    /// is to flush a queued 503 and close once the peer has read it.
    fn register(&mut self, stream: TcpStream, shed: bool) -> Option<usize> {
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let _ = stream.set_nodelay(true);
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let interest = if shed {
            0
        } else {
            sys::EPOLLIN | sys::EPOLLRDHUP
        };
        let conn = Conn {
            stream,
            gen,
            parser: HttpParser::new(),
            write_q: WriteQueue::new(),
            in_flight: false,
            interest,
            error_close: false,
            shed,
            lingering: None,
            close_when_idle: false,
            eof: false,
            served: false,
            partial_since: None,
            last_activity: Instant::now(),
            write_since: None,
        };
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = conn.token(idx);
        let fd = conn.stream.as_raw_fd();
        if self.poller.add(fd, token, interest).is_err() {
            self.free.push(idx);
            return None;
        }
        self.conns[idx] = Some(conn);
        self.open += 1;
        self.open_shed += usize::from(shed);
        self.open_gauge.set(self.open as i64);
        Some(idx)
    }

    /// Total-registration ceiling, shed connections included: twice the
    /// admission watermark, with headroom so tiny configs still get to
    /// answer 503 during a burst.
    fn shed_ceiling(&self) -> usize {
        self.slots
            .saturating_mul(2)
            .max(self.slots.saturating_add(64))
    }

    /// Sheds a just-accepted connection: 503 + `Retry-After`, flushed
    /// through the normal write path (the reactor never blocks on a
    /// peer that won't read its rejection), then a lingering close
    /// (see [`Reactor::begin_linger`]).
    fn shed_accept(&mut self, stream: TcpStream) {
        self.count_shed("connections");
        if let Some(idx) = self.register(stream, true) {
            self.reject(idx, 503, SHED_MESSAGE);
        }
    }

    fn count_shed(&self, reason: &str) {
        self.state
            .registry
            .counter(&format!("server_shed_total{{reason=\"{reason}\"}}"))
            .inc();
    }

    /// Queues the connection's last response, an error: nothing is read
    /// after it, and the connection closes once it is written.
    fn reject(&mut self, idx: usize, status: u16, msg: &str) {
        self.queue_response(idx, status, routes::JSON, error_body(msg), false);
        if let Some(conn) = self.conn_mut(idx) {
            conn.error_close = true;
        }
        self.flush(idx);
    }

    // -- event dispatch -----------------------------------------------------

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.conns.get_mut(idx).and_then(Option::as_mut)
    }

    fn is_open(&self, idx: usize) -> bool {
        self.conns.get(idx).is_some_and(Option::is_some)
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        match self.conn_mut(idx) {
            Some(conn) if conn.gen == gen => {}
            _ => return, // stale event for a recycled slot
        }
        if bits & sys::EPOLLERR != 0 {
            self.close_conn(idx);
            return;
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            self.readable(idx);
        }
        if self.is_open(idx) && bits & sys::EPOLLOUT != 0 {
            self.flush(idx);
        }
    }

    fn readable(&mut self, idx: usize) {
        if self.conn_mut(idx).is_some_and(|conn| conn.shed) {
            self.discard_input(idx);
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        let mut read_total = 0usize;
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if !conn.may_read() {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.push(&buf[..n]);
                    conn.last_activity = Instant::now();
                    read_total += n;
                    if read_total >= READ_SLICE_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.next_request(idx, false);
    }

    /// Reads and throws away what a shed connection's peer sends. EOF
    /// means the peer has closed (having read its 503, or not caring
    /// to), which ends the linger.
    fn discard_input(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        let mut read_total = 0usize;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    read_total += n;
                    if read_total >= READ_SLICE_BYTES {
                        return; // level-triggered epoll re-arms
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.close_conn(idx);
    }

    /// The step a connection takes whenever it owes nothing: its next
    /// buffered request goes to the workers; with none whole, EOF is
    /// judged or reading re-armed. `buffered` says the bytes were read
    /// before the previous response was queued (a pipelined request).
    fn next_request(&mut self, idx: usize, buffered: bool) {
        let limits = self.limits;
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if !conn.idle() || conn.error_close {
            return;
        }
        match conn.parser.next(&limits) {
            Ok(Some(request)) => {
                conn.partial_since = None;
                // The final request of this connection: one-shot clients
                // read to EOF, and a peer that has closed its side sends
                // nothing more, so the response closes.
                if !request.keep_alive || (conn.eof && !conn.parser.has_partial()) {
                    conn.close_when_idle = true;
                }
                if buffered {
                    self.pipelined.inc();
                }
                self.dispatch(idx, request);
            }
            Ok(None) if conn.eof => match conn.parser.finish_eof() {
                Some((status, msg)) => self.parse_reject(idx, status, &msg),
                None => self.close_conn(idx),
            },
            Ok(None) => {
                conn.partial_since = if conn.parser.has_partial() {
                    conn.partial_since.or(Some(Instant::now()))
                } else {
                    None
                };
            }
            Err((status, msg)) => self.parse_reject(idx, status, &msg),
        }
        self.update_interest(idx);
    }

    /// Answers a protocol violation: counted as a parse error, one
    /// response, connection closed. A violation is only found while the
    /// connection owes nothing, so its answer is next in order.
    fn parse_reject(&mut self, idx: usize, status: u16, msg: &str) {
        self.state.registry.counter("http_parse_errors_total").inc();
        http::count_request(&self.state.registry, "-", "unparsed", status);
        self.reject(idx, status, msg);
    }

    /// Hands a just-parsed request to the workers, unless a watermark
    /// says shed: 503 + `Retry-After`, connection closed. A shed request
    /// lands in the slowlog with its reason — the histogram only sees
    /// requests that reached a worker, so the slowlog is where shed
    /// victims stay findable.
    fn dispatch(&mut self, idx: usize, request: Request) {
        let shed = if self.in_flight_jobs >= self.slots {
            Some("queue")
        } else if self.queued_bytes > MAX_QUEUED_BYTES {
            Some("queued_bytes")
        } else {
            None
        };
        if let Some(reason) = shed {
            self.count_shed(reason);
            self.state.ops.slowlog().record(SlowEntry {
                route: routes::lookup(&request.method, &request.path).0.label,
                method: request.method,
                path: request.path,
                status: 503,
                shed: Some(reason),
                ..Default::default()
            });
            self.reject(idx, 503, SHED_MESSAGE);
            return;
        }
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        conn.in_flight = true;
        let token = conn.token(idx);
        self.in_flight_jobs += 1;
        let _ = self.jobs_tx.send(Job {
            token,
            request,
            started: Instant::now(),
        });
    }

    // -- completion / write path -------------------------------------------

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.in_flight_jobs = self.in_flight_jobs.saturating_sub(1);
            let idx = (done.token & 0xffff_ffff) as usize;
            let gen = (done.token >> 32) as u32;
            let keep_alive = match self.conn_mut(idx) {
                Some(conn) if conn.gen == gen => {
                    conn.in_flight = false;
                    conn.served = true;
                    // The idle clock restarts at the *response*, not the
                    // last read. A long-poll watch legitimately parks a
                    // request with a worker for far longer than
                    // `idle_timeout`; judging the quiet period from the
                    // request bytes would reap the connection the moment
                    // its answer flushed, racing the client's next poll
                    // on the keep-alive socket.
                    conn.last_activity = Instant::now();
                    !conn.close_when_idle
                }
                _ => continue, // connection died while the handler ran
            };
            self.queue_response(idx, done.status, done.content_type, done.body, keep_alive);
            self.flush(idx);
        }
    }

    fn queue_response(
        &mut self,
        idx: usize,
        status: u16,
        content_type: &str,
        body: String,
        keep_alive: bool,
    ) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let head = http::encode_response_head(status, content_type, body.len(), keep_alive);
        let added = head.len() + body.len();
        conn.write_q.push(head.into_bytes());
        conn.write_q.push(body.into_bytes());
        if conn.write_since.is_none() {
            conn.write_since = Some(Instant::now());
        }
        self.queued_bytes += added;
    }

    /// Writes what the socket will take, then applies
    /// [`Reactor::maybe_finish`]; closes on a hard error.
    fn flush(&mut self, idx: usize) {
        let result = {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if conn.write_q.is_empty() {
                None
            } else {
                let Conn {
                    write_q, stream, ..
                } = conn;
                Some(write_q.write_to(stream))
            }
        };
        match result {
            None => {}
            Some(Ok(n)) => {
                self.queued_bytes = self.queued_bytes.saturating_sub(n);
                let Some(conn) = self.conn_mut(idx) else {
                    return;
                };
                if conn.write_q.is_empty() {
                    conn.write_since = None;
                } else if n > 0 {
                    conn.write_since = Some(Instant::now());
                }
            }
            Some(Err(_)) => {
                self.close_conn(idx);
                return;
            }
        }
        self.maybe_finish(idx);
    }

    /// Applies the close rules once the write queue drains. A connection
    /// that owes nothing and stays open moves on to its next buffered
    /// request, then reads again.
    fn maybe_finish(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let (idle, error_close, shed) = (conn.idle(), conn.error_close, conn.shed);
        if idle && (conn.close_when_idle || error_close && !shed) {
            self.close_conn(idx);
        } else if idle && error_close {
            self.begin_linger(idx);
            self.update_interest(idx);
        } else if idle {
            self.next_request(idx, true);
        } else {
            self.update_interest(idx);
        }
    }

    /// A shed connection's 503 is out. Closing now would, whenever the
    /// peer's request sits unread in the receive queue (every client
    /// that writes before it reads), go out as a reset, and the peer
    /// would see `ECONNRESET` in place of the 503 and its `Retry-After`.
    /// So: shut the write half (the peer reads the response, then EOF)
    /// and keep discarding input until the peer closes or
    /// `sweep_timeouts` gives up on it. The slot stays counted against
    /// `shed_ceiling()` meanwhile.
    fn begin_linger(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.stream.shutdown(Shutdown::Write).is_err() {
            self.close_conn(idx);
            return;
        }
        conn.lingering = Some(Instant::now());
    }

    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let mut want = 0u32;
        if conn.may_read() || conn.lingering.is_some() {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if !conn.write_q.is_empty() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            let token = conn.token(idx);
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            let _ = self.poller.modify(fd, token, want);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(|slot| slot.take()) {
            self.poller.delete(conn.stream.as_raw_fd());
            self.queued_bytes = self.queued_bytes.saturating_sub(conn.write_q.len());
            self.free.push(idx);
            self.open -= 1;
            self.open_shed -= usize::from(conn.shed);
            self.open_gauge.set(self.open as i64);
        }
    }

    // -- timers & drain -----------------------------------------------------

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let drain_cutoff = self.draining.map(|since| since + DRAIN_DEADLINE);
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            let (write_since, partial_since, error_close, served, last_activity, idle) = (
                conn.write_since.or(conn.lingering),
                conn.partial_since,
                conn.error_close,
                conn.served,
                conn.last_activity,
                conn.idle(),
            );
            if drain_cutoff.is_some_and(|cut| now >= cut) {
                self.close_conn(idx);
                continue;
            }
            if write_since.is_some_and(|since| now.duration_since(since) > self.cfg.write_timeout) {
                // The peer stopped reading its response, or never
                // closed after reading its shed 503.
                self.close_conn(idx);
                continue;
            }
            if let Some(since) = partial_since {
                // A request has been incomplete for the whole read
                // timeout — slowloris or a stalled peer. The bound is
                // on total time, so a byte-per-second trickle cannot
                // hold the connection open past it.
                if now.duration_since(since) > self.cfg.read_timeout && !error_close {
                    self.parse_reject(idx, 400, TIMED_OUT);
                }
            } else if idle && !error_close {
                // `idle()` is false while a request is with a worker, so
                // a parked long-poll watch is exempt from this branch for
                // as long as it waits; its `partial_since` is also `None`
                // (the request parsed completely), so the slowloris bound
                // above cannot misjudge it either.
                let quiet = now.duration_since(last_activity);
                if served {
                    if quiet > self.cfg.idle_timeout {
                        self.close_conn(idx); // silent keep-alive reap
                    }
                } else if quiet > self.cfg.read_timeout {
                    // Never sent a complete request: answered 400, as
                    // a request cut off half-way is.
                    self.parse_reject(idx, 400, TIMED_OUT);
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            conn.close_when_idle = true;
            if conn.idle() {
                self.close_conn(idx);
            } else {
                self.update_interest(idx);
            }
        }
    }
}
