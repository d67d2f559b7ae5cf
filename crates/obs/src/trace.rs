//! Structured tracing: causal spans and Chrome trace-event export.
//!
//! Where the [`Registry`](crate::Registry) aggregates (how long do chunk
//! encodes take *on average*?), this module records individual spans —
//! span id, parent id, track label, name, start/end nanoseconds and
//! key=value annotations — so a single run can be laid out as a causal
//! timeline: *where inside run 7, epoch 3, rank 5 did the finalize
//! stall?*
//!
//! The design mirrors the metrics layer's cost contract:
//!
//! * **Disabled path** — [`span`] and [`record_complete`] return after a
//!   single `Relaxed` load of the process-wide enabled flag; no clock
//!   read, no allocation. Tracing starts disabled.
//! * **Enabled path** — each thread records into its own fixed-size
//!   ring, so recording never contends with other threads. The ring is
//!   guarded by a mutex, but only the exporter ever takes it from
//!   another thread: the common lock is uncontended (one CAS, no
//!   syscall).
//! * **Bounded rings** — a ring keeps the last [`RING_CAPACITY`] spans
//!   of its thread, overwriting the oldest, and outlives the thread, so
//!   [`drain`] still exports the spans of workers that have finished.
//!
//! Spans carry two clocks: [`Clock::Wall`] spans are stamped from a
//! process-wide monotonic epoch, while [`Clock::Simulated`] spans
//! ([`record_complete`]) carry virtual timestamps from the training
//! simulator — the exporter puts them in separate trace-event
//! "processes" so Perfetto renders one coherent timeline per clock,
//! with one track per simulated rank.
//!
//! Cross-process causality uses W3C trace context: [`traceparent`]
//! renders the current position as a `traceparent` header value and
//! [`adopt_remote`] parses one on the receiving side, so a client's
//! upload spans and the server's handler spans share one trace id.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity (spans retained per thread).
pub const RING_CAPACITY: usize = 16_384;

/// Which clock a span's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Monotonic host time relative to the tracer's epoch.
    Wall,
    /// Virtual time supplied by the caller (the training simulator).
    Simulated,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// The 128-bit trace this span belongs to.
    pub trace_id: u128,
    /// Span name.
    pub name: Cow<'static, str>,
    /// Track label: the recording thread's name, or an explicit label
    /// such as `rank 5` for simulated spans.
    pub track: String,
    /// Which clock `start_ns`/`end_ns` are measured on.
    pub clock: Clock,
    /// Start, nanoseconds on `clock`.
    pub start_ns: u64,
    /// End, nanoseconds on `clock`.
    pub end_ns: u64,
    /// Key=value annotations.
    pub args: Vec<(String, String)>,
}

/// Bounded span storage owned by one thread; overwrites oldest-first
/// once full.
#[derive(Debug)]
struct Ring {
    cap: usize,
    slots: Vec<SpanRecord>,
    /// Next overwrite position once `slots` reached `cap`.
    head: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            slots: Vec::new(),
            head: 0,
        }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.slots.len() < self.cap {
            self.slots.push(rec);
        } else {
            self.slots[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained spans, oldest first.
    fn ordered(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
    }
}

/// A per-thread buffer: the ring plus the track label spans recorded on
/// this thread default to. Registered with the tracer for export and
/// kept alive (via `Arc`) after its thread exits, so a finished
/// worker's spans are still there for [`drain`].
#[derive(Debug)]
struct ThreadBuffer {
    label: String,
    ring: Mutex<Ring>,
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    trace_id: OnceLock<u128>,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        trace_id: OnceLock::new(),
        buffers: Mutex::new(Vec::new()),
    })
}

struct LocalCtx {
    buffer: Option<Arc<ThreadBuffer>>,
    /// Open span ids on this thread, innermost last.
    stack: Vec<u64>,
    /// Adopted remote context: `(trace id, parent span id)`.
    remote: Option<(u128, u64)>,
}

thread_local! {
    static LOCAL: RefCell<LocalCtx> = const {
        RefCell::new(LocalCtx {
            buffer: None,
            stack: Vec::new(),
            remote: None,
        })
    };
}

fn local_buffer(ctx: &mut LocalCtx) -> Arc<ThreadBuffer> {
    if let Some(buf) = &ctx.buffer {
        return Arc::clone(buf);
    }
    let label = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
    let buf = Arc::new(ThreadBuffer {
        label,
        ring: Mutex::new(Ring::new(RING_CAPACITY)),
    });
    tracer()
        .buffers
        .lock()
        .expect("trace buffer registry poisoned")
        .push(Arc::clone(&buf));
    ctx.buffer = Some(Arc::clone(&buf));
    buf
}

/// Turns span recording on or off process-wide. Off (the default)
/// costs one relaxed load per instrumented call site.
pub fn set_enabled(enabled: bool) {
    tracer().enabled.store(enabled, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
pub fn is_enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

fn alloc_id() -> u64 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

fn now_ns() -> u64 {
    u64::try_from(tracer().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// splitmix64, for deriving the process trace id.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process trace id (lazily generated, never 0). All spans not
/// recorded under an adopted remote context belong to this trace.
pub fn trace_id() -> u128 {
    *tracer().trace_id.get_or_init(|| {
        let mut seed = std::process::id() as u64 ^ 0x9E37_79B9_7F4A_7C15;
        seed ^= std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let hi = splitmix64(&mut seed);
        let lo = splitmix64(&mut seed);
        ((hi as u128) << 64 | lo as u128).max(1)
    })
}

fn current_trace_id(ctx: &LocalCtx) -> u128 {
    match ctx.remote {
        Some((tid, _)) => tid,
        None => trace_id(),
    }
}

/// The innermost open span on this thread (0 when none).
fn current_span_id() -> u64 {
    LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0))
}

/// An open span; records into the thread's ring on drop. Inert (no
/// clock reads, nothing recorded) when tracing was disabled at
/// [`span`] time.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    data: Option<SpanData>,
}

struct SpanData {
    id: u64,
    parent: u64,
    trace_id: u128,
    name: Cow<'static, str>,
    start_ns: u64,
    args: Vec<(String, String)>,
}

impl Span {
    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }

    /// Attaches a key=value annotation (no-op when inert).
    pub fn annotate(&mut self, key: &str, value: impl Into<String>) {
        if let Some(data) = &mut self.data {
            data.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut ctx = l.borrow_mut();
            // Pop by id, tolerating out-of-order guard drops.
            if let Some(pos) = ctx.stack.iter().rposition(|&id| id == data.id) {
                ctx.stack.remove(pos);
            }
            let buf = local_buffer(&mut ctx);
            let track = buf.label.clone();
            buf.ring
                .lock()
                .expect("trace ring poisoned")
                .push(SpanRecord {
                    id: data.id,
                    parent: data.parent,
                    trace_id: data.trace_id,
                    name: data.name,
                    track,
                    clock: Clock::Wall,
                    start_ns: data.start_ns,
                    end_ns,
                    args: data.args,
                });
        });
    }
}

/// Opens a wall-clock span named `name` on the current thread, parented
/// to the innermost open span (or the adopted remote context). Returns
/// an inert guard when tracing is disabled — the disabled cost is one
/// relaxed load.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !is_enabled() {
        return Span { data: None };
    }
    let id = alloc_id();
    let (parent, trace_id) = LOCAL.with(|l| {
        let mut ctx = l.borrow_mut();
        let parent = ctx
            .stack
            .last()
            .copied()
            .or(ctx.remote.map(|(_, p)| p))
            .unwrap_or(0);
        let tid = current_trace_id(&ctx);
        ctx.stack.push(id);
        (parent, tid)
    });
    Span {
        data: Some(SpanData {
            id,
            parent,
            trace_id,
            name: name.into(),
            start_ns: now_ns(),
            args: Vec::new(),
        }),
    }
}

/// Records an already-measured span on the [`Clock::Simulated`] clock
/// with an explicit track label — how the training simulator lays one
/// track per simulated rank without spawning a thread per rank.
/// `parent` of 0 marks a root. Returns the span id (0 when disabled),
/// so callers can parent follow-up spans.
pub fn record_complete(
    track: &str,
    name: impl Into<Cow<'static, str>>,
    start_ns: u64,
    end_ns: u64,
    parent: u64,
    args: &[(&str, &str)],
) -> u64 {
    if !is_enabled() {
        return 0;
    }
    let id = alloc_id();
    LOCAL.with(|l| {
        let mut ctx = l.borrow_mut();
        let trace_id = current_trace_id(&ctx);
        let buf = local_buffer(&mut ctx);
        buf.ring
            .lock()
            .expect("trace ring poisoned")
            .push(SpanRecord {
                id,
                parent,
                trace_id,
                name: name.into(),
                track: track.to_string(),
                clock: Clock::Simulated,
                start_ns,
                end_ns: end_ns.max(start_ns),
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
    });
    id
}

// ----- W3C trace context ---------------------------------------------------

/// Renders the current position as a W3C `traceparent` header value
/// (`00-<trace id>-<parent span id>-01`), or `None` when tracing is
/// disabled. With no open span a fresh id is allocated as a synthetic
/// root, so the value is always well-formed (span id never 0).
pub fn traceparent() -> Option<String> {
    if !is_enabled() {
        return None;
    }
    let span_id = match current_span_id() {
        0 => alloc_id(),
        id => id,
    };
    let tid = LOCAL.with(|l| current_trace_id(&l.borrow()));
    Some(format!("00-{tid:032x}-{span_id:016x}-01"))
}

/// Parses a `traceparent` value into `(trace id, parent span id)`.
/// Only version 00 is accepted; the ids and the flags are lowercase hex
/// of their fixed widths, and all-zero ids are invalid per the spec.
fn parse_traceparent(value: &str) -> Option<(u128, u64)> {
    let hex = |field: &str, width: usize| {
        field.len() == width
            && field
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    };
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if parts.next().is_some()
        || version != "00"
        || !hex(trace, 32)
        || !hex(parent, 16)
        || !hex(flags, 2)
    {
        return None;
    }
    let trace_id = u128::from_str_radix(trace, 16).ok()?;
    let span_id = u64::from_str_radix(parent, 16).ok()?;
    if trace_id == 0 || span_id == 0 {
        return None;
    }
    Some((trace_id, span_id))
}

/// While held, spans on this thread join the remote trace described by
/// a `traceparent` header (same trace id, parented to the remote span).
#[must_use = "the remote context is cleared when this guard drops"]
pub struct RemoteScope {
    previous: Option<(u128, u64)>,
}

impl Drop for RemoteScope {
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().remote = self.previous.take());
    }
}

/// Adopts a remote `traceparent` on the current thread — the server
/// side of context propagation. Returns `None` (and adopts nothing)
/// when tracing is disabled or the value does not parse.
pub fn adopt_remote(value: &str) -> Option<RemoteScope> {
    if !is_enabled() {
        return None;
    }
    let parsed = parse_traceparent(value)?;
    let previous = LOCAL.with(|l| l.borrow_mut().remote.replace(parsed));
    Some(RemoteScope { previous })
}

// ----- export --------------------------------------------------------------

/// Removes and returns every recorded span (all threads), oldest first
/// per clock.
pub fn drain() -> Vec<SpanRecord> {
    let buffers = tracer()
        .buffers
        .lock()
        .expect("trace buffer registry poisoned");
    let mut out = Vec::new();
    for buf in buffers.iter() {
        let mut ring = buf.ring.lock().expect("trace ring poisoned");
        out.extend(ring.ordered());
        ring.clear();
    }
    // Stable order for deterministic export: by clock, then time, then
    // longer spans first (parents enclose children), then id.
    out.sort_by(|a, b| {
        let key = |r: &SpanRecord| {
            (
                matches!(r.clock, Clock::Wall) as u8,
                r.start_ns,
                u64::MAX - (r.end_ns - r.start_ns),
                r.id,
            )
        };
        key(a).cmp(&key(b))
    });
    out
}

/// Renders spans as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load): complete `X` events with microsecond
/// timestamps, one trace-event process per clock (pid 1 = wall clock,
/// pid 2 = simulated ranks), one thread per track, with `process_name`
/// and `thread_name` metadata. `X` events are sorted by timestamp.
pub fn to_chrome_json(spans: &[SpanRecord]) -> String {
    // Assign tids per (pid, track), ordered naturally so `rank 10`
    // sorts after `rank 9` (Perfetto lists threads by tid).
    let natural_key = |track: &str| -> (String, u64) {
        let digits: String = track
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let num: u64 = digits
            .chars()
            .rev()
            .collect::<String>()
            .parse()
            .unwrap_or(0);
        let prefix = track[..track.len() - digits.len()].to_string();
        (prefix, num)
    };
    let pid_of = |clock: Clock| match clock {
        Clock::Wall => 1u32,
        Clock::Simulated => 2u32,
    };
    let mut tracks: Vec<(u32, &str)> = Vec::new();
    for s in spans {
        let key = (pid_of(s.clock), s.track.as_str());
        if !tracks.contains(&key) {
            tracks.push(key);
        }
    }
    tracks.sort_by_key(|a| (a.0, natural_key(a.1)));
    let tids: BTreeMap<(u32, &str), u32> = tracks
        .iter()
        .enumerate()
        .map(|(i, &(pid, track))| ((pid, track), i as u32 + 1))
        .collect();

    let mut pids: Vec<u32> = tracks.iter().map(|&(pid, _)| pid).collect();
    pids.dedup();
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, u64::MAX - (s.end_ns - s.start_ns), s.id));

    let mut out = json::to_string(|w| {
        w.object(|w| {
            w.field("displayTimeUnit").str("ms");
            w.field("traceEvents");
            w.array(|w| {
                for &pid in &pids {
                    let name = if pid == 1 {
                        "wall clock"
                    } else {
                        "simulated ranks"
                    };
                    metadata(w, "process_name", pid, 0, name);
                }
                for &(pid, track) in &tracks {
                    metadata(w, "thread_name", pid, tids[&(pid, track)], track);
                }
                for s in sorted {
                    let pid = pid_of(s.clock);
                    w.object(|w| {
                        w.field("ph").str("X");
                        w.field("name").str(&s.name);
                        w.field("cat").str(match s.clock {
                            Clock::Wall => "wall",
                            Clock::Simulated => "sim",
                        });
                        w.field("ts").f64(s.start_ns as f64 / 1_000.0);
                        w.field("dur").f64((s.end_ns - s.start_ns) as f64 / 1_000.0);
                        w.field("pid").u64(pid.into());
                        w.field("tid").u64(tids[&(pid, s.track.as_str())].into());
                        w.field("args");
                        w.object(|w| {
                            w.field("id").u64(s.id);
                            if s.parent != 0 {
                                w.field("parent").u64(s.parent);
                            }
                            w.field("trace_id")
                                .display(format_args!("{:032x}", s.trace_id));
                            for (k, v) in &s.args {
                                w.field(k).str(v);
                            }
                        });
                    });
                }
            });
        })
    });
    out.push('\n');
    out
}

/// A `process_name` or `thread_name` metadata event.
fn metadata(w: &mut json::JsonWriter<std::io::Sink>, kind: &str, pid: u32, tid: u32, name: &str) {
    w.object(|w| {
        w.field("ph").str("M");
        w.field("name").str(kind);
        w.field("pid").u64(pid.into());
        w.field("tid").u64(tid.into());
        w.field("args");
        w.object(|w| {
            w.field("name").str(name);
        });
    });
}

/// Drains every recorded span and writes Chrome trace-event JSON to
/// `path`. Returns the number of spans written.
pub fn write_trace_json(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = drain();
    std::fs::write(path, to_chrome_json(&spans))?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; tests that enable it serialize on
    // this lock and leave it disabled and drained behind them.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = exclusive();
        set_enabled(false);
        drain();
        let mut s = span("noop");
        s.annotate("k", "v");
        assert_eq!(s.id(), 0);
        drop(s);
        assert_eq!(record_complete("rank 0", "step", 0, 10, 0, &[]), 0);
        assert!(traceparent().is_none());
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_record() {
        let _g = exclusive();
        set_enabled(true);
        drain();
        let outer_id;
        {
            let outer = span("outer");
            outer_id = outer.id();
            assert_eq!(current_span_id(), outer_id);
            {
                let mut inner = span("inner");
                inner.annotate("shard", "3");
            }
        }
        let spans = drain();
        set_enabled(false);
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert!(inner.start_ns <= inner.end_ns);
        assert!(outer.end_ns >= inner.end_ns);
        assert_eq!(inner.args, vec![("shard".to_string(), "3".to_string())]);
        assert_eq!(inner.track, outer.track);
        assert_eq!(current_span_id(), 0, "stack unwound");
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let mut ring = Ring::new(8);
        for i in 0..20u64 {
            ring.push(SpanRecord {
                id: i + 1,
                parent: 0,
                trace_id: 1,
                name: format!("s{i}").into(),
                track: "t".into(),
                clock: Clock::Wall,
                start_ns: i,
                end_ns: i,
                args: Vec::new(),
            });
        }
        let names: Vec<String> = ring.ordered().iter().map(|s| s.name.to_string()).collect();
        assert_eq!(
            names,
            ["s12", "s13", "s14", "s15", "s16", "s17", "s18", "s19"],
            "the ring keeps its capacity, latest spans last"
        );
    }

    #[test]
    fn spans_of_an_exited_thread_are_still_drained() {
        let _g = exclusive();
        set_enabled(true);
        drain();
        std::thread::Builder::new()
            .name("trace-exited-worker".into())
            .spawn(|| {
                let _s = span("worker_step");
            })
            .unwrap()
            .join()
            .unwrap();
        let spans = drain();
        set_enabled(false);
        let worker: Vec<&str> = spans
            .iter()
            .filter(|s| s.track == "trace-exited-worker")
            .map(|s| s.name.as_ref())
            .collect();
        assert_eq!(worker, ["worker_step"], "the ring outlived its thread");
    }

    #[test]
    fn simulated_spans_carry_tracks_and_parents() {
        let _g = exclusive();
        set_enabled(true);
        drain();
        let step = record_complete("rank 3", "step", 1_000, 2_000, 0, &[("epoch", "1")]);
        assert_ne!(step, 0);
        let child = record_complete("rank 3", "all_reduce", 1_500, 2_000, step, &[]);
        let spans = drain();
        set_enabled(false);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.clock == Clock::Simulated));
        assert!(spans.iter().all(|s| s.track == "rank 3"));
        let c = spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!(c.parent, step);
    }

    #[test]
    fn chrome_export_shape_is_perfetto_compatible() {
        let _g = exclusive();
        set_enabled(true);
        drain();
        for rank in 0..4 {
            let track = format!("rank {rank}");
            for s in 0..3u64 {
                let id = record_complete(&track, "step", s * 1_000, (s + 1) * 1_000, 0, &[]);
                record_complete(&track, "compute", s * 1_000, s * 1_000 + 600, id, &[]);
            }
        }
        {
            let mut w = span("finalize \"quoted\"\nname");
            w.annotate("note", "line1\nline2");
        }
        let spans = drain();
        set_enabled(false);
        let json = to_chrome_json(&spans);

        // Shape: one top-level traceEvents array of M and X events.
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(!json.contains("\"ph\":\"B\"") && !json.contains("\"ph\":\"E\""));
        // One track (thread_name metadata) per rank, naturally ordered,
        // plus one for the wall-clock thread.
        for rank in 0..4 {
            assert!(
                json.contains(&format!("\"args\":{{\"name\":\"rank {rank}\"}}")),
                "{json}"
            );
        }
        assert_eq!(json.matches("\"name\":\"thread_name\"").count(), 5);
        assert_eq!(json.matches("\"name\":\"process_name\"").count(), 2);
        // Control characters and quotes in names/args are escaped.
        assert!(json.contains("finalize \\\"quoted\\\"\\nname"));
        assert!(json.contains("line1\\nline2"));
        assert!(!json.contains('\n') || json.ends_with('\n'), "one line");

        // `ts` values of X events are monotonically non-decreasing.
        let mut last = f64::MIN;
        let mut xs = 0;
        for chunk in json.split("\"ph\":\"X\"").skip(1) {
            let ts: f64 = chunk
                .split("\"ts\":")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("every X event has a ts");
            assert!(ts >= last, "ts must be monotonic: {ts} after {last}");
            last = ts;
            xs += 1;
        }
        assert_eq!(xs, 4 * 3 * 2 + 1);
    }

    #[test]
    fn traceparent_roundtrips_and_adopts() {
        let _g = exclusive();
        set_enabled(true);
        drain();
        let root = span("client_request");
        let header = traceparent().unwrap();
        let (tid, sid) = parse_traceparent(&header).unwrap();
        assert_eq!(tid, trace_id());
        assert_eq!(sid, root.id());

        // A "server" thread adopts the header: its spans join the trace.
        std::thread::spawn(move || {
            let scope = adopt_remote(&header).expect("valid traceparent adopts");
            {
                let _s = span("handle_request");
            }
            drop(scope);
            let _outside = span("after_scope");
        })
        .join()
        .unwrap();
        drop(root);
        let spans = drain();
        set_enabled(false);
        let handled = spans.iter().find(|s| s.name == "handle_request").unwrap();
        assert_eq!(handled.trace_id, tid, "server span shares the trace id");
        assert_eq!(handled.parent, sid, "parented to the client span");
        let outside = spans.iter().find(|s| s.name == "after_scope").unwrap();
        assert_eq!(outside.parent, 0, "scope drop clears the remote context");

        // Malformed values are rejected.
        for bad in [
            "",
            "00-zz-11-01",
            "01-00000000000000000000000000000001-0000000000000001-01",
            "00-00000000000000000000000000000000-0000000000000001-01",
            "00-00000000000000000000000000000001-0000000000000000-01",
            "00-0001-0000000000000001-01",
            "00-+0000000000000000000000000000001-0000000000000001-01",
            "00-0000000000000000000000000000000A-0000000000000001-01",
            "00-00000000000000000000000000000001-+000000000000001-01",
            "00-00000000000000000000000000000001-0000000000000001-zz",
            "00-00000000000000000000000000000001-0000000000000001-1",
        ] {
            assert!(parse_traceparent(bad).is_none(), "{bad:?}");
        }
    }
}
