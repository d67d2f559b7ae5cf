//! The benchmark's span recorder: spans around the calls *into* each
//! layer, taken from the outside. Nothing in the program under test
//! records here. Spans stay in memory and are written once, at exit.
//!
//! A span's name is `layer.call` (`prov_model.parse`, `http.put`); the
//! layer is the part before the dot. With the recorder off, `time`
//! costs two clock reads and one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Spans of one operation share this id.
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// (stack of open span indices, current op id) of this thread.
    static LOCAL: RefCell<(Vec<u32>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard<'r> {
    open: Option<(&'r Recorder, u32)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn rel_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let (parent, op) = LOCAL.with(|l| {
            let l = l.borrow();
            (l.0.last().copied(), l.1)
        });
        let mut spans = self.spans.lock().expect("no panic while recording");
        spans.push(Span {
            name,
            start_ns: self.rel_ns(start),
            end_ns: self.rel_ns(end),
            parent,
            op,
        });
        (spans.len() - 1) as u32
    }

    /// Opens the root span of operation `op` on this thread; spans
    /// opened until the guard drops are its descendants.
    pub fn op(&self, op: u64, name: &'static str) -> Guard<'_> {
        if self.is_enabled() {
            LOCAL.with(|l| l.borrow_mut().1 = op);
        }
        self.span(name)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.is_enabled() {
            return Guard { open: None };
        }
        let now = Instant::now();
        let index = self.push(name, now, now);
        LOCAL.with(|l| l.borrow_mut().0.push(index));
        Guard {
            open: Some((self, index)),
        }
    }

    /// Runs `f`, returns its result and how long it took, and records
    /// that interval as a span: the driver's latency samples and the
    /// trace read the same clock.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if self.is_enabled() {
            self.push(name, start, end);
        }
        (value, end - start)
    }

    /// Records an interval measured elsewhere (another thread, or summed
    /// over a batch) under the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, took: Duration) {
        if self.is_enabled() {
            self.push(name, start, start + took);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no panic while recording").clone()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no panic while recording");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes the spans as one JSON array of
    /// `{id, parent, op, name, start_ns, end_ns}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((rec, index)) = self.open.take() {
            let end = rec.rel_ns(Instant::now());
            if let Ok(mut spans) = rec.spans.lock() {
                spans[index as usize].end_ns = end;
            }
            LOCAL.with(|l| {
                let stack = &mut l.borrow_mut().0;
                if let Some(pos) = stack.iter().rposition(|&i| i == index) {
                    stack.remove(pos);
                }
            });
        }
    }
}

/// Each span's own time: its duration minus the union of the parts of
/// its interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// `(spans, self time in ns)` per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64)> {
    let mut table: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.layer()).or_default();
        row.0 += 1;
        row.1 += own;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..30, 20..50 (overlapping), 60..70;
        // grandchild 12..18 under the first child; a child that sticks
        // out past the root's end (90..120) is clipped.
        let spans = vec![
            span("op.put", 0, 100, None),
            span("store.upload", 10, 30, Some(0)),
            span("ledger.append", 20, 50, Some(0)),
            span("prov_graph.index_build", 60, 70, Some(0)),
            span("backend.put", 12, 18, Some(1)),
            span("http.put", 90, 120, Some(0)),
        ];
        // union of children within root: 10..50 (40) + 60..70 (10) + 90..100 (10) = 60
        assert_eq!(self_times(&spans), vec![40, 14, 30, 10, 6, 30]);
        let table = layer_self_ns(&spans);
        assert_eq!(table["op"], (1, 40));
        assert_eq!(table["store"], (1, 14));
        assert_eq!(table["backend"], (1, 6));
    }

    #[test]
    fn guards_nest_per_thread_and_a_disabled_recorder_records_nothing() {
        let rec = Recorder::new(true);
        {
            let _op = rec.op(7, "op.put");
            let ((), took) = rec.time("http.put", || ());
            rec.record("prov_model.parse", Instant::now(), took);
        }
        drop(rec.op(8, "op.get"));
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 7));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[3].parent, spans[3].op), (None, 8));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.durations_ms("http.put").len(), 1);
        assert_eq!(spans[1].layer(), "http");

        let off = Recorder::new(false);
        drop(off.span("a.b"));
        let ((), _) = off.time("a.b", || ());
        assert!(off.spans().is_empty());
    }
}
