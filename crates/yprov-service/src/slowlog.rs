//! The slow-request log: the N slowest and the N most recent erroring
//! requests per route, kept in bounded in-memory rings so an operator
//! chasing a p99 spike can go from "which route" (the histogram)
//! straight to "which request" — method, path, status, latency, the
//! shed reason if the server refused it, and the request's trace id,
//! which links the entry to its span in the Chrome trace export.
//!
//! Recording mirrors the span-ring idiom in `obs::trace`: entries are
//! built entirely off-lock and pushed under one short mutex hold (a
//! `BTreeMap` probe plus a bounded `Vec` shift — no allocation beyond
//! the entry itself, no syscall), so in the common single-writer case
//! the lock is uncontended and the cost is one CAS.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One captured request.
#[derive(Debug, Clone, Default)]
pub struct SlowEntry {
    pub method: String,
    /// The concrete request path (route templates collapse ids; the
    /// slowlog's whole point is the concrete offender).
    pub path: String,
    /// The route template the entry is filed under.
    pub route: &'static str,
    pub status: u16,
    pub latency_ns: u64,
    /// The shed reason (`queued_bytes`) when the request never reached
    /// a handler.
    pub shed: Option<&'static str>,
    /// The handler span's 32-hex trace id, matching the `trace_id`
    /// argument of the span's event in the Chrome trace export.
    pub trace_id: Option<String>,
    /// Monotonically increasing capture sequence (process-local),
    /// assigned by [`SlowLog::record`].
    pub seq: u64,
}

/// Per-route state: the slowest successes and the latest errors.
struct RouteLog {
    /// Kept sorted descending by latency, truncated at `per_route`.
    slowest: Vec<SlowEntry>,
    /// Most recent 4xx/5xx/shed entries, oldest first, bounded at
    /// `per_route`.
    errors: Vec<SlowEntry>,
}

/// The log itself; shared by every connection thread of one server.
pub struct SlowLog {
    per_route: usize,
    seq: AtomicU64,
    routes: Mutex<BTreeMap<&'static str, RouteLog>>,
}

impl SlowLog {
    /// A log keeping `per_route` slowest + `per_route` erroring entries
    /// for each route.
    pub fn new(per_route: usize) -> SlowLog {
        SlowLog {
            per_route: per_route.max(1),
            seq: AtomicU64::new(0),
            routes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one finished (or shed) request: one short uncontended
    /// lock hold.
    pub fn record(&self, mut entry: SlowEntry) {
        entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let is_error = entry.status >= 400 || entry.shed.is_some();
        let mut routes = self.routes.lock().expect("slowlog poisoned");
        let log = routes.entry(entry.route).or_insert_with(|| RouteLog {
            slowest: Vec::with_capacity(self.per_route),
            errors: Vec::with_capacity(self.per_route),
        });
        if is_error {
            if log.errors.len() == self.per_route {
                log.errors.remove(0);
            }
            log.errors.push(entry);
        } else {
            // Insertion sort into the bounded descending-by-latency
            // top-N; requests faster than the current floor are the
            // overwhelming majority and bail on the comparison alone.
            if log.slowest.len() == self.per_route
                && entry.latency_ns <= log.slowest.last().map_or(0, |e| e.latency_ns)
            {
                return;
            }
            let at = log
                .slowest
                .partition_point(|e| e.latency_ns >= entry.latency_ns);
            log.slowest.insert(at, entry);
            log.slowest.truncate(self.per_route);
        }
    }

    /// Every route's entries: `(route, slowest, errors)`, route-sorted.
    /// Slowest are latency-descending; errors oldest first.
    pub fn snapshot(&self) -> Vec<(&'static str, Vec<SlowEntry>, Vec<SlowEntry>)> {
        self.routes
            .lock()
            .expect("slowlog poisoned")
            .iter()
            .map(|(route, log)| (*route, log.slowest.clone(), log.errors.clone()))
            .collect()
    }

    /// Total entries currently held (both rings, all routes).
    pub fn len(&self) -> usize {
        self.routes
            .lock()
            .expect("slowlog poisoned")
            .values()
            .map(|l| l.slowest.len() + l.errors.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, route: &'static str, status: u16, latency_ns: u64) -> SlowEntry {
        SlowEntry {
            method: "GET".to_string(),
            path: path.to_string(),
            route,
            status,
            latency_ns,
            ..Default::default()
        }
    }

    fn ok(log: &SlowLog, latency_ns: u64) {
        log.record(entry("/x", "/x", 200, latency_ns));
    }

    #[test]
    fn keeps_the_n_slowest_sorted_descending() {
        let log = SlowLog::new(3);
        for lat in [5, 1, 9, 3, 7, 2] {
            ok(&log, lat);
        }
        let snap = log.snapshot();
        let lats: Vec<u64> = snap[0].1.iter().map(|e| e.latency_ns).collect();
        assert_eq!(lats, vec![9, 7, 5]);
    }

    #[test]
    fn errors_ring_keeps_the_most_recent() {
        let log = SlowLog::new(2);
        for (i, status) in [500u16, 404, 503].iter().enumerate() {
            log.record(entry("/x", "/x", *status, i as u64));
        }
        let snap = log.snapshot();
        let statuses: Vec<u16> = snap[0].2.iter().map(|e| e.status).collect();
        assert_eq!(statuses, vec![404, 503], "oldest 500 evicted");
    }

    #[test]
    fn shed_requests_count_as_errors_with_their_reason() {
        let log = SlowLog::new(4);
        log.record(SlowEntry {
            shed: Some("queue"),
            ..entry("/y", "/y", 503, 0)
        });
        let snap = log.snapshot();
        assert_eq!(snap[0].2[0].shed, Some("queue"));
    }

    #[test]
    fn routes_are_kept_apart() {
        let log = SlowLog::new(2);
        log.record(entry("/a/1", "/a/{id}", 200, 10));
        log.record(entry("/b", "/b", 200, 20));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "/a/{id}");
        assert_eq!(snap[0].1[0].path, "/a/1", "concrete path preserved");
    }

    #[test]
    fn fast_requests_below_a_full_floor_are_rejected_cheaply() {
        let log = SlowLog::new(2);
        ok(&log, 100);
        ok(&log, 200);
        ok(&log, 50); // below the floor of a full ring
        let snap = log.snapshot();
        let lats: Vec<u64> = snap[0].1.iter().map(|e| e.latency_ns).collect();
        assert_eq!(lats, vec![200, 100]);
    }

    #[test]
    fn concurrent_recording_stays_bounded_and_keeps_the_max() {
        use std::sync::Arc;
        let log = Arc::new(SlowLog::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        ok(&log, w * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap[0].1.len(), 4);
        assert_eq!(snap[0].1[0].latency_ns, 3499, "global max survives");
    }
}
