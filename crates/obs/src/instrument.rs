//! The instruments: counter, gauge, histogram, span timer.
//!
//! All update paths are lock-free (`Relaxed` atomics) and allocation-
//! free.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log2 histogram buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 also catches 0 ns), so the range runs 1 ns to
/// `2^40` ns ≈ 18 minutes, with everything above clamped into the last
/// bucket.
pub const BUCKET_COUNT: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, pool sizes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency histogram with fixed log2 bucket boundaries over
/// nanoseconds (see [`BUCKET_COUNT`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// Index of the bucket an observation of `ns` falls into.
pub(crate) fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
    }
}

/// Exclusive upper boundary of bucket `i`, in nanoseconds.
pub(crate) fn bucket_upper_ns(i: usize) -> u64 {
    1u64 << (i as u32 + 1)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation of a duration.
    pub fn record(&self, d: Duration) {
        // u64 nanoseconds overflow after ~584 years; saturate.
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span whose drop records the elapsed time.
    pub fn start_span(&self) -> SpanTimer<'_> {
        SpanTimer {
            histogram: self,
            start: Instant::now(),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total of all observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Loads the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// A guard that records its lifetime into a [`Histogram`] on drop.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper_ns(0), 2);
        assert_eq!(bucket_upper_ns(10), 2048);
    }

    #[test]
    fn histogram_records_and_aggregates() {
        let h = Histogram::default();
        for ns in [1u64, 2, 1000, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1_001_003);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 4);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::default();
        {
            let _span = h.start_span();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(
            h.sum_ns() >= 2_000_000,
            "slept 2ms, recorded {}ns",
            h.sum_ns()
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::default();
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (h, c) = (&h, &c);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 80_000);
    }
}
