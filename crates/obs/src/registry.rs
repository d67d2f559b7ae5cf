//! The named instrument registry, snapshots, and Prometheus rendering.
//!
//! Registration (name → handle) is the cold path and goes through a
//! mutex; the returned `Arc` handles are the hot path and never touch
//! the registry again. Names may carry Prometheus-style labels inline
//! (`requests_total{route="/healthz"}`); the renderer groups `# TYPE`
//! lines by the family name before the `{`.

use crate::instrument::{bucket_upper_ns, Counter, Gauge, Histogram, BUCKET_COUNT};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments.
#[derive(Debug)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
    /// Family name → help text, rendered as `# HELP` lines.
    help: Mutex<BTreeMap<String, String>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            instruments: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.instruments.lock().expect("obs registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::default()))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("obs: {name:?} is registered as a non-counter"),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.instruments.lock().expect("obs registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::default()))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("obs: {name:?} is registered as a non-gauge"),
        }
    }

    /// Returns the histogram `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.instruments.lock().expect("obs registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::default()))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("obs: {name:?} is registered as a non-histogram"),
        }
    }

    /// Sets the help text rendered as a `# HELP` line for `family`
    /// (the metric name without its label block). Families without help
    /// render only their `# TYPE` line.
    pub fn set_help(&self, family: &str, help: &str) {
        self.help
            .lock()
            .expect("obs registry poisoned")
            .insert(family.to_string(), help.to_string());
    }

    /// A point-in-time copy of every instrument's state.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.instruments.lock().expect("obs registry poisoned");
        let mut snap = Snapshot::default();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count(),
                            sum_ns: h.sum_ns(),
                            buckets: h.bucket_counts(),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Renders every instrument in the Prometheus text exposition
    /// format (version 0.0.4). Histograms emit cumulative `_bucket`
    /// lines with `le` boundaries in seconds, plus `_sum` / `_count`.
    /// Families with registered help ([`Registry::set_help`]) get a
    /// `# HELP` line, and label values are escaped per the format
    /// (`\` → `\\`, `"` → `\"`, newline → `\n`).
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let help_map = self.help.lock().expect("obs registry poisoned").clone();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = Default::default();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let family = family_of(name).to_string();
            if typed.insert(family.clone()) {
                if let Some(help) = help_map.get(&family) {
                    let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
                }
                let _ = writeln!(out, "# TYPE {family} {kind}");
            }
        };
        for (name, value) in &snap.counters {
            type_line(&mut out, name, "counter");
            let (family, labels) = split_labels(name);
            let _ = writeln!(out, "{family}{} {value}", wrap_labels(labels));
        }
        for (name, value) in &snap.gauges {
            type_line(&mut out, name, "gauge");
            let (family, labels) = split_labels(name);
            let _ = writeln!(out, "{family}{} {value}", wrap_labels(labels));
        }
        for (name, h) in &snap.histograms {
            type_line(&mut out, name, "histogram");
            let (family, labels) = split_labels(name);
            let mut cumulative = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cumulative += n;
                // Skip interior empty buckets to keep scrapes compact;
                // always emit +Inf below.
                if *n == 0 {
                    continue;
                }
                let le = bucket_upper_ns(i) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "{family}_bucket{{{}le=\"{le}\"}} {cumulative}",
                    labels_prefix(labels)
                );
            }
            let _ = writeln!(
                out,
                "{family}_bucket{{{}le=\"+Inf\"}} {}",
                labels_prefix(labels),
                h.count
            );
            let suffix = wrap_labels(labels);
            let _ = writeln!(out, "{family}_sum{suffix} {}", h.sum_ns as f64 / 1e9);
            let _ = writeln!(out, "{family}_count{suffix} {}", h.count);
        }
        out
    }
}

/// The family name: everything before the label block.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits `name{a="b"}` into `("name", "a=\"b\"")`; labels are `""`
/// when absent.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Existing labels as a `k="v",` prefix ready to precede `le="..."`.
fn labels_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{},", escape_label_block(labels))
    }
}

/// Existing labels wrapped back into `{...}` (empty string when none).
fn wrap_labels(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", escape_label_block(labels))
    }
}

/// Escapes one label value per the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: `\` → `\\` and newline → `\n` (quotes are
/// legal in help text).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Re-emits an inline `k1="v1",k2="v2"` label block with every value
/// escaped. Values are stored raw in instrument names, so a closing
/// quote is recognized as a `"` followed by `,` or the end of the
/// block — a raw value containing the two-byte sequence `",` would be
/// split early, which is accepted as a documented limitation.
fn escape_label_block(labels: &str) -> String {
    let mut out = String::with_capacity(labels.len());
    let mut rest = labels;
    while let Some(eq) = rest.find("=\"") {
        out.push_str(&rest[..eq + 2]);
        let value = &rest[eq + 2..];
        let end = raw_value_end(value);
        out.push_str(&escape_label_value(&value[..end]));
        out.push('"');
        rest = &value[(end + 1).min(value.len())..];
    }
    out.push_str(rest);
    out
}

/// Index of the closing quote of a raw label value: the first `"`
/// followed by `,` or end of input.
fn raw_value_end(s: &str) -> usize {
    let bytes = s.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] == b'"' && (i + 1 == bytes.len() || bytes[i + 1] == b',') {
            return i;
        }
    }
    s.len()
}

/// Point-in-time state of a histogram (see [`Registry::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Total nanoseconds observed.
    pub sum_ns: u64,
    /// Per-bucket counts (log2 boundaries, see [`BUCKET_COUNT`]).
    pub buckets: [u64; BUCKET_COUNT],
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1) in
    /// nanoseconds: the upper boundary of the bucket containing the
    /// target rank — within 2× of the true value by construction.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(BUCKET_COUNT - 1)
    }
}

/// A snapshot of a whole registry, subtractable to isolate one
/// interval's activity (e.g. one scrape tick's).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Activity between `earlier` and `self`: counters and histogram
    /// counts subtract (saturating — instruments only grow), gauges
    /// keep their current value, and entries that did not move are
    /// dropped.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut delta = Snapshot::default();
        for (name, &now) in &self.counters {
            let before = earlier.counters.get(name).copied().unwrap_or(0);
            if now > before {
                delta.counters.insert(name.clone(), now - before);
            }
        }
        for (name, &now) in &self.gauges {
            let before = earlier.gauges.get(name).copied();
            if before != Some(now) {
                delta.gauges.insert(name.clone(), now);
            }
        }
        for (name, now) in &self.histograms {
            let (count, sum_ns, buckets) = match earlier.histograms.get(name) {
                Some(b) => (
                    now.count.saturating_sub(b.count),
                    now.sum_ns.saturating_sub(b.sum_ns),
                    std::array::from_fn(|i| now.buckets[i].saturating_sub(b.buckets[i])),
                ),
                None => (now.count, now.sum_ns, now.buckets),
            };
            if count > 0 {
                delta.histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        count,
                        sum_ns,
                        buckets,
                    },
                );
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("hits").inc();
        r.counter("hits").inc();
        assert_eq!(r.counter("hits").get(), 2);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.histogram("x");
        r.counter("x");
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let r = Registry::new();
        r.counter("requests_total{route=\"/healthz\"}").add(3);
        r.counter("requests_total{route=\"/metrics\"}").inc();
        r.gauge("queue_depth").set(7);
        let h = r.histogram("latency_seconds{route=\"/healthz\"}");
        h.record_ns(1500); // bucket [1024, 2048)
        h.record_ns(1500);

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert_eq!(text.matches("# TYPE requests_total counter").count(), 1);
        assert!(text.contains("requests_total{route=\"/healthz\"} 3"));
        assert!(text.contains("requests_total{route=\"/metrics\"} 1"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 7"));
        assert!(text.contains("# TYPE latency_seconds histogram"));
        assert!(
            text.contains("latency_seconds_bucket{route=\"/healthz\",le=\"0.000002048\"} 2"),
            "{text}"
        );
        assert!(text.contains("latency_seconds_bucket{route=\"/healthz\",le=\"+Inf\"} 2"));
        assert!(text.contains("latency_seconds_count{route=\"/healthz\"} 2"));
        assert!(text.contains("latency_seconds_sum{route=\"/healthz\"} 0.000003"));
    }

    #[test]
    fn unlabeled_histogram_renders() {
        let r = Registry::new();
        r.histogram("fold_seconds").record_ns(10);
        let text = r.render_prometheus();
        assert!(
            text.contains("fold_seconds_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("fold_seconds_count 1"));
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let r = Registry::new();
        let c = r.counter("records");
        let h = r.histogram("append");
        c.add(10);
        h.record_ns(100);
        let before = r.snapshot();
        c.add(5);
        h.record_ns(200);
        h.record_ns(300);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counters["records"], 5);
        assert_eq!(delta.histograms["append"].count, 2);
        assert_eq!(delta.histograms["append"].sum_ns, 500);
        // An idle interval is empty.
        let now = r.snapshot();
        assert_eq!(now.delta_since(&now), Snapshot::default());
    }

    #[test]
    fn help_lines_render_before_type() {
        let r = Registry::new();
        r.counter("requests_total{route=\"/healthz\"}").inc();
        r.histogram("latency_seconds").record_ns(10);
        r.set_help("requests_total", "Requests served, by route.");
        r.set_help(
            "latency_seconds",
            "End-to-end latency.\nSpans \\ both lines.",
        );
        let text = r.render_prometheus();
        let help_pos = text.find("# HELP requests_total Requests served, by route.");
        let type_pos = text.find("# TYPE requests_total counter");
        assert!(help_pos.is_some() && type_pos.is_some(), "{text}");
        assert!(help_pos < type_pos, "HELP precedes TYPE");
        assert_eq!(text.matches("# HELP requests_total").count(), 1);
        // Backslashes and newlines in help text are escaped.
        assert!(
            text.contains("# HELP latency_seconds End-to-end latency.\\nSpans \\\\ both lines."),
            "{text}"
        );
        // A family without help still gets no HELP line.
        r.gauge("queue_depth").set(1);
        assert!(!r.render_prometheus().contains("# HELP queue_depth"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("errors_total{msg=\"disk \\ full \"quote\"\",node=\"a\nb\"}")
            .inc();
        let h = r.histogram("op_seconds{path=\"C:\\data\"}");
        h.record_ns(1500);
        let text = r.render_prometheus();
        assert!(
            text.contains("errors_total{msg=\"disk \\\\ full \\\"quote\\\"\",node=\"a\\nb\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("op_seconds_bucket{path=\"C:\\\\data\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("op_seconds_count{path=\"C:\\\\data\"} 1"),
            "{text}"
        );
        // No raw (unescaped) backslash-before-d or bare newline survives
        // inside a label value.
        assert!(!text.contains("C:\\data"), "{text}");
    }

    #[test]
    fn delta_tracks_bucket_advance_while_instruments_register_in_the_gap() {
        let r = Registry::new();
        let h = r.histogram("encode");
        h.record_ns(100); // bucket 6: [64, 128)
        h.record_ns(3000); // bucket 11: [2048, 4096)
        let before = r.snapshot();

        // The same histogram advances (one existing bucket, one new)...
        h.record_ns(100); // bucket 6 again
        h.record_ns(100_000); // bucket 16: [65536, 131072)
                              // ...while new instruments register in the gap.
        r.counter("late_counter").add(3);
        let late_h = r.histogram("late_hist");
        late_h.record_ns(50);

        let delta = r.snapshot().delta_since(&before);
        let d = &delta.histograms["encode"];
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 100_100);
        assert_eq!(d.buckets[crate::instrument::bucket_index(100)], 1);
        assert_eq!(d.buckets[crate::instrument::bucket_index(100_000)], 1);
        assert_eq!(
            d.buckets.iter().sum::<u64>(),
            2,
            "pre-gap counts subtracted"
        );

        // Instruments born in the gap appear with their full value.
        assert_eq!(delta.counters["late_counter"], 3);
        assert_eq!(delta.histograms["late_hist"].count, 1);
        assert_eq!(delta.histograms["late_hist"].sum_ns, 50);
    }

    #[test]
    fn tsdb_scrape_absorbs_instruments_registering_between_ticks() {
        // The same bucket-advance-with-registration-in-the-gap scenario,
        // driven through a tsdb scrape loop: instruments that register
        // while worker threads are live must show up as complete series
        // (their full first delta), not partial ones.
        use crate::tsdb::{Tsdb, TsdbConfig};
        use std::sync::Arc;

        let r = Arc::new(Registry::new());
        let db = Tsdb::new(TsdbConfig::default());
        db.tick(0.0, &r.snapshot());

        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    // Bounded so the registry (and the tsdb series
                    // fuse) stays comfortably sized; at least one pass
                    // even when the scrape loop finishes before this
                    // thread is first scheduled.
                    loop {
                        // Each worker keeps registering fresh names so
                        // every scrape races a registration.
                        r.counter(&format!("worker_{w}_burst_{i}")).add(7);
                        r.histogram(&format!("worker_{w}_lat_{i}")).record_ns(640);
                        i += 1;
                        if stop.load(Ordering::Relaxed) || i >= 200 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    i
                })
            })
            .collect();

        for t in 1..=20 {
            db.tick(t as f64, &r.snapshot());
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let bursts: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(bursts > 0);

        // Final settling tick so every registered instrument has been
        // scraped at least once after its last update.
        db.tick(21.0, &r.snapshot());

        // Every counter the workers ever registered must have exactly
        // its 7 increments accounted across the series' points: rate
        // integrated over the tick intervals (dt = 1 s here) == 7.
        let names = db.metric_names();
        let counters: Vec<_> = names.iter().filter(|n| n.contains("_burst_")).collect();
        assert!(!counters.is_empty());
        for name in counters {
            let s = db.query(name, 30.0, 1.0, 21.0);
            let total: f64 = s.points.iter().map(|p| p.avg * p.count as f64).sum();
            assert!(
                (total - 7.0).abs() < 1e-6,
                "{name}: integrated {total}, want 7 ({s:?})"
            );
        }
    }

    #[test]
    fn quantile_estimates_bound_the_data() {
        let h = HistogramSnapshot {
            count: 100,
            sum_ns: 0,
            buckets: {
                let mut b = [0u64; BUCKET_COUNT];
                b[4] = 90; // [16, 32) ns
                b[10] = 10; // [1024, 2048) ns
                b
            },
        };
        assert_eq!(h.quantile_upper_ns(0.5), 32);
        assert_eq!(h.quantile_upper_ns(0.99), 2048);
        assert_eq!(h.quantile_upper_ns(1.0), 2048);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                buckets: [0; BUCKET_COUNT]
            }
            .quantile_upper_ns(0.5),
            0
        );
    }
}
