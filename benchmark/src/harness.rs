//! What the four workloads share: the run's configuration, the block
//! clock with its reference kernel, failure accounting, and the result
//! they hand back.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::metrics::{self, Metric};
use crate::stats::{median, percentile};
use crate::trace::Recorder;

/// The timed phase is this many blocks of identical composition;
/// `work_per_s` is the median of their rates, so one stalled block
/// cannot move it. One more block of the same composition runs first,
/// untimed, as the warm-up that ends set-up.
const BLOCKS: usize = 10;
/// A traced run times this many pairs of blocks: one with the span
/// recorder off, one with it on and the shadow pass after every second
/// operation. The traced blocks (a fifth of the untraced run's work)
/// give the per-layer metrics; `trace.overhead_pct` compares them with
/// the warm, untraced blocks beside them.
const TRACED_PAIRS: usize = 2;
/// `run_seconds` of BENCHMARK.json: the op counts of the workloads are
/// calibrated so that the timed phase takes about this long on the
/// 2-core reference box.
pub const RUN_SECONDS: f64 = 20.0;

/// What a block after the warm-up is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Untraced run: feeds the end-to-end metrics.
    Timed,
    /// Traced run, recorder off: what the traced blocks are compared with.
    Reference,
    /// Traced run, recorder on.
    Traced,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// `--seconds`: scales the fixed op counts linearly.
    pub seconds: f64,
    pub trace: bool,
    /// Unit-test sizes: a tenth of the steps, an eighth of the nodes.
    pub small: bool,
    /// A fresh directory of this process's own, removed at exit.
    pub data_dir: PathBuf,
    /// When the process started: `setup_s` counts from here.
    pub started: Instant,
}

impl Config {
    /// Work units in one block of a workload that does `per_block`
    /// units per block at `RUN_SECONDS` untraced. The count follows
    /// `--seconds`, never the clock: both sides of a comparison do the
    /// same work.
    pub fn per_block(&self, per_block: usize) -> usize {
        let scaled = per_block as f64 * self.seconds / RUN_SECONDS;
        (scaled.round() as usize).max(1)
    }

    /// The blocks after the warm-up, in order.
    pub fn blocks(&self) -> Vec<Block> {
        if self.trace {
            [Block::Reference, Block::Traced].repeat(TRACED_PAIRS)
        } else {
            vec![Block::Timed; BLOCKS]
        }
    }

    /// Steps of a tracked run.
    pub fn steps(&self, steps: u64) -> u64 {
        if self.small {
            steps / 10
        } else {
            steps
        }
    }
}

/// Counts checked operations and keeps the first few failure messages.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one operation; an `Err` is a failed one.
    pub fn check<T>(&self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut errors = self.errors.lock().expect("tally lock");
                if errors.len() < 8 {
                    errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    /// A response that needed more than one attempt.
    pub fn note_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    pub fn errors(&self) -> Vec<String> {
        self.errors.lock().expect("tally lock").clone()
    }
}

/// What the reference kernel takes on the reference box when its
/// memory system is quiet. It only fixes the scale: times are reported
/// as `measured * REFERENCE_MS / kernel time measured beside them`, so
/// on a quiet machine the reported values are the measured ones.
pub const REFERENCE_MS: f64 = 2.1;
/// The kernel runs between operations once this much time has gone by
/// since its last run: about 2 % of a run.
const TICK_EVERY: Duration = Duration::from_millis(100);
/// A sample is corrected with the median of this many kernel runs
/// around it.
const TICK_WINDOW: usize = 7;

/// The reference kernel, in code of the benchmark's own that no change
/// to the program can touch. Half of it writes 4 000 JSON-like records
/// into a string and cuts the string into owned tokens: small
/// allocations, byte scanning and copying, what the program's parsers,
/// serialisers and indexes are made of. The other half is arithmetic in
/// registers.
///
/// Why it exists: the shared box the benchmark runs on changes the
/// speed of memory-bound code under the guest, by a half from one second
/// to the next and by as much between one hour and another, while
/// arithmetic does not move. Raw clock readings of one binary then
/// spread by up to a third inside a set of ten runs and move by a tenth
/// between two sets, which no bound the driver allows holds; the same
/// runs read against the kernel spread by a third of that (README.md,
/// "Why times are read against a reference kernel", has both columns).
/// The program's operations slow by about half of what the memory-bound
/// half does, hence the equal halves.
pub fn reference_kernel() -> Duration {
    let t0 = Instant::now();
    let mut text = String::new();
    for i in 0..4_000u32 {
        text.push_str(&format!("{{\"id\":\"ex:n{i}\",\"v\":{}}},", i * 37 % 1000));
    }
    let mut tokens: Vec<String> = Vec::new();
    let mut token = String::new();
    for ch in text.chars() {
        if matches!(ch, '"' | ',' | ':' | '{' | '}') {
            if !token.is_empty() {
                tokens.push(std::mem::take(&mut token));
            }
        } else {
            token.push(ch);
        }
    }
    std::hint::black_box(tokens.len());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..385_000u64 {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
    Query,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds since the phase's first sample.
    at: f64,
    ms: f64,
}

/// A block that has ended.
#[derive(Debug, Clone, Copy)]
struct Closed {
    units: f64,
    wall_s: f64,
    /// When the block was half over, on the clock of `Sample::at`.
    mid: f64,
}

/// The latency samples, block clock and reference-kernel runs of one
/// phase. A block's time is its wall time from `begin_block` to
/// `end_block`, less the kernel runs in it: everything the driver and
/// the servers do in between counts, so the workloads keep their output
/// checks for after `end_block`.
#[derive(Debug, Default)]
pub struct Timed {
    /// One list per [`Kind`].
    samples: [Vec<Sample>; 3],
    /// Reference-kernel runs, in time order.
    ticks: Vec<Sample>,
    blocks: Vec<Closed>,
    origin: Option<Instant>,
    block_start: Option<Instant>,
    last_tick: Option<Instant>,
    kernel_in_block: Duration,
}

impl Timed {
    fn now(&mut self) -> f64 {
        self.origin
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
    }

    pub fn begin_block(&mut self) {
        self.block_start = Some(Instant::now());
        self.kernel_in_block = Duration::ZERO;
    }

    pub fn sample(&mut self, kind: Kind, took: Duration) {
        let at = self.now();
        self.samples[kind as usize].push(Sample { at, ms: ms(took) });
    }

    /// Runs the reference kernel if one is due. The workloads call it
    /// between operations, never inside one.
    pub fn tick(&mut self) {
        if self.last_tick.is_none_or(|t| t.elapsed() >= TICK_EVERY) {
            let took = reference_kernel();
            self.kernel_in_block += took;
            let at = self.now();
            self.ticks.push(Sample { at, ms: ms(took) });
            self.last_tick = Some(Instant::now());
        }
    }

    /// Closes the block opened by `begin_block`, in which `units` work
    /// units were done.
    pub fn end_block(&mut self, units: f64) {
        let start = self.block_start.take().expect("begin_block was called");
        let wall_s = (start.elapsed() - self.kernel_in_block).as_secs_f64();
        let mid = self.now() - wall_s / 2.0;
        self.blocks.push(Closed { units, wall_s, mid });
    }

    /// The samples of `kind` as the clock read them.
    pub fn raw_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples[kind as usize].iter().map(|s| s.ms).collect()
    }

    /// The kernel's time around `at`: the median of the `TICK_WINDOW`
    /// runs nearest in order; `REFERENCE_MS` when it never ran (a run
    /// too short to correct).
    fn kernel_ms_at(&self, at: f64) -> f64 {
        if self.ticks.is_empty() {
            return REFERENCE_MS;
        }
        let next = self.ticks.partition_point(|t| t.at < at);
        let from = next.saturating_sub(TICK_WINDOW / 2);
        let to = (from + TICK_WINDOW).min(self.ticks.len());
        let from = to.saturating_sub(TICK_WINDOW);
        median(
            &self.ticks[from..to]
                .iter()
                .map(|t| t.ms)
                .collect::<Vec<_>>(),
        )
    }

    /// The samples of `kind` at the reference speed: each divided by
    /// what the kernel took around it, times `REFERENCE_MS`.
    pub fn corrected_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples[kind as usize]
            .iter()
            .map(|s| s.ms * REFERENCE_MS / self.kernel_ms_at(s.at))
            .collect()
    }

    /// Work units per second of each block, as the clock read them.
    pub fn raw_rates(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.units / b.wall_s).collect()
    }

    /// Work units per second of each block at the reference speed.
    pub fn corrected_rates(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.units / b.wall_s * self.kernel_ms_at(b.mid) / REFERENCE_MS)
            .collect()
    }

    /// The kernel's median time over the phase.
    pub fn kernel_ms(&self) -> f64 {
        match self.ticks.len() {
            0 => REFERENCE_MS,
            _ => median(&self.ticks.iter().map(|t| t.ms).collect::<Vec<_>>()),
        }
    }

    pub fn timed_seconds(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }

    /// How much longer this phase's operations took than `other`'s, in
    /// per cent, as the clock read them: the mean over the kinds both
    /// hold of the ratio of their medians. Kind by kind, so that a
    /// different mix of kinds between the phases does not read as a
    /// difference in speed.
    pub fn slower_than_pct(&self, other: &Timed) -> f64 {
        let ratios: Vec<f64> = [Kind::Write, Kind::Read, Kind::Query]
            .into_iter()
            .map(|kind| (self.raw_ms(kind), other.raw_ms(kind)))
            .filter(|(mine, theirs)| !mine.is_empty() && !theirs.is_empty())
            .map(|(mine, theirs)| median(&mine) / median(&theirs))
            .collect();
        match ratios.len() {
            0 => 0.0,
            n => 100.0 * (ratios.iter().sum::<f64>() / n as f64 - 1.0),
        }
    }
}

/// The clocks of one run: the warm-up block that ends set-up, the
/// blocks that are measured, and (traced run) the untraced blocks the
/// traced ones are compared with.
#[derive(Debug, Default)]
pub struct Clocks {
    pub warm: Timed,
    pub timed: Timed,
    pub reference: Timed,
}

impl Clocks {
    /// Turns the span recorder on or off for a block of kind `block`
    /// and returns the clock that block feeds.
    pub fn for_block(&mut self, block: Block, rec: &Recorder) -> &mut Timed {
        rec.set_enabled(block == Block::Traced);
        match block {
            Block::Reference => &mut self.reference,
            Block::Timed | Block::Traced => &mut self.timed,
        }
    }
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Metric name -> value; end-to-end names untraced, per-layer names
    /// traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind a median.
    pub samples: BTreeMap<&'static str, usize>,
    /// Human-readable lines: input digest, sizes, the self-time table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the median of `values` under `name` with its sample
    /// count.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        self.metrics.insert(name, median(values));
        self.samples.insert(name, values.len());
    }

    /// Sets per-layer metrics whose samples are spans of `rec`:
    /// `(metric, span name, factor from ms to the metric's unit)`.
    pub fn set_span_medians(&mut self, rec: &Recorder, metrics: &[(&'static str, &str, f64)]) {
        for (metric, span, scale) in metrics {
            let values: Vec<f64> = rec.durations_ms(span).iter().map(|v| v * scale).collect();
            self.set_median(metric, &values);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn take_tally(&mut self, tally: &Tally) {
        self.attempted += tally.attempted();
        self.failed += tally.failed();
        self.errors.extend(tally.errors());
    }

    /// The end-to-end metrics of an untraced run. Times and the rate are
    /// at the reference speed (see [`reference_kernel`]); the values the
    /// clock read are printed beside them. Set-up is corrected with the
    /// kernel runs of the warm-up block that ends it.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        clocks: &Clocks,
        stored_bytes: u64,
        user_bytes: u64,
    ) {
        let (warm, timed) = (&clocks.warm, &clocks.timed);
        self.set("setup_s", setup_s * REFERENCE_MS / warm.kernel_ms());
        self.set_median("work_per_s", &timed.corrected_rates());
        self.set_median("write_ms_p50", &timed.corrected_ms(Kind::Write));
        self.set(
            "stored_bytes_per_user_byte",
            stored_bytes as f64 / user_bytes.max(1) as f64,
        );
        self.set("peak_rss_mb", peak_rss_mb());
        self.note(format!(
            "timed phase: {:.2} s in {} blocks; stored {stored_bytes} B for {user_bytes} user B",
            timed.timed_seconds(),
            timed.blocks.len()
        ));
        self.note(format!(
            "as the clock read them: setup_s {setup_s:.4}, work_per_s {:.4}, write_ms_p50 {:.4}",
            median(&timed.raw_rates()),
            median(&timed.raw_ms(Kind::Write)),
        ));
        for (name, kind) in [("read", Kind::Read), ("query", Kind::Query)] {
            let samples = timed.raw_ms(kind);
            self.note(format!(
                "{name}_ms_p50 (not gated, see client.{name}_ms_p50), as the clock read it: {:.4} ms over {} samples",
                median(&samples),
                samples.len()
            ));
        }
        self.note(format!(
            "reference kernel: {:.4} ms over {} runs in the timed phase, {:.4} ms in the warm-up, {REFERENCE_MS} ms nominal",
            timed.kernel_ms(),
            timed.ticks.len(),
            warm.kernel_ms(),
        ));
    }

    /// The client-side diagnostics every traced run reports, as the
    /// clock read them: medians, tails and sample counts of the traced
    /// blocks, and what tracing cost against the untraced `reference`
    /// blocks of the same run.
    pub fn client_diagnostics(&mut self, timed: &Timed, tally: &Tally, reference: &Timed) {
        let (w, r, q) = (
            timed.raw_ms(Kind::Write),
            timed.raw_ms(Kind::Read),
            timed.raw_ms(Kind::Query),
        );
        self.set_median("client.read_ms_p50", &r);
        self.set_median("client.query_ms_p50", &q);
        self.set("client.write_ms_p99", percentile(&w, 99.0));
        self.set("client.read_ms_p99", percentile(&r, 99.0));
        self.set("client.query_ms_p99", percentile(&q, 99.0));
        self.set(
            "client.samples_min",
            w.len().min(r.len()).min(q.len()) as f64,
        );
        self.set(
            "client.retry_ratio",
            tally.retried() as f64 / tally.attempted().max(1) as f64,
        );
        self.set("reference.kernel_ms", timed.kernel_ms());
        self.set("trace.overhead_pct", timed.slower_than_pct(reference));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of everything under `path`, in bytes.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_dir() {
        std::fs::read_dir(path)
            .map(|rd| rd.flatten().map(|e| dir_bytes(&e.path())).sum())
            .unwrap_or(0)
    } else {
        meta.len()
    }
}

/// Prints the human-readable table of a run.
pub fn print_outcome(workload: &str, outcome: &Outcome, trace: bool) {
    println!(
        "{workload} ({}): {} ops attempted, {} failed",
        if trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for e in &outcome.errors {
        println!("  FAILED {e}");
    }
    for m in metrics::expected(trace) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        let samples = outcome
            .samples
            .get(m.name)
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {:<36} {value:>16.4} {}{samples}", m.name, m.unit);
    }
    for n in &outcome.notes {
        println!("  {n}");
    }
}

/// The one JSON object the driver reads, as the last line of standard
/// output. A per-layer metric the workload did not set reads 0 (a layer
/// it does not exercise); an end-to-end metric must be set and
/// positive.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let expected: &[Metric] = metrics::expected(trace);
    let mut fields = Vec::with_capacity(expected.len());
    for m in expected {
        let value = match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("{} is {v}", m.name)),
            None if trace => 0.0,
            None => return Err(format!("{} was not measured", m.name)),
        };
        if !trace && value <= 0.0 {
            return Err(format!("{} is {value}, not positive", m.name));
        }
        fields.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rates_are_units_over_block_wall_time_less_the_kernel() {
        let mut t = Timed::default();
        t.begin_block();
        t.sample(Kind::Write, Duration::from_millis(30));
        t.tick();
        std::thread::sleep(Duration::from_millis(20));
        t.end_block(100.0);
        t.begin_block();
        t.sample(Kind::Query, Duration::from_millis(5));
        t.tick();
        t.end_block(50.0);
        let rates = t.raw_rates();
        // 100 units in at least 20 ms of wall time, whatever the samples say.
        assert!(rates[0] <= 5_000.0 && rates[0] > 0.0, "{rates:?}");
        assert_eq!(rates.len(), 2);
        assert_eq!(t.raw_ms(Kind::Write), [30.0]);
        assert_eq!(t.raw_ms(Kind::Query), [5.0]);
        assert!(t.raw_ms(Kind::Read).is_empty());
        assert!(t.timed_seconds() >= 0.02);
        // The first tick ran the kernel, the second came too soon after.
        assert_eq!(t.ticks.len(), 1);
        assert!(
            t.blocks[0].wall_s < 0.02 + 0.5,
            "the kernel's time is taken out"
        );
    }

    #[test]
    fn times_scale_against_the_kernel_runs_around_them_and_rates_the_other_way() {
        let tick = |at: f64, ms: f64| Sample { at, ms };
        // The machine runs at half speed from the tenth second on.
        let ticks = (0..20)
            .map(|i| {
                let slow = if i < 10 { 1.0 } else { 2.0 };
                tick(i as f64, slow * REFERENCE_MS)
            })
            .collect();
        let mut t = Timed {
            ticks,
            ..Default::default()
        };
        t.samples[0] = vec![tick(2.5, 10.0), tick(17.5, 20.0)];
        t.blocks = vec![
            Closed {
                units: 100.0,
                wall_s: 1.0,
                mid: 2.5,
            },
            Closed {
                units: 100.0,
                wall_s: 2.0,
                mid: 17.5,
            },
        ];
        assert_eq!(t.corrected_ms(Kind::Write), vec![10.0, 10.0]);
        assert_eq!(t.corrected_rates(), vec![100.0, 100.0]);
        assert_eq!(t.raw_rates(), vec![100.0, 50.0]);
        // Without a kernel run nothing is corrected.
        t.ticks.clear();
        assert_eq!(t.corrected_ms(Kind::Write), vec![10.0, 20.0]);
        assert_eq!(t.kernel_ms(), REFERENCE_MS);
    }

    #[test]
    fn tracing_overhead_is_the_mean_ratio_of_medians_kind_by_kind() {
        let mut plain = Timed::default();
        let mut traced = Timed::default();
        for ms in [10, 10, 10] {
            plain.sample(Kind::Write, Duration::from_millis(ms));
            traced.sample(Kind::Write, Duration::from_millis(ms + 1));
        }
        plain.sample(Kind::Read, Duration::from_millis(4));
        traced.sample(Kind::Read, Duration::from_millis(5));
        // Queries only on one side: left out.
        traced.sample(Kind::Query, Duration::from_millis(500));
        let pct = traced.slower_than_pct(&plain);
        assert!(
            (pct - 100.0 * ((1.1 + 1.25) / 2.0 - 1.0)).abs() < 1e-9,
            "{pct}"
        );
    }

    #[test]
    fn op_counts_follow_seconds_and_a_traced_run_pairs_plain_and_traced_blocks() {
        let mut cfg = Config {
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            small: false,
            data_dir: PathBuf::new(),
            started: Instant::now(),
        };
        assert_eq!((cfg.per_block(240), cfg.steps(1_800)), (240, 1_800));
        assert_eq!(cfg.blocks(), vec![Block::Timed; 10]);
        cfg.trace = true;
        assert_eq!(cfg.per_block(240), 240);
        assert_eq!(
            cfg.blocks(),
            [
                Block::Reference,
                Block::Traced,
                Block::Reference,
                Block::Traced
            ]
        );
        cfg.seconds = 0.2;
        cfg.small = true;
        assert_eq!((cfg.per_block(240), cfg.steps(1_800)), (2, 180));
        assert_eq!(cfg.per_block(10), 1);
    }

    #[test]
    fn tally_counts_failures_and_the_result_line_reports_them() {
        let tally = Tally::default();
        assert_eq!(tally.check("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(tally.check::<()>("bad", Err("nope".into())), None);
        let mut out = Outcome::default();
        out.take_tally(&tally);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
        let line = result_line(&out, true).unwrap();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(
            result_line(&out, false).is_err(),
            "end-to-end metrics missing"
        );
    }
}
