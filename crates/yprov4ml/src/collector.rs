//! The log collector: folds the record stream into a [`RunState`].
//!
//! Logging must cost the training loop almost nothing (the paper's
//! "minimal overhead" requirement). Folding one record is a map lookup
//! and a push, cheaper than handing it to another thread, so
//! [`Collector::log`] and [`Collector::log_many`] fold on the caller's
//! thread under one lock. Nothing is staged or queued: a record is in
//! the state when `log` returns, so [`Collector::snapshot`] is a clone
//! and [`Collector::close`] takes the state. Concurrent producers take
//! turns on the lock, so each producer's records fold in the order it
//! logged them.
//!
//! After `close` the collector holds no state and every call answers
//! [`ProvMLError::CollectorGone`] (the journal, written before
//! [`Collector::log`], is the crash story).

use crate::error::ProvMLError;
use crate::lock;
use crate::model::{ArtifactMeta, Direction, LogRecord, ParamValue};
use metric_store::series::{MetricPoint, MetricSeries};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregated state of one run, built from the record stream.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunState {
    /// Parameters (later same-name records override earlier ones).
    pub params: BTreeMap<String, (ParamValue, Direction)>,
    /// Metric series keyed by `(metric name, context name)`.
    pub metrics: BTreeMap<(String, String), MetricSeries>,
    /// Logged artifacts.
    pub artifacts: Vec<ArtifactMeta>,
    /// Observed context spans: name → (first start µs, last end µs).
    pub context_spans: BTreeMap<String, (Option<i64>, Option<i64>)>,
    /// Highest epoch seen per context.
    pub max_epoch: BTreeMap<String, u32>,
    /// Total metric samples folded in.
    pub metric_samples: usize,
}

impl RunState {
    /// Folds one record into the state.
    pub fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::Param {
                name,
                value,
                direction,
            } => {
                self.params.insert(name, (value, direction));
            }
            LogRecord::Metric {
                name,
                context,
                step,
                epoch,
                time_us,
                value,
            } => {
                // The record's own strings key the map; clones happen
                // only on first sight of a series / context, not per
                // sample.
                let key = (name, context.name());
                let series = self
                    .metrics
                    .entry(key)
                    .or_insert_with_key(|k| MetricSeries::new(k.0.clone(), k.1.clone()));
                series.push(MetricPoint {
                    step,
                    epoch,
                    time_us,
                    value,
                });
                if let Some(slot) = self.max_epoch.get_mut(&series.context) {
                    *slot = (*slot).max(epoch);
                } else {
                    self.max_epoch.insert(series.context.clone(), epoch);
                }
                self.metric_samples += 1;
            }
            LogRecord::Artifact(meta) => self.artifacts.push(meta),
            LogRecord::ContextStart { context, time_us } => {
                let span = self
                    .context_spans
                    .entry(context.name())
                    .or_insert((None, None));
                if span.0.is_none() {
                    span.0 = Some(time_us);
                }
            }
            LogRecord::ContextEnd { context, time_us } => {
                let span = self
                    .context_spans
                    .entry(context.name())
                    .or_insert((None, None));
                span.1 = Some(time_us);
            }
        }
    }

    /// Names of contexts that logged anything.
    pub fn context_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .metrics
            .keys()
            .map(|(_, c)| c.clone())
            .chain(self.context_spans.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

/// The collector: accepts records from any thread and folds them into a
/// [`RunState`]. Shared behind an `Arc`; all methods take `&self`.
pub struct Collector {
    /// `None` once closed.
    state: Mutex<Option<RunState>>,
    accepted: AtomicUsize,
}

impl Collector {
    /// An open collector with an empty state.
    pub fn new() -> Arc<Self> {
        Collector::from_state(RunState::default())
    }

    /// An open collector that folds on from `state` (a resumed run's
    /// journal replay).
    pub(crate) fn from_state(state: RunState) -> Arc<Self> {
        Arc::new(Collector {
            state: Mutex::new(Some(state)),
            accepted: AtomicUsize::new(0),
        })
    }

    /// [`Collector::new`] under its old name, which
    /// `benchmark/src/workloads/track_run.rs` still calls; ROADMAP item
    /// 1, the benchmark-only change, moves that caller to `new` and
    /// removes this alias.
    #[doc(hidden)]
    pub fn sharded(_threads: usize) -> Result<Arc<Self>, ProvMLError> {
        Ok(Collector::new())
    }

    /// Runs `f` on the open state, or answers `CollectorGone`.
    fn with_state<T>(&self, f: impl FnOnce(&mut RunState) -> T) -> Result<T, ProvMLError> {
        lock(&self.state)
            .as_mut()
            .map(f)
            .ok_or(ProvMLError::CollectorGone)
    }

    /// Folds one record into the state.
    pub fn log(&self, record: LogRecord) -> Result<(), ProvMLError> {
        let _trace = obs::trace::span("collector_log");
        self.with_state(|state| state.apply(record))?;
        // Counted only after a successful fold: a record rejected with
        // `CollectorGone` was never accepted.
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Folds a batch of records under one lock, in order.
    pub fn log_many(&self, records: Vec<LogRecord>) -> Result<(), ProvMLError> {
        let count = records.len();
        if count == 0 {
            return Ok(());
        }
        let mut trace = obs::trace::span("collector_log");
        if obs::trace::is_enabled() {
            trace.annotate("records", count.to_string());
        }
        self.with_state(|state| records.into_iter().for_each(|r| state.apply(r)))?;
        self.accepted.fetch_add(count, Ordering::Relaxed);
        Ok(())
    }

    /// A point-in-time clone of the folded state, without closing the
    /// collector: the delta-streaming path reads cumulative snapshots
    /// here while the run keeps logging. It holds every record whose
    /// `log` returned before this call began.
    pub fn snapshot(&self) -> Result<RunState, ProvMLError> {
        self.with_state(|state| state.clone())
    }

    /// Number of records accepted (folded) so far.
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Closes the collector and returns the final state.
    ///
    /// The first call wins; later calls, and any `log` after close,
    /// report [`ProvMLError::CollectorGone`].
    pub fn close(&self) -> Result<RunState, ProvMLError> {
        lock(&self.state).take().ok_or(ProvMLError::CollectorGone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Context;

    fn metric(name: &str, step: u64, value: f64) -> LogRecord {
        LogRecord::Metric {
            name: name.into(),
            context: Context::Training,
            step,
            epoch: (step / 10) as u32,
            time_us: step as i64,
            value,
        }
    }

    /// splitmix64: the tests' seeded source of interleavings.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// `n` seeded records: metrics over seven series in three contexts
    /// and, one time in five, a parameter (three names, so overrides
    /// matter), an artifact or a context boundary.
    fn mixed_records(seed: u64, n: usize) -> Vec<LogRecord> {
        let mut rng = Rng(seed);
        let context =
            |i: u64| Context::from_name(["training", "validation", "testing"][i as usize]);
        (0..n as u64)
            .map(|i| match rng.below(20) {
                0 => LogRecord::Param {
                    name: format!("p{}", rng.below(3)),
                    value: ParamValue::Int(i as i64),
                    direction: Direction::Input,
                },
                1 => LogRecord::Artifact(ArtifactMeta {
                    name: format!("a{i}"),
                    stored_path: format!("artifacts/a{i}").into(),
                    sha256: String::new(),
                    bytes: i,
                    direction: Direction::Output,
                    context: Some(context(rng.below(3))),
                    logged_at_us: i as i64,
                }),
                2 => LogRecord::ContextStart {
                    context: context(rng.below(3)),
                    time_us: i as i64,
                },
                3 => LogRecord::ContextEnd {
                    context: context(rng.below(3)),
                    time_us: i as i64,
                },
                _ => {
                    let series = rng.below(7);
                    LogRecord::Metric {
                        name: format!("m{series}"),
                        context: context(series % 3),
                        step: i,
                        epoch: (i / 50) as u32,
                        time_us: i as i64,
                        value: i as f64,
                    }
                }
            })
            .collect()
    }

    /// The plain fold of `records`: what the collector must hold.
    fn fold(records: &[LogRecord]) -> RunState {
        let mut state = RunState::default();
        for r in records {
            state.apply(r.clone());
        }
        state
    }

    /// Submits `records` through a seeded interleaving of `log`,
    /// `log_many` and `snapshot` (`snapshots: false` leaves only `log`).
    /// Every snapshot, the one before `close` included, must be the
    /// plain fold of the records submitted before it.
    fn check_against_the_plain_fold(records: &[LogRecord], seed: u64, snapshots: bool) {
        let collector = Collector::new();
        let mut rng = Rng(seed);
        let mut reference = RunState::default();
        let mut rest = records;
        while !rest.is_empty() {
            let op = if snapshots { rng.below(300) } else { u64::MAX };
            let take = match op {
                0..=2 => {
                    assert_eq!(collector.snapshot().unwrap(), reference);
                    0
                }
                3..=8 => {
                    let take = (rng.below(40) as usize).min(rest.len());
                    collector.log_many(rest[..take].to_vec()).unwrap();
                    take
                }
                _ => {
                    collector.log(rest[0].clone()).unwrap();
                    1
                }
            };
            let (submitted, tail) = rest.split_at(take);
            for r in submitted {
                reference.apply(r.clone());
            }
            rest = tail;
        }
        assert_eq!(collector.accepted(), records.len());
        assert_eq!(collector.snapshot().unwrap(), reference);
        assert_eq!(collector.close().unwrap(), reference);
    }

    #[test]
    fn every_kind_reaches_the_synchronous_state_at_every_batch_boundary() {
        // A single record, a short run and several hundred.
        for len in [1, 255, 256, 257, 775] {
            let records = mixed_records(len as u64, len);
            check_against_the_plain_fold(&records, 0, false);
            for seed in 1..=6 {
                check_against_the_plain_fold(&records, seed, true);
            }
        }
    }

    #[test]
    fn concurrent_producers_keep_their_order_on_own_and_shared_series() {
        const PER_PRODUCER: u64 = 775;
        let collector = Collector::new();
        let start = Arc::new(std::sync::Barrier::new(8));
        let producers: Vec<_> = (0..8u64)
            .map(|rank| {
                let (c, start) = (Arc::clone(&collector), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for step in 0..PER_PRODUCER {
                        // The shared series tells producers apart
                        // by value.
                        c.log(metric(&format!("rank{rank}"), step, 0.0)).unwrap();
                        c.log(metric("shared", step, rank as f64)).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let state = collector.close().unwrap();
        assert_eq!(state.metric_samples as u64, 16 * PER_PRODUCER);
        let shared = &state.metrics[&("shared".to_string(), "training".to_string())];
        for rank in 0..8u64 {
            let own = &state.metrics[&(format!("rank{rank}"), "training".to_string())];
            assert!(own.points.iter().map(|p| p.step).eq(0..PER_PRODUCER));
            let in_shared = shared
                .points
                .iter()
                .filter(|p| p.value == rank as f64)
                .map(|p| p.step);
            assert!(in_shared.eq(0..PER_PRODUCER), "producer {rank} reordered");
        }
    }

    #[test]
    fn sync_collector_folds_records() {
        let c = Collector::new();
        c.log(LogRecord::Param {
            name: "lr".into(),
            value: ParamValue::Float(0.001),
            direction: Direction::Input,
        })
        .unwrap();
        for i in 0..100 {
            c.log(metric("loss", i, 1.0 / (i + 1) as f64)).unwrap();
        }
        let state = c.close().unwrap();
        assert_eq!(state.params.len(), 1);
        assert_eq!(state.metric_samples, 100);
        let series = &state.metrics[&("loss".to_string(), "training".to_string())];
        assert_eq!(series.len(), 100);
        assert_eq!(state.max_epoch["training"], 9);
    }

    #[test]
    fn buffered_collector_reaches_same_state_as_sync() {
        // The name predates the one collector: it is now held to the
        // plain fold of the same records.
        let records: Vec<LogRecord> = (0..1000).map(|i| metric("loss", i, i as f64)).collect();
        let c = Collector::new();
        for r in &records {
            c.log(r.clone()).unwrap();
        }
        assert_eq!(c.close().unwrap(), fold(&records));
    }

    #[test]
    fn flush_makes_submissions_visible() {
        // Nothing is staged: a record is folded when `log` returns, so
        // no flush comes between the logs and the snapshot.
        let c = Collector::new();
        for i in 0..500 {
            c.log(metric("m", i, 0.0)).unwrap();
            assert_eq!(c.snapshot().unwrap().metric_samples, i as usize + 1);
        }
        assert_eq!(c.accepted(), 500);
        let state = c.close().unwrap();
        assert_eq!(state.metric_samples, 500);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let c = Collector::new();
        let mut handles = Vec::new();
        for rank in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.log(metric(&format!("rank{rank}"), i, i as f64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let state = c.close().unwrap();
        assert_eq!(state.metric_samples, 8000);
        for rank in 0..8 {
            let s = &state.metrics[&(format!("rank{rank}"), "training".to_string())];
            assert_eq!(s.len(), 1000);
            // Per-producer order is preserved by the lock.
            for (i, p) in s.points.iter().enumerate() {
                assert_eq!(p.step, i as u64);
            }
        }
    }

    #[test]
    fn snapshot_is_cumulative_and_leaves_the_collector_live() {
        let c = Collector::new();
        for i in 0..100 {
            c.log(metric(&format!("m{}", i % 5), i, i as f64)).unwrap();
        }
        let early = c.snapshot().unwrap();
        assert_eq!(early.metric_samples, 100);
        for i in 100..250 {
            c.log(metric(&format!("m{}", i % 5), i, i as f64)).unwrap();
        }
        let late = c.snapshot().unwrap();
        assert_eq!(late.metric_samples, 250);
        // The snapshot never drained anything: close sees it all.
        assert_eq!(c.close().unwrap(), late);
    }

    #[test]
    fn double_close_errors() {
        let c = Collector::new();
        c.log(metric("m", 0, 1.0)).unwrap();
        assert!(c.close().is_ok());
        assert!(matches!(c.close(), Err(ProvMLError::CollectorGone)));
        assert!(matches!(
            c.log(metric("m", 1, 1.0)),
            Err(ProvMLError::CollectorGone)
        ));
        assert!(matches!(c.snapshot(), Err(ProvMLError::CollectorGone)));
    }

    #[test]
    fn context_spans_recorded() {
        let c = Collector::new();
        c.log(LogRecord::ContextStart {
            context: Context::Training,
            time_us: 100,
        })
        .unwrap();
        c.log(LogRecord::ContextEnd {
            context: Context::Training,
            time_us: 900,
        })
        .unwrap();
        let state = c.close().unwrap();
        assert_eq!(state.context_spans["training"], (Some(100), Some(900)));
        assert_eq!(state.context_names(), vec!["training"]);
    }

    #[test]
    fn log_many_reaches_same_state_as_individual_logs() {
        let records: Vec<LogRecord> = (0..300)
            .flat_map(|i| {
                ["loss", "accuracy", "power"]
                    .into_iter()
                    .map(move |m| metric(m, i, i as f64))
            })
            .collect();
        let collector = Collector::new();
        // The first few go through `log`: the batch must fold behind them.
        let (single, batch) = records.split_at(10);
        for r in single {
            collector.log(r.clone()).unwrap();
        }
        collector.log_many(batch.to_vec()).unwrap();
        collector.log_many(Vec::new()).unwrap();
        assert_eq!(collector.accepted(), records.len());
        assert_eq!(collector.close().unwrap(), fold(&records));
    }

    #[test]
    fn rejected_records_are_not_counted_as_accepted() {
        let c = Collector::new();
        for i in 0..9 {
            c.log(metric(&format!("m{}", i % 3), i, 1.0)).unwrap();
        }
        assert_eq!(c.close().unwrap().metric_samples, 9);
        for name in ["m0", "m1", "m2"] {
            assert!(matches!(
                c.log(metric(name, 9, 1.0)),
                Err(ProvMLError::CollectorGone)
            ));
            assert!(matches!(
                c.log_many(vec![metric(name, 10, 1.0)]),
                Err(ProvMLError::CollectorGone)
            ));
        }
        assert_eq!(c.accepted(), 9, "rejected records must not count");
    }

    #[test]
    fn param_override_keeps_latest() {
        let c = Collector::new();
        for v in [1.0, 2.0, 3.0] {
            c.log(LogRecord::Param {
                name: "lr".into(),
                value: ParamValue::Float(v),
                direction: Direction::Input,
            })
            .unwrap();
        }
        let state = c.close().unwrap();
        assert_eq!(state.params["lr"].0, ParamValue::Float(3.0));
    }
}
