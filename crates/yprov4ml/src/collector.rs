//! The concurrent log collector.
//!
//! Logging must never stall the training loop (the paper's "minimal
//! overhead" requirement), so the default collector stages records in a
//! small buffer and hands them, `BATCH` (256) at a time, over an
//! unbounded channel to a background thread that folds them into the
//! run state. A producer slower than the fold (any real training loop)
//! lets the folding thread park, and waking it costs more than the fold
//! itself; one hand-off per batch pays that wake once per 256 records.
//! A synchronous mode (mutex around the state) is the reference fold
//! the tests compare the others against; the overhead benchmark (E7)
//! compares the two.
//!
//! For high metric volumes the fold itself becomes the bottleneck, so a
//! third mode shards the fold across N background threads keyed by a
//! stable hash of the metric name ([`Collector::sharded`]): a metric
//! series never spans shards, every non-metric record routes to shard 0,
//! and [`Collector::close`] merges the shard states in shard order — a
//! deterministic reduction that reproduces the single-thread state for
//! any workload whose per-series record order is deterministic.
//! [`Collector::log_many`] hands a caller's own batch over in one hop.
//!
//! Staged records are invisible to the folding thread, and nothing but
//! [`Collector::flush`], [`Collector::snapshot`] and [`Collector::close`]
//! ever reads the folded state; each of those drains the staging buffer
//! first, so a batch that fills slowly needs no timer. A collector
//! dropped without `close` loses its staged records exactly as it loses
//! queued ones (the journal, written before [`Collector::log`], is the
//! crash story).

use crate::crc32::crc32;
use crate::error::ProvMLError;
use crate::lock;
use crate::model::{ArtifactMeta, Direction, LogRecord, ParamValue};
use metric_store::series::{MetricPoint, MetricSeries};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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

    /// Merges another state into this one, consuming it — the reduction
    /// step of the sharded collector's `close`.
    ///
    /// Same-key metric series concatenate (`other` after `self`; shards
    /// key by metric name, so in sharded use the key sets are disjoint
    /// and this never happens); params keep `other`'s value on
    /// collision, preserving the last-write-wins rule when all params
    /// route to one shard; epochs merge by max; context spans keep the
    /// earliest start and the latest observed end.
    pub fn merge(&mut self, other: RunState) {
        self.params.extend(other.params);
        for (key, series) in other.metrics {
            match self.metrics.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(series);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().points.extend(series.points);
                }
            }
        }
        self.artifacts.extend(other.artifacts);
        for (name, (start, end)) in other.context_spans {
            let span = self.context_spans.entry(name).or_insert((None, None));
            if span.0.is_none() {
                span.0 = start;
            }
            if end.is_some() {
                span.1 = end;
            }
        }
        for (name, epoch) in other.max_epoch {
            let slot = self.max_epoch.entry(name).or_insert(0);
            *slot = (*slot).max(epoch);
        }
        self.metric_samples += other.metric_samples;
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

enum Msg {
    /// The one message that carries records: a full staging buffer, its
    /// remainder ahead of a barrier, or a `log_many` batch.
    Batch(Vec<LogRecord>),
    Flush(Sender<()>),
    /// Ships a clone of the current state back without disturbing the
    /// fold — the live-streaming path's read point.
    Snapshot(Sender<RunState>),
    /// Final message: fold nothing more, ship the state back and exit.
    Shutdown(Sender<RunState>),
}

/// Records staged per hand-off (~25 KB of [`LogRecord`]s): large enough
/// that the folding thread's wake-up disappears from the per-record
/// cost, small enough that a barrier finds little left to drain.
const BATCH: usize = 256;

/// The producer's end of one folding thread: its channel and the
/// staging buffer in front of it.
struct Shard {
    tx: Sender<Msg>,
    /// `None` once closed. Every send happens under this lock, so the
    /// lock order is the order the folding thread sees.
    staged: Mutex<Option<Vec<LogRecord>>>,
}

impl Shard {
    fn new(tx: Sender<Msg>) -> Shard {
        Shard {
            tx,
            staged: Mutex::new(Some(Vec::with_capacity(BATCH))),
        }
    }

    fn send(&self, msg: Msg) -> Result<(), ProvMLError> {
        self.tx.send(msg).map_err(|_| ProvMLError::CollectorGone)
    }

    /// Hands over whatever is staged.
    fn send_staged(&self, staged: &mut Vec<LogRecord>) -> Result<(), ProvMLError> {
        if staged.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(staged, Vec::with_capacity(BATCH));
        self.send(Msg::Batch(batch))
    }

    /// Stages one record; a full buffer goes out as one message.
    fn push(&self, record: LogRecord) -> Result<(), ProvMLError> {
        let mut guard = lock(&self.staged);
        let staged = guard.as_mut().ok_or(ProvMLError::CollectorGone)?;
        staged.push(record);
        if staged.len() >= BATCH {
            self.send_staged(staged)?;
        }
        Ok(())
    }

    /// Hands over the staged records, then `msg` behind them: a caller's
    /// own batch, or a barrier that must see everything logged before it.
    fn send_behind_staged(&self, msg: Msg) -> Result<(), ProvMLError> {
        let mut guard = lock(&self.staged);
        let staged = guard.as_mut().ok_or(ProvMLError::CollectorGone)?;
        self.send_staged(staged)?;
        self.send(msg)
    }

    /// Closes the staging buffer for good and asks the folding thread
    /// for its final state, behind whatever was still staged.
    fn shutdown(&self, out: Sender<RunState>) -> Result<(), ProvMLError> {
        let mut guard = lock(&self.staged);
        let staged = guard.take().ok_or(ProvMLError::CollectorGone)?;
        if !staged.is_empty() {
            self.send(Msg::Batch(staged))?;
        }
        self.send(Msg::Shutdown(out))
    }
}

enum Inner {
    Sync(Mutex<RunState>),
    /// N folding threads (one in buffered mode); metric records route by
    /// a stable hash of the metric name, everything else to shard 0.
    Sharded {
        shards: Vec<Shard>,
        handles: Mutex<Option<Vec<std::thread::JoinHandle<()>>>>,
    },
}

/// The drain loop every folding thread runs (buffered and sharded).
fn fold_loop(rx: Receiver<Msg>) {
    // Fold time is tracked per hand-off, not per blocking recv, so the
    // histogram reflects work rather than idle waiting.
    let fold = obs::global().histogram("yprov4ml_collector_fold_seconds");
    let mut state = RunState::default();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(records) => {
                let mut trace = obs::trace::span("collector_fold");
                if obs::trace::is_enabled() {
                    trace.annotate("records", records.len().to_string());
                }
                fold.time(|| {
                    for r in records {
                        state.apply(r);
                    }
                })
            }
            Msg::Flush(ack) => {
                let _ = ack.send(());
            }
            Msg::Snapshot(out) => {
                let _ = out.send(state.clone());
            }
            Msg::Shutdown(out) => {
                let _ = out.send(std::mem::take(&mut state));
                return;
            }
        }
    }
}

/// Which shard a record folds on. Metric records spread by name so one
/// series never spans shards (keeping per-series order intact); all
/// state with cross-record ordering semantics (param overrides,
/// artifact order, context spans) stays on shard 0.
fn shard_index(record: &LogRecord, shards: usize) -> usize {
    match record {
        LogRecord::Metric { name, .. } if shards > 1 => crc32(name.as_bytes()) as usize % shards,
        _ => 0,
    }
}

/// The collector: accepts records from any thread and folds them into a
/// [`RunState`]. Shared behind an `Arc`; all methods take `&self`.
pub struct Collector {
    inner: Inner,
    accepted: AtomicUsize,
    /// Submit-side latency (inline fold in sync mode, channel send
    /// otherwise) — the tracker cost the training loop actually feels.
    enqueue: Arc<obs::Histogram>,
}

fn enqueue_histogram() -> Arc<obs::Histogram> {
    obs::global().histogram("yprov4ml_collector_enqueue_seconds")
}

impl Collector {
    /// A synchronous collector (records folded inline under a mutex).
    pub fn synchronous() -> Arc<Self> {
        Arc::new(Collector {
            inner: Inner::Sync(Mutex::new(RunState::default())),
            accepted: AtomicUsize::new(0),
            enqueue: enqueue_histogram(),
        })
    }

    /// A buffered collector: one background folding thread.
    ///
    /// Errors if the OS refuses to spawn the thread (resource
    /// exhaustion) — a library should report that, not panic.
    pub fn buffered() -> Result<Arc<Self>, ProvMLError> {
        Collector::sharded(1)
    }

    /// A collector folding on `shards` background threads, for runs
    /// whose metric volume outgrows a single folding thread.
    ///
    /// `shards <= 1` is [`Collector::buffered`]. Determinism: records
    /// for one metric always fold on the same shard (stable name hash)
    /// and `close` merges shard states in shard order, so the final
    /// [`RunState`] equals the buffered collector's whenever the
    /// per-series submission order is deterministic — concurrent
    /// producers logging disjoint metrics included.
    pub fn sharded(shards: usize) -> Result<Arc<Self>, ProvMLError> {
        let shards = shards.max(1);
        let mut folders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel::<Msg>();
            let name = match shards {
                1 => "yprov4ml-collector".to_string(),
                _ => format!("yprov4ml-collector-{i}"),
            };
            // On spawn failure the already-started shards exit on their
            // own once `folders` drops and their channels disconnect.
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || fold_loop(rx))?;
            folders.push(Shard::new(tx));
            handles.push(handle);
        }
        Ok(Arc::new(Collector {
            inner: Inner::Sharded {
                shards: folders,
                handles: Mutex::new(Some(handles)),
            },
            accepted: AtomicUsize::new(0),
            enqueue: enqueue_histogram(),
        }))
    }

    /// Submits a record. Non-blocking in buffered and sharded modes:
    /// the record is staged, and every 256th call (`BATCH`) hands the
    /// staged records to the folding thread.
    pub fn log(&self, record: LogRecord) -> Result<(), ProvMLError> {
        let _span = self.enqueue.start_span();
        let _trace = obs::trace::span("collector_enqueue");
        match &self.inner {
            Inner::Sync(state) => lock(state).apply(record),
            Inner::Sharded { shards, .. } => {
                shards[shard_index(&record, shards.len())].push(record)?
            }
        }
        // Counted only after a successful submit: a record rejected
        // with `CollectorGone` was never accepted.
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submits a batch of records with one hand-off per shard, behind
    /// whatever [`Collector::log`] had staged there.
    pub fn log_many(&self, records: Vec<LogRecord>) -> Result<(), ProvMLError> {
        let count = records.len();
        if count == 0 {
            return Ok(());
        }
        let _span = self.enqueue.start_span();
        let mut trace = obs::trace::span("collector_enqueue");
        if obs::trace::is_enabled() {
            trace.annotate("records", count.to_string());
        }
        match &self.inner {
            Inner::Sync(state) => {
                let mut state = lock(state);
                for r in records {
                    state.apply(r);
                }
            }
            Inner::Sharded { shards, .. } => {
                let mut per_shard: Vec<Vec<LogRecord>> =
                    (0..shards.len()).map(|_| Vec::new()).collect();
                for r in records {
                    per_shard[shard_index(&r, shards.len())].push(r);
                }
                for (shard, batch) in shards.iter().zip(per_shard) {
                    if batch.is_empty() {
                        continue;
                    }
                    shard.send_behind_staged(Msg::Batch(batch))?;
                }
            }
        }
        self.accepted.fetch_add(count, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks until all records submitted so far are folded in.
    pub fn flush(&self) -> Result<(), ProvMLError> {
        match &self.inner {
            Inner::Sync(_) => Ok(()),
            Inner::Sharded { shards, .. } => {
                // Fan the barrier out first, then collect every ack.
                let mut acks = Vec::with_capacity(shards.len());
                for shard in shards {
                    let (ack_tx, ack_rx) = channel();
                    shard.send_behind_staged(Msg::Flush(ack_tx))?;
                    acks.push(ack_rx);
                }
                for ack in acks {
                    ack.recv().map_err(|_| ProvMLError::CollectorGone)?;
                }
                Ok(())
            }
        }
    }

    /// A point-in-time clone of the folded state, without closing the
    /// collector — the delta-streaming path reads cumulative snapshots
    /// here while the run keeps logging.
    ///
    /// The request travels behind the staged and queued records of
    /// every shard, so it is its own barrier: the snapshot holds every
    /// record whose `log` returned before this call began, and no
    /// [`Collector::flush`] is needed first. In sharded mode the
    /// per-shard snapshots merge in shard order, the same deterministic
    /// reduction `close` uses, so with no producer running concurrently
    /// a snapshot equals what `close` would have returned at that
    /// instant.
    pub fn snapshot(&self) -> Result<RunState, ProvMLError> {
        match &self.inner {
            Inner::Sync(state) => Ok(lock(state).clone()),
            Inner::Sharded { shards, .. } => {
                let mut outs = Vec::with_capacity(shards.len());
                for shard in shards {
                    let (out_tx, out_rx) = channel();
                    shard.send_behind_staged(Msg::Snapshot(out_tx))?;
                    outs.push(out_rx);
                }
                let mut state = RunState::default();
                for out in outs {
                    let shard_state = out.recv().map_err(|_| ProvMLError::CollectorGone)?;
                    state.merge(shard_state);
                }
                Ok(state)
            }
        }
    }

    /// Number of records accepted (submitted) so far.
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Shuts the collector down and returns the final state, staged
    /// records included.
    ///
    /// Idempotence: the first call wins; later calls (or logging after
    /// close, in buffered mode) report [`ProvMLError::CollectorGone`].
    pub fn close(&self) -> Result<RunState, ProvMLError> {
        match &self.inner {
            Inner::Sync(state) => Ok(std::mem::take(&mut *lock(state))),
            Inner::Sharded { shards, handles } => {
                let joined = lock(handles).take().ok_or(ProvMLError::CollectorGone)?;
                // All shards drain concurrently; the merge then runs in
                // shard order, which makes the reduction deterministic.
                let mut outs = Vec::with_capacity(shards.len());
                for shard in shards {
                    let (out_tx, out_rx) = channel();
                    shard.shutdown(out_tx)?;
                    outs.push(out_rx);
                }
                let merge = obs::global().histogram("yprov4ml_collector_merge_seconds");
                let mut state = RunState::default();
                for (shard, out) in outs.into_iter().enumerate() {
                    let shard_state = out.recv().map_err(|_| ProvMLError::CollectorGone)?;
                    let mut trace = obs::trace::span("collector_shard_merge");
                    if obs::trace::is_enabled() {
                        trace.annotate("shard", shard.to_string());
                    }
                    merge.time(|| state.merge(shard_state));
                }
                for h in joined {
                    h.join().map_err(|_| ProvMLError::CollectorGone)?;
                }
                Ok(state)
            }
        }
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

    fn all_kinds() -> [Arc<Collector>; 3] {
        [
            Collector::synchronous(),
            Collector::buffered().unwrap(),
            Collector::sharded(4).unwrap(),
        ]
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

    /// Submits `records` through a seeded interleaving of `log`,
    /// `log_many`, `flush` and `snapshot` (`barriers: false` leaves only
    /// `log`, so the staging buffer fills and empties exactly at its
    /// bound). Every snapshot, the one before `close` included, must be
    /// the synchronous fold of the records submitted before it.
    fn check_against_the_synchronous_fold(
        collector: &Collector,
        records: &[LogRecord],
        seed: u64,
        barriers: bool,
    ) {
        let mut rng = Rng(seed);
        let mut reference = RunState::default();
        let mut rest = records;
        while !rest.is_empty() {
            // Barriers are rare enough for whole batches to fill
            // between them, frequent enough to cut some short.
            let op = if barriers { rng.below(300) } else { u64::MAX };
            let take = match op {
                0 => {
                    collector.flush().unwrap();
                    0
                }
                1 | 2 => {
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
        for len in [BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 7] {
            let records = mixed_records(len as u64, len);
            for collector in all_kinds() {
                check_against_the_synchronous_fold(&collector, &records, 0, false);
            }
            for seed in 1..=6 {
                for collector in all_kinds() {
                    check_against_the_synchronous_fold(&collector, &records, seed, true);
                }
            }
        }
    }

    #[test]
    fn concurrent_producers_keep_their_order_on_own_and_shared_series() {
        const PER_PRODUCER: u64 = 3 * BATCH as u64 + 7;
        for collector in [
            Collector::buffered().unwrap(),
            Collector::sharded(4).unwrap(),
        ] {
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
    }

    #[test]
    fn sync_collector_folds_records() {
        let c = Collector::synchronous();
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
        let records: Vec<LogRecord> = (0..1000).map(|i| metric("loss", i, i as f64)).collect();
        let sync = Collector::synchronous();
        let buf = Collector::buffered().unwrap();
        for r in &records {
            sync.log(r.clone()).unwrap();
            buf.log(r.clone()).unwrap();
        }
        assert_eq!(sync.close().unwrap(), buf.close().unwrap());
    }

    #[test]
    fn flush_makes_submissions_visible() {
        let c = Collector::buffered().unwrap();
        for i in 0..500 {
            c.log(metric("m", i, 0.0)).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(c.accepted(), 500);
        let state = c.close().unwrap();
        assert_eq!(state.metric_samples, 500);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let c = Collector::buffered().unwrap();
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
            // Per-producer order is preserved by the channel.
            for (i, p) in s.points.iter().enumerate() {
                assert_eq!(p.step, i as u64);
            }
        }
    }

    #[test]
    fn snapshot_is_cumulative_and_leaves_the_collector_live() {
        for c in [
            Collector::synchronous(),
            Collector::buffered().unwrap(),
            Collector::sharded(3).unwrap(),
        ] {
            for i in 0..100 {
                c.log(metric(&format!("m{}", i % 5), i, i as f64)).unwrap();
            }
            c.flush().unwrap();
            let early = c.snapshot().unwrap();
            assert_eq!(early.metric_samples, 100);
            for i in 100..250 {
                c.log(metric(&format!("m{}", i % 5), i, i as f64)).unwrap();
            }
            c.flush().unwrap();
            let late = c.snapshot().unwrap();
            assert_eq!(late.metric_samples, 250);
            // The snapshot never drained anything: close sees it all.
            assert_eq!(c.close().unwrap(), late);
        }
    }

    #[test]
    fn double_close_errors() {
        let c = Collector::buffered().unwrap();
        c.log(metric("m", 0, 1.0)).unwrap();
        assert!(c.close().is_ok());
        assert!(matches!(c.close(), Err(ProvMLError::CollectorGone)));
        assert!(matches!(
            c.log(metric("m", 1, 1.0)),
            Err(ProvMLError::CollectorGone)
        ));
    }

    #[test]
    fn context_spans_recorded() {
        let c = Collector::synchronous();
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
    fn sharded_close_equals_sync_state_on_concurrent_producers() {
        // Non-metric records go in deterministically from this thread;
        // 8 producers then log disjoint metric names concurrently.
        let fixed: Vec<LogRecord> = vec![
            LogRecord::Param {
                name: "lr".into(),
                value: ParamValue::Float(0.1),
                direction: Direction::Input,
            },
            LogRecord::Param {
                name: "lr".into(),
                value: ParamValue::Float(0.01),
                direction: Direction::Input,
            },
            LogRecord::ContextStart {
                context: Context::Training,
                time_us: 5,
            },
        ];
        let reference = Collector::synchronous();
        let sharded = Collector::sharded(4).unwrap();
        for r in &fixed {
            reference.log(r.clone()).unwrap();
            sharded.log(r.clone()).unwrap();
        }
        for rank in 0..8u64 {
            for i in 0..500 {
                reference
                    .log(metric(&format!("rank{rank}"), i, i as f64))
                    .unwrap();
            }
        }
        let mut handles = Vec::new();
        for rank in 0..8u64 {
            let c = Arc::clone(&sharded);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    c.log(metric(&format!("rank{rank}"), i, i as f64)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let end = LogRecord::ContextEnd {
            context: Context::Training,
            time_us: 999,
        };
        reference.log(end.clone()).unwrap();
        sharded.log(end).unwrap();
        assert_eq!(sharded.accepted(), reference.accepted());
        assert_eq!(sharded.close().unwrap(), reference.close().unwrap());
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
        let reference = Collector::synchronous();
        for r in &records {
            reference.log(r.clone()).unwrap();
        }
        let expected = reference.close().unwrap();

        for collector in [
            Collector::synchronous(),
            Collector::buffered().unwrap(),
            Collector::sharded(3).unwrap(),
        ] {
            // The first few go through `log` and are still staged when
            // the batch arrives: it must fold behind them.
            let (staged, batch) = records.split_at(10);
            for r in staged {
                collector.log(r.clone()).unwrap();
            }
            collector.log_many(batch.to_vec()).unwrap();
            collector.log_many(Vec::new()).unwrap();
            assert_eq!(collector.accepted(), records.len());
            assert_eq!(collector.close().unwrap(), expected);
        }
    }

    #[test]
    fn rejected_records_are_not_counted_as_accepted() {
        for c in [
            Collector::buffered().unwrap(),
            Collector::sharded(4).unwrap(),
        ] {
            // Fewer than a batch on any shard: all still staged at close.
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
    }

    #[test]
    fn sharded_flush_makes_submissions_visible() {
        let c = Collector::sharded(4).unwrap();
        for i in 0..500 {
            c.log(metric(&format!("m{}", i % 7), i, 0.0)).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(c.accepted(), 500);
        let state = c.close().unwrap();
        assert_eq!(state.metric_samples, 500);
        assert!(matches!(c.close(), Err(ProvMLError::CollectorGone)));
    }

    #[test]
    fn single_shard_falls_back_to_buffered() {
        let c = Collector::sharded(1).unwrap();
        for i in 0..100 {
            c.log(metric("loss", i, i as f64)).unwrap();
        }
        assert_eq!(c.close().unwrap().metric_samples, 100);
    }

    #[test]
    fn merge_combines_disjoint_states() {
        let a = Collector::synchronous();
        a.log(metric("loss", 0, 1.0)).unwrap();
        a.log(LogRecord::ContextStart {
            context: Context::Training,
            time_us: 10,
        })
        .unwrap();
        let b = Collector::synchronous();
        b.log(LogRecord::Metric {
            name: "power".into(),
            context: Context::Training,
            step: 0,
            epoch: 7,
            time_us: 0,
            value: 250.0,
        })
        .unwrap();
        b.log(LogRecord::ContextEnd {
            context: Context::Training,
            time_us: 90,
        })
        .unwrap();
        let mut merged = a.close().unwrap();
        merged.merge(b.close().unwrap());
        assert_eq!(merged.metric_samples, 2);
        assert_eq!(merged.metrics.len(), 2);
        assert_eq!(merged.max_epoch["training"], 7);
        assert_eq!(merged.context_spans["training"], (Some(10), Some(90)));
    }

    #[test]
    fn param_override_keeps_latest() {
        let c = Collector::synchronous();
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
