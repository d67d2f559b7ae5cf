//! The run handle: the MLflow-style logging surface.

use crate::collector::{Collector, RunState};
use crate::error::ProvMLError;
use crate::hash::sha256_hex;
use crate::journal::{JournalConfig, JournalHeader, JournalWriter};
use crate::lock;
use crate::model::{ArtifactMeta, Context, Direction, LogRecord, ParamValue, RunReport, RunStatus};
use crate::plugins::{PluginSink, ProvPlugin};
use crate::prov_emit::{build_document_with, write_record, InlineCache, RunIdentity, Samples};
use crate::spill::{spill_metrics_pooled, SpillOutcome, SpillPolicy};
use metric_store::WorkerPool;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Knobs for the finalize pipeline (metric spill, provenance
/// emission).
///
/// `threads` sizes the pool every finalize stage runs on: a spilled
/// run encodes its chunks on it, the last build of an inline run
/// formats one series a task on it, and every record writes `prov.json`
/// and `prov.provn` as two tasks on it. The pool never runs more threads
/// than it has tasks, and `threads == 1` runs every stage on the caller.
/// The default is the machine's available parallelism. Output artifacts
/// are byte-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalizeOptions {
    /// Threads of the finalize pool, the caller's included.
    pub threads: usize,
}

impl Default for FinalizeOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        FinalizeOptions::with_threads(threads)
    }
}

impl FinalizeOptions {
    /// Convenience constructor.
    pub fn with_threads(threads: usize) -> Self {
        FinalizeOptions {
            threads: threads.max(1),
        }
    }
}

/// When the live-streaming path cuts a provenance delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCadence {
    /// One delta per completed epoch (fires on the first step of the
    /// next epoch, when the previous one is known to be over).
    EveryEpoch,
    /// One delta every N observed steps.
    EverySteps(u64),
}

/// Decides, step by step, when to cut the next streaming delta.
///
/// Feed it every training step via [`DeltaEmitter::observe`]; when it
/// answers `true`, take [`Run::snapshot_document`] and ship it with
/// `Client::upload_delta`. Cheap enough to call unconditionally in the
/// step loop.
#[derive(Debug)]
pub struct DeltaEmitter {
    cadence: DeltaCadence,
    last_epoch: Option<u32>,
    steps_since: u64,
    emitted: u64,
}

impl DeltaEmitter {
    /// An emitter with the given cadence.
    pub fn new(cadence: DeltaCadence) -> Self {
        DeltaEmitter {
            cadence,
            last_epoch: None,
            steps_since: 0,
            emitted: 0,
        }
    }

    /// Observes one training step; `true` means cut a delta now.
    pub fn observe(&mut self, _step: u64, epoch: u32) -> bool {
        let fire = match self.cadence {
            DeltaCadence::EveryEpoch => self.last_epoch.is_some_and(|prev| epoch != prev),
            DeltaCadence::EverySteps(n) => {
                self.steps_since += 1;
                self.steps_since >= n.max(1)
            }
        };
        self.last_epoch = Some(epoch);
        if fire {
            self.steps_since = 0;
            self.emitted += 1;
        }
        fire
    }

    /// How many deltas this emitter has asked for so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Options controlling a run's collection behaviour.
#[derive(Default)]
pub struct RunOptions {
    /// Metric spill policy (inline by default — the paper's "normal"
    /// single-file output).
    pub spill: SpillPolicy,
    /// User recorded as the responsible agent.
    pub user: Option<String>,
    /// Plugins activated for this run.
    pub plugins: Vec<Box<dyn ProvPlugin>>,
    /// Write every record to a crash-recovery journal
    /// (`journal.jsonl`) before folding it. See [`crate::journal`].
    /// Plugin-emitted records bypass the journal (they are
    /// reconstructible from their sources).
    pub journal: bool,
    /// Durability and rotation knobs for the journal (ignored unless
    /// `journal` is set).
    pub journal_config: JournalConfig,
    /// Finalize-pipeline parallelism (spill encoding, inline series
    /// and the record's files).
    pub finalize: FinalizeOptions,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("spill", &self.spill)
            .field("user", &self.user)
            .field("plugins", &self.plugins.len())
            .field("journal", &self.journal)
            .field("journal_config", &self.journal_config)
            .field("finalize", &self.finalize)
            .finish()
    }
}

/// An active run. Logging methods take `&self` and are safe to call
/// from any thread; [`Run::finish`] consumes the run and writes the
/// provenance files.
pub struct Run {
    experiment: String,
    name: String,
    dir: PathBuf,
    collector: Arc<Collector>,
    spill: SpillPolicy,
    finalize: FinalizeOptions,
    user: String,
    started_us: i64,
    plugins: Mutex<Vec<Box<dyn ProvPlugin>>>,
    journal: Option<JournalWriter>,
    /// The inline series text of the cuts so far (inline runs only);
    /// held across a whole cut, so cuts render one after another.
    inline: Mutex<InlineCache>,
}

fn now_us() -> i64 {
    prov_model::XsdDateTime::now().epoch_micros()
}

impl Run {
    pub(crate) fn start(
        experiment: String,
        name: String,
        experiment_dir: &Path,
        options: RunOptions,
    ) -> Result<Run, ProvMLError> {
        let dir = experiment_dir.join(&name);
        std::fs::create_dir_all(dir.join("artifacts"))?;
        let mut collector = Collector::new();
        let mut user = options.user.unwrap_or_else(|| "unknown".to_string());
        let mut started_us = now_us();
        let journal = if options.journal {
            let (journal, replay) = JournalWriter::open(
                &dir,
                &JournalHeader::new(&experiment, &name, &user, started_us),
                options.journal_config,
            )?;
            // A resumed run goes on from what its journal already holds,
            // under the identity the journal's header recorded.
            if let Some(replay) = replay {
                user = replay.header.user;
                started_us = replay.header.started_us;
                collector = Collector::from_state(replay.state);
            }
            Some(journal)
        } else {
            None
        };
        let run = Run {
            experiment,
            name,
            dir,
            collector,
            spill: options.spill,
            finalize: options.finalize,
            user,
            started_us,
            plugins: Mutex::new(options.plugins),
            journal,
            inline: Mutex::default(),
        };
        // Give plugins a chance to record environment parameters.
        {
            let mut plugins = lock(&run.plugins);
            let mut sink = PluginSink::new(&run.collector);
            for p in plugins.iter_mut() {
                p.on_run_start(&mut sink);
            }
        }
        Ok(run)
    }

    /// The run name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The experiment this run belongs to.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journals (when enabled) and submits one record. A journal whose
    /// disk failed does not take the in-memory record with it: the
    /// record is still collected, and the journal keeps its first
    /// error for [`Run::flush`] and [`Run::finish`] to return.
    fn submit(&self, record: LogRecord) -> Result<(), ProvMLError> {
        let journaled = match &self.journal {
            Some(journal) => journal.append(&record),
            None => Ok(()),
        };
        self.collector.log(record)?;
        journaled
    }

    // ----- parameters ---------------------------------------------------

    /// Logs a parameter (input by default, like hyperparameters).
    pub fn log_param(&self, name: impl Into<String>, value: impl Into<ParamValue>) {
        self.log_param_dir(name, value, Direction::Input);
    }

    /// Logs an output parameter (a derived one-time result).
    pub fn log_output_param(&self, name: impl Into<String>, value: impl Into<ParamValue>) {
        self.log_param_dir(name, value, Direction::Output);
    }

    fn log_param_dir(
        &self,
        name: impl Into<String>,
        value: impl Into<ParamValue>,
        direction: Direction,
    ) {
        let _ = self.submit(LogRecord::Param {
            name: name.into(),
            value: value.into(),
            direction,
        });
    }

    // ----- metrics ------------------------------------------------------

    /// Logs one metric sample with the current wall time.
    pub fn log_metric(
        &self,
        name: impl Into<String>,
        context: Context,
        step: u64,
        epoch: u32,
        value: f64,
    ) {
        self.log_metric_at(name, context, step, epoch, now_us(), value);
    }

    /// Logs one metric sample with an explicit timestamp (µs since the
    /// Unix epoch) — used by simulators running on virtual clocks.
    pub fn log_metric_at(
        &self,
        name: impl Into<String>,
        context: Context,
        step: u64,
        epoch: u32,
        time_us: i64,
        value: f64,
    ) {
        let _ = self.submit(LogRecord::Metric {
            name: name.into(),
            context,
            step,
            epoch,
            time_us,
            value,
        });
    }

    /// Journals (when enabled) and submits a batch of records, folded
    /// under one collector lock: the fast path for tight logging loops
    /// and replay tools.
    pub fn log_many(&self, records: Vec<LogRecord>) -> Result<(), ProvMLError> {
        let journaled = match &self.journal {
            Some(journal) => records.iter().try_for_each(|r| journal.append(r)),
            None => Ok(()),
        };
        self.collector.log_many(records)?;
        journaled
    }

    // ----- contexts -------------------------------------------------------

    /// Marks a context as started.
    pub fn start_context(&self, context: Context) {
        let _ = self.submit(LogRecord::ContextStart {
            context,
            time_us: now_us(),
        });
    }

    /// Marks a context as ended.
    pub fn end_context(&self, context: Context) {
        let _ = self.submit(LogRecord::ContextEnd {
            context,
            time_us: now_us(),
        });
    }

    // ----- artifacts -------------------------------------------------------

    /// Stores bytes as an artifact in the run directory and logs it.
    pub fn log_artifact_bytes(
        &self,
        name: impl Into<String>,
        bytes: &[u8],
        direction: Direction,
    ) -> Result<ArtifactMeta, ProvMLError> {
        self.log_artifact_bytes_in(name, bytes, direction, None)
    }

    /// Stores bytes as an artifact attached to a specific context.
    pub fn log_artifact_bytes_in(
        &self,
        name: impl Into<String>,
        bytes: &[u8],
        direction: Direction,
        context: Option<Context>,
    ) -> Result<ArtifactMeta, ProvMLError> {
        let name = name.into();
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let stored_path = self.dir.join("artifacts").join(&safe);
        std::fs::write(&stored_path, bytes)?;
        let meta = ArtifactMeta {
            name,
            stored_path,
            sha256: sha256_hex(bytes),
            bytes: bytes.len() as u64,
            direction,
            context,
            logged_at_us: now_us(),
        };
        self.submit(LogRecord::Artifact(meta.clone()))?;
        Ok(meta)
    }

    /// Copies a file into the run directory and logs it as an artifact.
    pub fn log_artifact_file(
        &self,
        path: impl AsRef<Path>,
        direction: Direction,
    ) -> Result<ArtifactMeta, ProvMLError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        self.log_artifact_bytes(name, &bytes, direction)
    }

    /// Logs a model checkpoint (an output artifact in the training
    /// context, typed as a model).
    pub fn log_model(
        &self,
        name: impl Into<String>,
        bytes: &[u8],
    ) -> Result<ArtifactMeta, ProvMLError> {
        self.log_artifact_bytes_in(name, bytes, Direction::Output, Some(Context::Training))
    }

    // ----- plugins ----------------------------------------------------------

    /// Invokes every plugin's periodic hook (call once per step or on a
    /// timer; plugins emit extra metrics through their sink).
    pub fn plugin_tick(&self) {
        let mut plugins = lock(&self.plugins);
        let mut sink = PluginSink::new(&self.collector);
        for p in plugins.iter_mut() {
            p.on_tick(&mut sink);
        }
    }

    /// Number of log records accepted so far.
    pub fn records_accepted(&self) -> usize {
        self.collector.accepted()
    }

    /// Blocks until every journaled record is written and fsynced: the
    /// call that closes the journal's loss windows
    /// ([`crate::journal::SyncPolicy`]) and reports a journal write that
    /// failed since the last one. Records are folded when they are
    /// logged, so a run without a journal has nothing to flush.
    pub fn flush(&self) -> Result<(), ProvMLError> {
        match &self.journal {
            Some(journal) => journal.flush(),
            None => Ok(()),
        }
    }

    // ----- streaming ----------------------------------------------------------

    /// Builds a cumulative provenance snapshot of the live run — a
    /// valid standalone PROV-JSON document covering everything folded
    /// so far — without finishing the run.
    ///
    /// Each snapshot is a superset of the previous one (elements only
    /// accumulate, relations repeat verbatim), so the service's
    /// delta-merge endpoint folds a stream of them — capped by the
    /// finalize document — into exactly the document a finalize-only
    /// upload would have stored. Metrics are never spilled here (spill
    /// happens at finalize); with an inline spill policy the snapshot
    /// embeds the samples seen so far, otherwise only the series stats.
    /// The run activity's end time reflects the snapshot instant and is
    /// superseded by the next delta.
    ///
    /// Cost: the collector's state is cloned, and the document is built
    /// from it, but an inline series formats only the samples logged
    /// since the last snapshot. The run keeps the text of the earlier
    /// ones open (a cache of about one copy of the series text) and
    /// copies it into the document; [`Run::finish`] formats the last
    /// tail and moves that text into the final document. Concurrent
    /// snapshots take turns: the cache's lock is held from the
    /// collector's snapshot to the end of the build, so each snapshot
    /// holds at least what the one before it held.
    pub fn snapshot_document(&self) -> Result<prov_model::ProvDocument, ProvMLError> {
        self.cut().map(|(_, _, doc)| doc)
    }

    /// A snapshot, with the identity and state it was built from.
    fn cut(&self) -> Result<(RunIdentity, RunState, prov_model::ProvDocument), ProvMLError> {
        let mut inline = self.inline_cache();
        let state = self.collector.snapshot()?;
        let identity = self.identity(now_us());
        let spill = SpillOutcome {
            store_path: None,
            links: Vec::new(),
            external_bytes: 0,
        };
        let samples = if self.spill.is_inline() {
            Samples::Cut(&mut inline)
        } else {
            Samples::Linked
        };
        let doc = build_document_with(&identity, &state, &spill, samples, &WorkerPool::serial());
        Ok((identity, state, doc))
    }

    /// Who and what this run is, as of `ended_us`.
    fn identity(&self, ended_us: i64) -> RunIdentity {
        RunIdentity {
            experiment: self.experiment.clone(),
            run: self.name.clone(),
            user: self.user.clone(),
            started_us: self.started_us,
            ended_us,
        }
    }

    /// The run's inline cache. A cut that panicked while it held the
    /// cache may have left a series' text ahead of its count, so then
    /// the cache starts over, empty.
    fn inline_cache(&self) -> MutexGuard<'_, InlineCache> {
        self.inline.lock().unwrap_or_else(|torn| {
            self.inline.clear_poison();
            let mut inline = torn.into_inner();
            *inline = InlineCache::default();
            inline
        })
    }

    // ----- finish -------------------------------------------------------------

    /// Finishes the run: closes the collector, spills metrics, writes
    /// `prov.json` + `prov.provn`, and returns a report. Fails, with
    /// the provenance files written all the same, when a journal write
    /// failed at any point of the run.
    pub fn finish(self) -> Result<RunReport, ProvMLError> {
        self.finish_with_status(RunStatus::Finished)
    }

    /// Finishes the run with a failure marker (still writes provenance —
    /// failed runs are exactly the ones worth auditing).
    pub fn fail(self) -> Result<RunReport, ProvMLError> {
        self.finish_with_status(RunStatus::Failed)
    }

    fn finish_with_status(mut self, status: RunStatus) -> Result<RunReport, ProvMLError> {
        {
            let mut plugins = lock(&self.plugins);
            let mut sink = PluginSink::new(&self.collector);
            for p in plugins.iter_mut() {
                p.on_run_end(&mut sink);
            }
        }
        // One parent span over the whole finalize pipeline; each stage
        // below opens a child, so the trace shows where a slow finish
        // spent its time.
        let mut finalize_trace = obs::trace::span("finalize");
        if obs::trace::is_enabled() {
            finalize_trace.annotate("run", self.name.clone());
        }
        let state = {
            let _trace = obs::trace::span("finalize_drain");
            self.collector.close()?
        };
        // The journal is complete once the collector is closed; fsync
        // it (and its directory entry) so the WAL is durable even if
        // writing the provenance files below fails. A journal that lost
        // a write fails the finish, but only after the provenance it
        // was the backup of is written.
        let journal_closed = match self.journal.take() {
            Some(journal) => {
                let _trace = obs::trace::span("finalize_journal_close");
                journal.close()
            }
            None => Ok(()),
        };
        let ended_us = now_us();

        let pool = WorkerPool::new(self.finalize.threads);
        let series: Vec<&metric_store::series::MetricSeries> = state.metrics.values().collect();
        let spill = {
            let _trace = obs::trace::span("finalize_spill");
            spill_metrics_pooled(&self.dir, &self.spill, &series, &pool)?
        };

        let identity = self.identity(ended_us);
        let samples = if self.spill.is_inline() {
            Samples::Last(std::mem::take(&mut *self.inline_cache()))
        } else {
            Samples::Linked
        };
        let report = write_record(
            &self.dir,
            &identity,
            &state,
            &spill,
            samples,
            &pool,
            status,
            |_| {},
        )?;
        drop(finalize_trace);
        journal_closed?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    fn base(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yrun_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn full_run_lifecycle() {
        let b = base("lifecycle");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("r1").unwrap();
        run.log_param("lr", 0.001);
        run.log_output_param("best_acc", 0.93);
        run.start_context(Context::Training);
        for step in 0..50u64 {
            run.log_metric("loss", Context::Training, step, (step / 10) as u32, 1.0);
        }
        run.end_context(Context::Training);
        run.log_artifact_bytes("data.bin", b"input bytes", Direction::Input)
            .unwrap();
        run.log_model("model.ckpt", b"weights").unwrap();

        let report = run.finish().unwrap();
        assert_eq!(report.status, RunStatus::Finished);
        assert_eq!(report.params, 2);
        assert_eq!(report.metric_samples, 50);
        assert_eq!(report.artifacts, 2);
        assert!(report.prov_json_path.is_file());
        assert!(report.provn_path.is_file());
        assert!(report.prov_json_bytes > 0);

        // The provenance file parses and validates.
        let doc = exp.load_run_document("r1").unwrap();
        assert!(prov_model::validate::is_valid(&doc));
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn artifact_content_addressing() {
        let b = base("artifacts");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("r1").unwrap();
        let m1 = run
            .log_artifact_bytes("a.bin", b"same", Direction::Output)
            .unwrap();
        let m2 = run
            .log_artifact_bytes("b.bin", b"same", Direction::Output)
            .unwrap();
        let m3 = run
            .log_artifact_bytes("c.bin", b"different", Direction::Output)
            .unwrap();
        assert_eq!(m1.sha256, m2.sha256);
        assert_ne!(m1.sha256, m3.sha256);
        assert!(m1.stored_path.is_file());
        run.finish().unwrap();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn spilled_run_writes_store_and_small_prov() {
        let b = base("spill");
        let exp = Experiment::new("e", &b).unwrap();

        let mk = |name: &str, spill: SpillPolicy| {
            let run = exp
                .start_run_with(
                    name,
                    RunOptions {
                        spill,
                        ..Default::default()
                    },
                )
                .unwrap();
            for step in 0..5000u64 {
                run.log_metric_at("loss", Context::Training, step, 0, step as i64, 0.5);
            }
            run.finish().unwrap()
        };

        let inline = mk("inline", SpillPolicy::Inline);
        let zarr = mk("zarr", SpillPolicy::Zarr(Default::default()));
        assert!(inline.metric_store_path.is_none());
        assert!(zarr.metric_store_path.as_ref().unwrap().exists());
        assert!(
            inline.prov_json_bytes > zarr.prov_json_bytes * 5,
            "inline {} vs spilled {}",
            inline.prov_json_bytes,
            zarr.prov_json_bytes
        );
        // Spilled data reads back.
        let series =
            crate::spill::read_spilled(&exp.dir().join("zarr"), "loss", "training").unwrap();
        assert_eq!(series.len(), 5000);
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn concurrent_ranks_log_safely() {
        let b = base("concurrent");
        let exp = Experiment::new("e", &b).unwrap();
        let run = Arc::new(exp.start_run("ddp").unwrap());
        let mut handles = Vec::new();
        for rank in 0..8u32 {
            let run = Arc::clone(&run);
            handles.push(std::thread::spawn(move || {
                for step in 0..500u64 {
                    run.log_metric(
                        format!("loss/rank{rank}"),
                        Context::Training,
                        step,
                        0,
                        step as f64,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let run = Arc::try_unwrap(run).ok().expect("all threads joined");
        let report = run.finish().unwrap();
        assert_eq!(report.metric_samples, 8 * 500);
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn failed_run_is_marked() {
        let b = base("failed");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("crash").unwrap();
        run.log_param("lr", 10.0);
        let report = run.fail().unwrap();
        assert_eq!(report.status, RunStatus::Failed);
        let doc = exp.load_run_document("crash").unwrap();
        let act = doc.get(&prov_model::QName::new("exp", "crash")).unwrap();
        assert_eq!(
            act.attr(&prov_model::QName::yprov("status"))
                .and_then(|v| v.as_str()),
            Some("failed")
        );
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn parallel_finalize_run_works() {
        let b = base("parallel");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp
            .start_run_with(
                "r",
                RunOptions {
                    spill: SpillPolicy::Zarr(Default::default()),
                    finalize: FinalizeOptions::with_threads(8),
                    ..Default::default()
                },
            )
            .unwrap();
        run.log_param("lr", 0.01);
        run.start_context(Context::Training);
        let mut batch = Vec::new();
        for step in 0..4000u64 {
            for metric in ["loss", "acc", "grad_norm"] {
                batch.push(LogRecord::Metric {
                    name: metric.to_string(),
                    context: Context::Training,
                    step,
                    epoch: (step / 1000) as u32,
                    time_us: step as i64,
                    value: step as f64 * 0.25,
                });
            }
        }
        run.log_many(batch).unwrap();
        run.end_context(Context::Training);
        let report = run.finish().unwrap();
        assert_eq!(report.metric_samples, 3 * 4000);
        assert_eq!(report.params, 1);
        let series = crate::spill::read_spilled(&exp.dir().join("r"), "acc", "training").unwrap();
        assert_eq!(series.len(), 4000);
        let doc = exp.load_run_document("r").unwrap();
        assert!(prov_model::validate::is_valid(&doc));
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn delta_emitter_cadences() {
        let mut by_epoch = DeltaEmitter::new(DeltaCadence::EveryEpoch);
        let mut fired = Vec::new();
        for step in 0..30u64 {
            if by_epoch.observe(step, (step / 10) as u32) {
                fired.push(step);
            }
        }
        assert_eq!(
            fired,
            vec![10, 20],
            "fires on the first step of a new epoch"
        );
        assert_eq!(by_epoch.emitted(), 2);

        let mut by_steps = DeltaEmitter::new(DeltaCadence::EverySteps(7));
        let fired: Vec<u64> = (0..21u64).filter(|s| by_steps.observe(*s, 0)).collect();
        assert_eq!(fired, vec![6, 13, 20]);

        // A zero stride is clamped to 1, not a division-by-zero foot-gun.
        let mut every = DeltaEmitter::new(DeltaCadence::EverySteps(0));
        assert!(every.observe(0, 0));
    }

    #[test]
    fn streamed_snapshots_fold_into_the_finalized_document() {
        let b = base("stream");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("r").unwrap();
        run.log_param("lr", 0.1);
        run.start_context(Context::Training);
        let mut emitter = DeltaEmitter::new(DeltaCadence::EveryEpoch);
        let mut merged: Option<prov_model::ProvDocument> = None;
        for step in 0..30u64 {
            let epoch = (step / 10) as u32;
            run.log_metric_at(
                "loss",
                Context::Training,
                step,
                epoch,
                step as i64,
                1.0 / (step + 1) as f64,
            );
            if emitter.observe(step, epoch) {
                let snap = run.snapshot_document().unwrap();
                assert!(prov_model::validate::is_valid(&snap));
                match &mut merged {
                    None => {
                        let mut base = snap;
                        base.canonicalize();
                        merged = Some(base);
                    }
                    Some(doc) => {
                        doc.apply_delta(&snap).unwrap();
                    }
                }
            }
        }
        assert_eq!(emitter.emitted(), 2);
        run.end_context(Context::Training);
        run.finish().unwrap();

        // The finalize document, applied as the last delta, must leave
        // the streamed replica byte-identical to the canonicalized
        // finalize-only document.
        let final_doc = exp.load_run_document("r").unwrap();
        let mut streamed = merged.unwrap();
        streamed.apply_delta(&final_doc).unwrap();
        let mut expected = final_doc;
        expected.canonicalize();
        assert_eq!(
            streamed.to_json_string().unwrap(),
            expected.to_json_string().unwrap(),
            "streamed snapshots + finalize delta must converge"
        );
        std::fs::remove_dir_all(&b).ok();
    }

    fn no_spill() -> SpillOutcome {
        SpillOutcome {
            store_path: None,
            links: Vec::new(),
            external_bytes: 0,
        }
    }

    /// Each metric entity's `yprov4ml:values` in a run's `prov.json`,
    /// by the entity's name within the run.
    fn inline_values(exp: &Experiment, run: &str) -> Vec<(String, prov_model::AttrValue)> {
        let doc = exp.load_run_document(run).unwrap();
        let values = prov_model::QName::yprov("values");
        doc.iter_elements()
            .filter_map(|e| {
                let (_, name) = e.id.local().split_once('/')?;
                Some((name.to_string(), e.attr(&values)?.clone()))
            })
            .collect()
    }

    #[test]
    fn a_run_finished_after_snapshots_writes_what_one_without_them_writes() {
        let b = base("cut_then_finish");
        let exp = Experiment::new("e", &b).unwrap();
        for (name, every) in [("cut", Some(7u64)), ("uncut", None)] {
            let run = exp.start_run(name).unwrap();
            for step in 0..100u64 {
                let value = if step % 13 == 0 {
                    f64::NAN
                } else {
                    step as f64
                };
                run.log_metric_at("loss", Context::Training, step, 0, step as i64, value);
                if step >= 40 {
                    run.log_metric_at("acc", Context::Validation, step, 0, step as i64, -0.0);
                }
                if every.is_some_and(|k| step % k == 0) {
                    run.snapshot_document().unwrap();
                }
            }
            run.finish().unwrap();
        }
        let cut = inline_values(&exp, "cut");
        assert_eq!(cut.len(), 2);
        assert_eq!(cut, inline_values(&exp, "uncut"));
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn concurrent_snapshots_each_build_their_own_state() {
        let b = base("concurrent_cuts");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("r").unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for step in 0..3000u64 {
                    run.log_metric_at("loss", Context::Training, step, 0, step as i64, 0.5);
                    if step % 3 == 0 {
                        run.log_metric_at("acc", Context::Validation, step, 0, step as i64, 1.0);
                    }
                }
            });
            let cutters: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..15).map(|_| run.cut().unwrap()).collect::<Vec<_>>()))
                .collect();
            for cutter in cutters {
                let mut samples = 0;
                for (identity, state, doc) in cutter.join().unwrap() {
                    let fresh =
                        crate::prov_emit::build_document(&identity, &state, &no_spill(), true);
                    assert_eq!(
                        doc.to_json_string().unwrap(),
                        fresh.to_json_string().unwrap()
                    );
                    assert!(state.metric_samples >= samples);
                    samples = state.metric_samples;
                }
            }
        });
        run.finish().unwrap();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn a_cut_after_a_panicked_one_builds_from_an_empty_cache() {
        let b = base("torn_cut");
        let exp = Experiment::new("e", &b).unwrap();
        let run = exp.start_run("r").unwrap();
        for step in 0..10u64 {
            run.log_metric_at("loss", Context::Training, step, 0, step as i64, 0.5);
        }
        run.snapshot_document().unwrap();
        std::thread::scope(|s| {
            let torn = s.spawn(|| {
                let _cache = run.inline.lock();
                panic!("a cut panics while it holds the cache");
            });
            assert!(torn.join().is_err());
        });
        assert!(run.inline.is_poisoned());
        run.log_metric_at("loss", Context::Training, 10, 0, 10, 0.25);
        let (identity, state, doc) = run.cut().unwrap();
        let fresh = crate::prov_emit::build_document(&identity, &state, &no_spill(), true);
        assert_eq!(
            doc.to_json_string().unwrap(),
            fresh.to_json_string().unwrap()
        );
        assert!(!run.inline.is_poisoned());
        run.finish().unwrap();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn a_failed_journal_write_fails_finish_but_not_the_provenance() {
        let b = base("journal_disk_full");
        let exp = Experiment::new("e", &b).unwrap();
        let options = RunOptions {
            journal: true,
            ..Default::default()
        };
        let run = exp.start_run_with("r", options).unwrap();
        run.log_param("lr", 0.1);
        run.flush().unwrap();
        run.journal.as_ref().unwrap().break_disk();
        // Past the default policy's 64 records the frame write fails;
        // the run keeps collecting.
        for step in 0..100u64 {
            run.log_metric("loss", Context::Training, step, 0, 0.5);
        }
        assert_eq!(run.records_accepted(), 101);
        assert!(run.flush().is_err(), "flush reports the lost write");
        let dir = run.dir().to_path_buf();
        let err = run.finish().unwrap_err();
        assert!(err.to_string().contains("journal"), "{err}");
        let doc = exp.load_run_document("r").unwrap();
        assert!(prov_model::validate::is_valid(&doc));
        assert!(std::fs::read_to_string(dir.join("prov.json"))
            .unwrap()
            .contains("loss"));
        std::fs::remove_dir_all(&b).ok();
    }
}
