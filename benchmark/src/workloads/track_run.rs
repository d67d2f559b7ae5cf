//! `track_run`: the producer alone. One thread drives tracked runs of
//! 12 metrics through `log_metric_at`, `Run::finish`, a reload of every
//! spilled series and a summary plus lineage query on the reloaded
//! document. Collector, spill codec and PROV emission do all the work;
//! no service is started. The paper's Table 1 path.

use std::time::{Duration, Instant};

use metric_store::{MetricSeries, WorkerPool};
use prov_graph::{GraphIndex, MatchRow, ProvGraph};
use prov_model::{PathQuery, ProvDocument};
use yprov4ml::collector::Collector;
use yprov4ml::compare::RunSummary;
use yprov4ml::journal::{JournalHeader, JournalWriter};
use yprov4ml::model::ArtifactMeta;
use yprov4ml::prov_emit::{build_document, write_prov_files, RunIdentity};
use yprov4ml::spill::{read_spilled, spill_metrics_pooled};
use yprov4ml::{
    Context, Direction, Experiment, FinalizeOptions, JournalConfig, JournalMode, LogRecord,
    ParamValue, ProvMLError, Run, RunOptions, SpillPolicy, SyncPolicy,
};

use crate::gen::{epoch_of, time_of, RunInputs, METRICS, RAW_SAMPLE_BYTES};
use crate::harness::{dir_bytes, Clocks, Config, Kind, Outcome, Tally, Timed};
use crate::rng::Digest;
use crate::stats::median;
use crate::trace::Recorder;

/// Steps per run; every step logs all 12 metrics (18 000 samples).
const STEPS: u64 = 1_500;
/// Runs in a block at `RUN_SECONDS`; the work unit is one sample.
const RUNS_PER_BLOCK: usize = 11;
const PARAMS: usize = 16;
const ARTIFACT_BYTES: usize = 4_096;
/// `log_metric_at` calls summed into one `collector.log` sample.
const BATCH: usize = 1_000;

/// "What does the model artifact derive from": from the checkpoint the
/// run logged, along any relation, to every entity it reaches (the
/// input dataset and the experiment).
const LINEAGE_IR: &str = r#"{"start":{"typeIs":"yprov4ml:Artifact","idContains":"model.bin"},"steps":[{"dir":"forward","repeat":"+","target":{"kind":"entity"}}]}"#;

fn journal_config() -> JournalConfig {
    JournalConfig {
        sync: SyncPolicy::OnFlush,
        mode: JournalMode::FailIfExists,
        rotate_bytes: None,
    }
}

/// The single-file spill format. A Zarr spill makes 13 directories and
/// 60 files per run, and on the reference box's filesystem (ext4 mounted
/// with `discard`, shared disk) `Run::finish` then takes 39 ms or 56 ms,
/// whichever state the disk is in.
fn spill_policy() -> SpillPolicy {
    SpillPolicy::NetCdf(Default::default())
}

/// Buffered collector, one finalize thread, no journal. The journal
/// runs end to end on `cluster_e2e`; here its 2.6 MB per run, which
/// `finish` leaves in the run directory, would bury the spill codec's
/// share of `stored_bytes_per_user_byte` (0.34 without it, 5.4 with).
/// The staged pass of the traced run measures it.
fn run_options() -> RunOptions {
    RunOptions {
        spill: spill_policy(),
        finalize: FinalizeOptions::with_threads(1),
        user: Some("bench".into()),
        ..Default::default()
    }
}

/// What a run logs besides its samples, and what it all weighs.
fn user_bytes(inputs: &RunInputs) -> u64 {
    let params = PARAMS as u64 * ("hp_00".len() as u64 + 8);
    inputs.samples() * RAW_SAMPLE_BYTES + params + 2 * ARTIFACT_BYTES as u64
}

/// Whether `series` holds exactly what was logged for metric `m`.
fn matches(inputs: &RunInputs, m: usize, series: &MetricSeries) -> Result<(), String> {
    if series.points.len() as u64 != inputs.steps {
        return Err(format!(
            "{} points, logged {}",
            series.points.len(),
            inputs.steps
        ));
    }
    for (p, step) in series.points.iter().zip(0..inputs.steps) {
        let same = p.step == step
            && p.epoch == epoch_of(step)
            && p.time_us == time_of(step)
            && p.value.to_bits() == inputs.value(step, m).to_bits();
        if !same {
            return Err(format!("step {step} differs from what was logged"));
        }
    }
    Ok(())
}

struct Driver<'a> {
    exp: Experiment,
    contexts: Vec<Context>,
    artifact: Vec<u8>,
    lineage: PathQuery,
    tally: &'a Tally,
    rec: &'a Recorder,
    stored_bytes: u64,
    user_bytes: u64,
    layers: Layers,
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    journal_bytes_per_sample: Vec<f64>,
    spill_bytes_per_sample: Vec<f64>,
    doc_bytes: Vec<f64>,
    parse_mb_per_s: Vec<f64>,
    rows: Vec<f64>,
}

/// What a run read back, kept until its block has ended: checking it
/// is the benchmark's work, not the tracker's.
struct Reloaded<'i> {
    name: String,
    inputs: &'i RunInputs,
    series: Vec<Result<MetricSeries, ProvMLError>>,
    answer: Option<(Option<RunSummary>, Vec<MatchRow>)>,
}

impl Driver<'_> {
    /// Logs everything a run logs through the public `Run` API, as a
    /// training job does; `batches` records a `collector.log` span per
    /// `BATCH` calls.
    fn log(&self, run: &Run, inputs: &RunInputs, batches: bool) {
        let (tally, rec) = (self.tally, self.rec);
        for p in 0..PARAMS {
            run.log_param(
                format!("hp_{p:02}"),
                ParamValue::Float(1e-3 * (p + 1) as f64),
            );
        }
        tally.check(
            "log artifacts",
            run.log_artifact_bytes("dataset.csv", &self.artifact, Direction::Input)
                .and_then(|_| run.log_model("model.bin", &self.artifact))
                .map_err(|e| e.to_string()),
        );
        let mut in_batch = 0;
        let mut batch_start = Instant::now();
        for step in 0..inputs.steps {
            let (epoch, time_us) = (epoch_of(step), time_of(step));
            for (m, (metric, _)) in METRICS.iter().enumerate() {
                run.log_metric_at(
                    *metric,
                    self.contexts[m].clone(),
                    step,
                    epoch,
                    time_us,
                    inputs.value(step, m),
                );
                in_batch += 1;
                if batches && in_batch == BATCH {
                    rec.record("collector.log", batch_start, batch_start.elapsed());
                    in_batch = 0;
                    batch_start = Instant::now();
                }
            }
        }
        tally.check(
            "records accepted",
            (run.records_accepted() as u64 == inputs.samples() + PARAMS as u64 + 2)
                .then_some(())
                .ok_or(format!("{} records accepted", run.records_accepted())),
        );
    }

    /// One run: log, finish, reload, query. Returns what it read back,
    /// to be checked by `settle` once the block has ended.
    fn lifecycle<'i>(
        &mut self,
        op: u64,
        name: &str,
        inputs: &'i RunInputs,
        timed: &mut Timed,
    ) -> Option<Reloaded<'i>> {
        let (tally, rec) = (self.tally, self.rec);
        let run_dir = self.exp.dir().join(name);
        let guard = rec.op(op, "op.track_run");

        let started = self.exp.start_run_with(name, run_options());
        let run = tally.check("start_run", started.map_err(|e| e.to_string()))?;
        self.log(&run, inputs, true);

        let (report, took) = rec.time("yprov4ml.finish", || run.finish());
        timed.sample(Kind::Write, took);
        let finished = report.map_err(|e| e.to_string()).and_then(|r| {
            (r.metric_samples as u64 == inputs.samples())
                .then_some(())
                .ok_or(format!("{} samples in the report", r.metric_samples))
        });
        tally.check("finish", finished)?;

        let ((doc, series), took) = rec.time("yprov4ml.reload", || {
            let doc = self.exp.load_run_document(name);
            let series: Vec<_> = METRICS
                .iter()
                .map(|(metric, ctx)| read_spilled(&run_dir, metric, ctx))
                .collect();
            (doc, series)
        });
        timed.sample(Kind::Read, took);
        let doc = tally.check("reload document", doc.map_err(|e| e.to_string()));

        let answer = doc.as_ref().map(|doc| {
            let (answer, took) = rec.time("prov_graph.query", || {
                let summary = RunSummary::from_document(doc);
                let rows = prov_graph::execute(&ProvGraph::new(doc), &self.lineage).rows;
                (summary, rows)
            });
            timed.sample(Kind::Query, took);
            answer
        });
        if rec.is_enabled() && op.is_multiple_of(2) {
            let shadow = self
                .staged(&format!("{name}-staged"), inputs)
                .and_then(|()| self.drained(&format!("{name}-drained"), inputs));
            tally.check("shadow pass", shadow);
        }
        drop(guard);
        Some(Reloaded {
            name: name.to_string(),
            inputs,
            series,
            answer,
        })
    }

    /// After the block: what was read back must be what was logged; the
    /// run directory is measured and removed.
    fn settle(&mut self, reloaded: Reloaded<'_>) {
        let tally = self.tally;
        let Reloaded {
            name,
            inputs,
            series,
            answer,
        } = reloaded;
        for (m, s) in series.into_iter().enumerate() {
            tally.check(
                "spilled series decode to the logged values",
                s.map_err(|e| e.to_string())
                    .and_then(|s| matches(inputs, m, &s)),
            );
        }
        if let Some((summary, rows)) = answer {
            let ok = match summary {
                Some(s) if s.metrics.len() == METRICS.len() && s.params.len() == PARAMS => Ok(()),
                Some(s) => Err(format!(
                    "summary has {} metrics, {} params",
                    s.metrics.len(),
                    s.params.len()
                )),
                None => Err("no run activity in the reloaded document".to_string()),
            }
            .and_then(|()| {
                rows.iter()
                    .any(|r| r.end.local().ends_with("artifact/dataset.csv"))
                    .then_some(())
                    .ok_or(format!("{} rows, none ends at the dataset", rows.len()))
            });
            tally.check("summary and lineage", ok);
        }
        let run_dir = self.exp.dir().join(&name);
        self.stored_bytes += dir_bytes(&run_dir);
        self.user_bytes += user_bytes(inputs);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    /// Shadow pass: the same run once more through `Run`, with the
    /// collector drained by an explicit `Run::flush()` before `finish`,
    /// which tells the drain from the rest of `finish`.
    fn drained(&mut self, name: &str, inputs: &RunInputs) -> Result<(), String> {
        let rec = self.rec;
        let _shadow = rec.span("shadow.drained_run");
        let err = |e: ProvMLError| e.to_string();
        let run = self.exp.start_run_with(name, run_options()).map_err(err)?;
        rec.time("yprov4ml.log", || self.log(&run, inputs, false));
        rec.time("collector.drain", || run.flush()).0.map_err(err)?;
        rec.time("yprov4ml.finish_drained", || run.finish())
            .0
            .map_err(err)?;
        std::fs::remove_dir_all(self.exp.dir().join(name)).map_err(|e| e.to_string())
    }

    /// The same run with `Run`'s stages called one by one through their
    /// public functions, a span around each: what `Run::start`, `submit`
    /// and `finish` do, in their order, then the reload.
    fn staged(&mut self, name: &str, inputs: &RunInputs) -> Result<(), String> {
        let rec = self.rec;
        let _shadow = rec.span("shadow.track_run");
        let run_dir = self.exp.dir().join(name);
        std::fs::create_dir_all(run_dir.join("artifacts")).map_err(|e| e.to_string())?;
        let err = |e: yprov4ml::ProvMLError| e.to_string();
        let started_us = time_of(0);
        let samples = inputs.samples() as f64;

        let header = JournalHeader::new(self.exp.name(), name, "bench", started_us);
        let journal =
            JournalWriter::create_with(&run_dir, &header, journal_config()).map_err(err)?;
        let collector = Collector::sharded(1).map_err(err)?;
        for p in 0..PARAMS {
            collector
                .log(LogRecord::Param {
                    name: format!("hp_{p:02}"),
                    value: ParamValue::Float(1e-3 * (p + 1) as f64),
                    direction: Direction::Input,
                })
                .map_err(err)?;
        }
        for (artifact, direction, context) in [
            ("dataset.csv", Direction::Input, None),
            ("model.bin", Direction::Output, Some(Context::Training)),
        ] {
            collector
                .log(LogRecord::Artifact(ArtifactMeta {
                    name: artifact.to_string(),
                    stored_path: run_dir.join("artifacts").join(artifact),
                    sha256: "0".repeat(64),
                    bytes: ARTIFACT_BYTES as u64,
                    direction,
                    context,
                    logged_at_us: started_us,
                }))
                .map_err(err)?;
        }
        let mut in_batch = 0;
        let mut batch_start = Instant::now();
        let (mut append, mut log) = (Duration::ZERO, Duration::ZERO);
        for step in 0..inputs.steps {
            for (m, (metric, _)) in METRICS.iter().enumerate() {
                let record = LogRecord::Metric {
                    name: metric.to_string(),
                    context: self.contexts[m].clone(),
                    step,
                    epoch: epoch_of(step),
                    time_us: time_of(step),
                    value: inputs.value(step, m),
                };
                let t0 = Instant::now();
                journal.append(&record).map_err(err)?;
                let t1 = Instant::now();
                collector.log(record).map_err(err)?;
                append += t1 - t0;
                log += t1.elapsed();
                in_batch += 1;
                if in_batch == BATCH {
                    // Append and log alternate record by record, as in
                    // `Run`; their sums are two adjoining spans.
                    rec.record("journal.append", batch_start, append);
                    rec.record("collector.enqueue", batch_start + append, log);
                    (append, log, in_batch) = (Duration::ZERO, Duration::ZERO, 0);
                    batch_start = Instant::now();
                }
            }
        }
        let state = collector.close().map_err(err)?;
        let journal_path = journal.path().to_path_buf();
        rec.time("journal.close", || journal.close())
            .0
            .map_err(err)?;
        self.layers
            .journal_bytes_per_sample
            .push(dir_bytes(&journal_path) as f64 / samples);

        let pool = WorkerPool::new(1);
        let policy = spill_policy();
        let series: Vec<&MetricSeries> = state.metrics.values().collect();
        let (spill, _) = rec.time("spill.encode", || {
            spill_metrics_pooled(&run_dir, &policy, &series, &pool)
        });
        let spill = spill.map_err(err)?;
        self.layers
            .spill_bytes_per_sample
            .push(spill.external_bytes as f64 / samples);
        let identity = RunIdentity {
            experiment: self.exp.name().to_string(),
            run: name.to_string(),
            user: "bench".to_string(),
            started_us,
            ended_us: time_of(inputs.steps),
        };
        let (doc, _) = rec.time("prov_emit.build", || {
            build_document(&identity, &state, &spill, false)
        });
        let prov_json = run_dir.join("prov.json");
        let (written, _) = rec.time("prov_emit.write", || {
            write_prov_files(&doc, &prov_json, &run_dir.join("prov.provn"))
        });
        written.map_err(err)?;

        let (decoded, _) = rec.time("spill.decode", || {
            METRICS
                .iter()
                .map(|(metric, ctx)| read_spilled(&run_dir, metric, ctx))
                .collect::<Result<Vec<_>, _>>()
        });
        decoded.map_err(err)?;
        let text = std::fs::read_to_string(&prov_json).map_err(|e| e.to_string())?;
        self.layers.doc_bytes.push(text.len() as f64);
        let (doc, took) = rec.time("prov_model.parse", || ProvDocument::from_json_str(&text));
        let doc = doc.map_err(|e| e.to_string())?;
        self.layers
            .parse_mb_per_s
            .push(text.len() as f64 / 1e6 / took.as_secs_f64());
        let (index, _) = rec.time("prov_graph.index_build", || GraphIndex::build(&doc));
        let graph = ProvGraph::with_index(&doc, std::sync::Arc::new(index));
        let (plan, _) = rec.time("prov_graph.plan", || {
            prov_graph::plan(&graph, &self.lineage)
        });
        let (set, _) = rec.time("prov_graph.exec", || {
            prov_graph::execute_with_plan(&graph, &self.lineage, plan)
        });
        self.layers.rows.push(set.rows.len() as f64);
        std::fs::remove_dir_all(&run_dir).map_err(|e| e.to_string())
    }
}

pub fn run(cfg: &Config, rec: &Recorder) -> Result<Outcome, String> {
    let tally = Tally::default();
    let mut out = Outcome::default();
    let per_block = cfg.per_block(RUNS_PER_BLOCK);

    // Set-up: every run's samples, the experiment directory, and one
    // block of runs as warm-up (thread spawns, allocator, page cache).
    let mut digest = Digest::default();
    let inputs: Vec<RunInputs> = (0..per_block * (cfg.blocks().len() + 1))
        .map(|i| {
            let inputs = RunInputs::generate(cfg.seed, i, cfg.steps(STEPS));
            digest.feed_f64s(&inputs.values);
            inputs
        })
        .collect();
    let mut driver = Driver {
        exp: Experiment::new("bench", cfg.data_dir.join("exp")).map_err(|e| e.to_string())?,
        contexts: METRICS.iter().map(|(_, c)| Context::from_name(c)).collect(),
        artifact: (0..ARTIFACT_BYTES).map(|i| (i % 251) as u8).collect(),
        lineage: PathQuery::from_json_str(LINEAGE_IR).map_err(|e| e.to_string())?,
        tally: &tally,
        rec,
        stored_bytes: 0,
        user_bytes: 0,
        layers: Layers::default(),
    };
    let mut clocks = Clocks::default();
    let mut blocks = inputs.chunks(per_block).enumerate();
    let mut run_block = |driver: &mut Driver, timed: &mut Timed| {
        let (b, runs) = blocks.next().expect("inputs for every block");
        timed.begin_block();
        let reloaded: Vec<_> = runs
            .iter()
            .enumerate()
            .filter_map(|(i, inputs)| {
                let op = (b * per_block + i) as u64;
                let reloaded = driver.lifecycle(op, &format!("run-{op}"), inputs, timed);
                timed.tick();
                reloaded
            })
            .collect();
        timed.end_block(reloaded.iter().map(|r| r.inputs.samples() as f64).sum());
        reloaded.into_iter().for_each(|r| driver.settle(r));
    };
    rec.set_enabled(false);
    run_block(&mut driver, &mut clocks.warm);
    (driver.stored_bytes, driver.user_bytes) = (0, 0);
    let setup_s = cfg.started.elapsed().as_secs_f64();
    for block in cfg.blocks() {
        run_block(&mut driver, clocks.for_block(block, rec));
    }
    rec.set_enabled(false);

    out.note(format!(
        "inputs: {} runs of {} samples, digest {}",
        inputs.len(),
        inputs[0].samples(),
        digest.hex()
    ));
    if !cfg.trace {
        out.end_to_end(setup_s, &clocks, driver.stored_bytes, driver.user_bytes);
    } else {
        let l = &driver.layers;
        out.set(
            "journal.bytes_per_sample",
            median(&l.journal_bytes_per_sample),
        );
        out.set("spill.bytes_per_sample", median(&l.spill_bytes_per_sample));
        out.set("prov_emit.doc_bytes", median(&l.doc_bytes));
        out.set_median("prov_model.parse_mb_per_s", &l.parse_mb_per_s);
        out.set("prov_graph.rows", median(&l.rows));
        out.set_span_medians(
            rec,
            &[
                // A span is a batch of `BATCH` calls: ms to ns per call.
                ("collector.log_ns", "collector.log", 1e6 / BATCH as f64),
                ("journal.append_ns", "journal.append", 1e6 / BATCH as f64),
                ("collector.drain_ms", "collector.drain", 1.0),
                ("spill.encode_ms", "spill.encode", 1.0),
                ("spill.decode_ms", "spill.decode", 1.0),
                ("prov_emit.build_ms", "prov_emit.build", 1.0),
                ("prov_emit.write_ms", "prov_emit.write", 1.0),
                ("prov_model.parse_ms", "prov_model.parse", 1.0),
                ("prov_graph.index_build_ms", "prov_graph.index_build", 1.0),
                ("prov_graph.plan_us", "prov_graph.plan", 1e3),
                ("prov_graph.exec_ms", "prov_graph.exec", 1.0),
            ],
        );
        out.client_diagnostics(&clocks.timed, &tally, &clocks.reference);
    }
    out.take_tally(&tally);
    Ok(out)
}
