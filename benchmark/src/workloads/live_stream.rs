//! `live_stream`: the producer and store layers used differently. A
//! training thread logs twelve inline metrics and, every 80 steps,
//! cuts a cumulative snapshot of the live run and uploads it as a
//! delta; a watcher parked in the long-poll receives every version, and
//! the trainer then asks a path query of the live document. `snapshot_document`
//! instead of `close`, `merge_delta` + `apply_delta` +
//! `GraphIndex::extended` instead of replace + full build, and
//! documents that grow with the run.
//!
//! The watcher is the only second thread of the benchmark, and the
//! trainer waits for its receipt before it goes on: the two never
//! compete for a processor.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use prov_model::ProvDocument;
use yprov4ml::{Context, Experiment, Run, RunOptions, SpillPolicy};
use yprov_service::{Client, ClientError, DocumentStore, Response};

use crate::gen::{canonical_json, epoch_of, time_of, to_json, RunInputs, METRICS};
use crate::harness::{dir_bytes, ms, Clocks, Config, Kind, Outcome, Tally, Timed};
use crate::rng::Digest;
use crate::service::{self, expect_status, json_u64, policy};
use crate::trace::Recorder;

/// Steps per streamed run (12 metrics each) and the cumulative deltas
/// cut from it, one every 80 steps; `finish()` and the final document
/// make the 21st.
const STEPS: u64 = 1_600;
const DELTAS: u64 = 20;
/// Streamed runs in a block at `RUN_SECONDS`; the work unit is one
/// sample streamed.
const RUNS_PER_BLOCK: usize = 2;
/// "Which metrics has this run generated, and in which activity": what
/// a dashboard asks of a live run after every delta.
const LIVE_QUERY: &str = r#"{"query":{"start":{"kind":"entity","typeIs":"yprov4ml:Metric"},"steps":[{"rels":["wasGeneratedBy"],"dir":"forward","repeat":"1","target":{"kind":"activity"}}]}}"#;

/// Inline metrics: the only mode in which a dashboard sees samples.
fn run_options() -> RunOptions {
    RunOptions {
        spill: SpillPolicy::Inline,
        user: Some("bench".into()),
        ..Default::default()
    }
}

fn log_steps(run: &Run, contexts: &[Context], inputs: &RunInputs, steps: std::ops::Range<u64>) {
    for step in steps {
        for (m, (metric, _)) in METRICS.iter().enumerate() {
            run.log_metric_at(
                *metric,
                contexts[m].clone(),
                step,
                epoch_of(step),
                time_of(step),
                inputs.value(step, m),
            );
        }
    }
}

/// What the watcher hands back for each long-poll it was asked to make.
struct Seen {
    at: Instant,
    response: Result<Response, ClientError>,
}

/// Long-polls `(id, after)` as told, one poll per message, and reports
/// when each returned.
fn watcher(client: Client, polls: mpsc::Receiver<(String, u64)>, seen: mpsc::Sender<Seen>) {
    for (id, after) in polls {
        let response = client.watch(&id, after, Duration::from_secs(10));
        let at = Instant::now();
        if seen.send(Seen { at, response }).is_err() {
            return;
        }
    }
}

#[derive(Default)]
struct Layers {
    wake_ms: Vec<f64>,
    parse_mb_per_s: Vec<f64>,
}

struct Trainer<'a> {
    exp: Experiment,
    client: Client,
    contexts: Vec<Context>,
    polls: mpsc::Sender<(String, u64)>,
    seen: mpsc::Receiver<Seen>,
    tally: &'a Tally,
    rec: &'a Recorder,
    /// Traced run: an in-process store fed the same deltas.
    shadow: Option<DocumentStore>,
    layers: Layers,
    deltas: u64,
    /// Canonical bytes of every streamed run's final document.
    user_bytes: u64,
    /// `(id, what finish wrote)` of the runs streamed in this block,
    /// checked by `settle` once the block has ended.
    finished: Vec<(String, String)>,
}

impl Trainer<'_> {
    /// One delta: cut, serialise, upload; the watcher's receipt; the
    /// query. `cut` makes the document to send.
    fn delta(
        &mut self,
        id: &str,
        version: u64,
        cut: impl FnOnce() -> Result<String, String>,
        timed: &mut Timed,
    ) -> Option<String> {
        let (tally, rec) = (self.tally, self.rec);
        self.deltas += 1;
        let guard = rec.op(self.deltas, "op.delta");
        // The poll is posted before the cut, so the watcher is parked
        // server-side by the time the delta arrives.
        self.polls
            .send((id.to_string(), version))
            .expect("the watcher outlives the trainer");
        let write_start = Instant::now();
        let body = tally.check("snapshot", cut())?;
        let upload_start = Instant::now();
        let (r, _) = rec.time("http.delta", || self.client.upload_delta(id, &body));
        let acked_at = Instant::now();
        let acked = expect_status(tally, r, 200).and_then(|r| match json_u64(&r.body, "version") {
            Some(v) if v == version + 1 => Ok(()),
            other => Err(format!("delta acknowledged as version {other:?}")),
        });
        if tally.check("upload_delta", acked).is_some() {
            timed.sample(Kind::Write, acked_at - write_start);
        }

        let seen = self.seen.recv().expect("the watcher answers every poll");
        let visible = seen.at.saturating_duration_since(upload_start);
        rec.record("watch.visible", upload_start, visible);
        let watched = expect_status(tally, seen.response, 200).and_then(|r| {
            match json_u64(&r.body, "version") {
                Some(v) if v == version + 1 && r.body.contains("\"changed\":true") => Ok(()),
                other => Err(format!("watch returned version {other:?} after {version}")),
            }
        });
        if tally.check("watch", watched).is_some() {
            timed.sample(Kind::Read, visible);
            // Receipt minus acknowledgement; negative when the watcher
            // holds the new version before the uploader has its answer.
            self.layers
                .wake_ms
                .push(ms(visible) - ms(acked_at - upload_start));
        }

        let (r, took) = rec.time("http.query", || self.client.query(id, LIVE_QUERY));
        let rows = expect_status(tally, r, 200).and_then(|r| {
            let want = METRICS.len() as u64;
            match json_u64(&r.body, "row_count") {
                Some(n) if n == want => Ok(()),
                other => Err(format!("{other:?} rows, wanted {want}")),
            }
        });
        if tally.check("live query", rows).is_some() {
            timed.sample(Kind::Query, took);
        }
        if rec.is_enabled() && self.deltas.is_multiple_of(2) {
            let r = self.shadow_merge(id, &body);
            tally.check("shadow merge", r);
        }
        drop(guard);
        timed.tick();
        Some(body)
    }

    /// The server's work for one delta, redone in-process in path
    /// order: parse, `apply_delta` and `GraphIndex::extended` on their
    /// own, serialise, then the whole `merge_delta`.
    fn shadow_merge(&mut self, id: &str, body: &str) -> Result<(), String> {
        let rec = self.rec;
        let shadow = self.shadow.as_ref().expect("traced run");
        let _s = rec.span("shadow.delta");
        let err = |e: yprov_service::ServiceError| e.to_string();
        let (delta, took) = rec.time("prov_model.parse", || ProvDocument::from_json_str(body));
        let delta = delta.map_err(|e| e.to_string())?;
        self.layers
            .parse_mb_per_s
            .push(body.len() as f64 / 1e6 / took.as_secs_f64());
        let current = shadow.graph(id).map_err(err)?;
        let mut merged = (**current.document()).clone();
        let (applied, _) = rec.time("prov_model.apply_delta", || merged.apply_delta(&delta));
        let applied = applied.map_err(|e| e.to_string())?;
        let _ = rec.time("prov_graph.index_extend", || {
            current.index().extended(&merged, &applied.new_relations)
        });
        let _ = rec.time("prov_model.serialize", || to_json(&merged));
        let (r, _) = rec.time("store.merge_delta", || shadow.merge_delta(id, &delta));
        r.map(|_| ()).map_err(err)
    }

    /// Streams one run into document `id`; returns the samples streamed.
    fn stream(&mut self, id: &str, inputs: &RunInputs, timed: &mut Timed) -> f64 {
        let (tally, rec) = (self.tally, self.rec);
        let started = self.exp.start_run_with(id, run_options());
        let Some(run) = tally.check("start_run", started.map_err(|e| e.to_string())) else {
            return 0.0;
        };
        // The first snapshot opens the live document at version 1.
        let opened = run
            .snapshot_document()
            .map_err(|e| e.to_string())
            .and_then(|doc| {
                let r = service::put(&self.client, id, &to_json(&doc));
                expect_status(tally, r, 201).map(|_| doc)
            });
        let Some(first) = tally.check("open live document", opened) else {
            return 0.0;
        };
        if let Some(shadow) = &self.shadow {
            tally.check(
                "shadow open",
                shadow.upload_as_full(id, first).map_err(|e| e.to_string()),
            );
        }

        let mut version = 1;
        let every = inputs.steps / DELTAS;
        for cut_at in (every..=inputs.steps).step_by(every as usize) {
            let _ = rec.time("collector.log", || {
                log_steps(&run, &self.contexts, inputs, cut_at - every..cut_at)
            });
            let cut = || {
                let (doc, _) = rec.time("collector.snapshot", || run.snapshot_document());
                let doc = doc.map_err(|e| e.to_string())?;
                Ok(rec.time("prov_model.serialize", || to_json(&doc)).0)
            };
            if self.delta(id, version, cut, timed).is_none() {
                return 0.0;
            }
            version += 1;
        }

        // Finalize, and seal the stream with the finished document.
        let sealed = self.delta(
            id,
            version,
            || {
                let report = rec.time("yprov4ml.finish", || run.finish()).0;
                let report = report.map_err(|e| e.to_string())?;
                std::fs::read_to_string(&report.prov_json_path).map_err(|e| e.to_string())
            },
            timed,
        );
        let Some(final_json) = sealed else {
            return 0.0;
        };
        self.finished.push((id.to_string(), final_json));
        inputs.samples() as f64
    }

    /// After the block: every run streamed in it equals the
    /// finalize-only bytes (the canonical form of what `finish` wrote).
    fn settle(&mut self) {
        let tally = self.tally;
        for (id, final_json) in std::mem::take(&mut self.finished) {
            let converged = ProvDocument::from_json_str(&final_json)
                .map(canonical_json)
                .map_err(|e| e.to_string())
                .and_then(|canonical| {
                    self.user_bytes += canonical.len() as u64;
                    let streamed = expect_status(tally, service::get(&self.client, &id), 200)?;
                    (streamed.body == canonical).then_some(()).ok_or_else(|| {
                        format!("{id}: streamed document differs from the finalize-only bytes")
                    })
                });
            tally.check("stream converges", converged);
            let _ = std::fs::remove_dir_all(self.exp.dir().join(&id));
        }
    }
}

pub fn run(cfg: &Config, rec: &Recorder) -> Result<Outcome, String> {
    let tally = Tally::default();
    let mut out = Outcome::default();
    let per_block = cfg.per_block(RUNS_PER_BLOCK);

    // Set-up: samples, node up, the watcher started, one block of
    // streamed runs as warm-up.
    let mut digest = Digest::default();
    let inputs: Vec<RunInputs> = (0..per_block * (cfg.blocks().len() + 1))
        .map(|i| {
            let inputs = RunInputs::generate(cfg.seed, i, cfg.steps(STEPS));
            digest.feed_f64s(&inputs.values);
            inputs
        })
        .collect();
    let node_dir = cfg.data_dir.join("node");
    let (server, store) = service::single_node(&node_dir)?;
    let (polls, poll_rx) = mpsc::channel();
    let (seen_tx, seen) = mpsc::channel();
    let watch_client = Client::new(server.addr(), policy(cfg.seed ^ 1));
    let watcher = std::thread::Builder::new()
        .name("bench-watcher".into())
        .spawn(move || watcher(watch_client, poll_rx, seen_tx))
        .map_err(|e| e.to_string())?;
    let mut trainer = Trainer {
        exp: Experiment::new("bench", cfg.data_dir.join("exp")).map_err(|e| e.to_string())?,
        client: Client::new(server.addr(), policy(cfg.seed)),
        contexts: METRICS.iter().map(|(_, c)| Context::from_name(c)).collect(),
        polls,
        seen,
        tally: &tally,
        rec,
        shadow: match cfg.trace {
            true => Some(service::durable_store(&cfg.data_dir.join("shadow-store"))?),
            false => None,
        },
        layers: Layers::default(),
        deltas: 0,
        user_bytes: 0,
        finished: Vec::new(),
    };
    let mut clocks = Clocks::default();
    let mut blocks = inputs.chunks(per_block).enumerate();
    let mut run_block = |trainer: &mut Trainer, last: bool, timed: &mut Timed| {
        let (b, runs) = blocks.next().expect("inputs for every block");
        timed.begin_block();
        let mut samples = 0.0;
        for (i, run_inputs) in runs.iter().enumerate() {
            samples += trainer.stream(&format!("live-{}", b * per_block + i), run_inputs, timed);
        }
        if last {
            let (r, _) = rec.time("store.flush", || store.flush());
            tally.check("flush", r.map_err(|e| e.to_string()));
        }
        timed.end_block(samples);
        trainer.settle();
    };
    rec.set_enabled(false);
    run_block(&mut trainer, false, &mut clocks.warm);
    let merges_before = store.incremental_merges();
    let deltas_before = trainer.deltas;
    let setup_s = cfg.started.elapsed().as_secs_f64();
    let kinds = cfg.blocks();
    for (b, block) in kinds.iter().enumerate() {
        let timed = clocks.for_block(*block, rec);
        run_block(&mut trainer, b + 1 == kinds.len(), timed);
    }
    rec.set_enabled(false);

    let deltas = trainer.deltas - deltas_before;
    let merges = store.incremental_merges() - merges_before;
    tally.check(
        "every merge extended the cached index",
        (merges == deltas)
            .then_some(())
            .ok_or(format!("{merges} incremental merges for {deltas} deltas")),
    );
    out.note(format!(
        "inputs: {} runs of {} samples, digest {}; {deltas} deltas after the warm-up",
        inputs.len(),
        inputs[0].samples(),
        digest.hex()
    ));
    if cfg.trace {
        out.set_median("watch.wake_ms", &trainer.layers.wake_ms);
        out.set_median("prov_model.parse_mb_per_s", &trainer.layers.parse_mb_per_s);
        out.set(
            "store.incremental_merge_ratio",
            merges as f64 / deltas.max(1) as f64,
        );
        out.set_span_medians(
            rec,
            &[
                // A `collector.log` span is the calls between two cuts.
                (
                    "collector.log_ns",
                    "collector.log",
                    1e6 / (cfg.steps(STEPS) / DELTAS * METRICS.len() as u64) as f64,
                ),
                ("collector.snapshot_ms", "collector.snapshot", 1.0),
                ("prov_model.parse_ms", "prov_model.parse", 1.0),
                ("prov_model.serialize_ms", "prov_model.serialize", 1.0),
                ("prov_model.apply_delta_ms", "prov_model.apply_delta", 1.0),
                ("prov_graph.index_extend_ms", "prov_graph.index_extend", 1.0),
                ("store.merge_delta_ms", "store.merge_delta", 1.0),
            ],
        );
        out.set(
            "reactor.shed_total",
            tally
                .check(
                    "scrape",
                    service::scrape(&trainer.client, "server_shed_total"),
                )
                .unwrap_or(0.0),
        );
        out.client_diagnostics(&clocks.timed, &tally, &clocks.reference);
    }
    let (user_bytes, documents) = (trainer.user_bytes, inputs.len());
    drop(trainer);
    watcher.join().map_err(|_| "the watcher panicked")?;
    service::verify_then_restart(&tally, server, store, &node_dir, Some(documents), cfg.seed);
    if !cfg.trace {
        out.end_to_end(setup_s, &clocks, dir_bytes(&node_dir), user_bytes);
    }
    out.take_tally(&tally);
    Ok(out)
}
