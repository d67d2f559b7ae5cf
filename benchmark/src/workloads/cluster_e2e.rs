//! `cluster_e2e`: the ROADMAP's budget path, every layer once per
//! iteration, replication and verified replica apply dominating. Three
//! in-process durable nodes with `ClusterConfig::new`'s values
//! (replication 2, one required ack), one `ClusterClient`. An iteration
//! is the life of one sweep trial: tracked run (journal on) ->
//! `finish()` -> replicated `put` -> `get` of the previous trial ->
//! leakage audit of this one.
//! `1000 / work_per_s` is "ms from the first `log_metric` to replicated
//! and queryable".

use std::collections::BTreeMap;
use std::time::Instant;

use prov_model::ProvDocument;
use yprov4ml::{
    Context, Direction, Experiment, JournalConfig, JournalMode, RunOptions, SpillPolicy, SyncPolicy,
};
use yprov_service::cluster::Replicator;
use yprov_service::{Client, ClusterClient, ClusterConfig, DocumentStore};

use crate::gen::{canonical_json, epoch_of, time_of, RunInputs, LEAKAGE_AUDIT, METRICS};
use crate::harness::{dir_bytes, us, Clocks, Config, Kind, Outcome, Tally, Timed};
use crate::rng::Digest;
use crate::service::{self, expect_status, policy, Ring};
use crate::trace::Recorder;

const NODES: usize = 3;
const REPLICATION: usize = 2;
/// Steps per tracked run (12 inline metrics each: about 1 MB of
/// PROV-JSON).
const STEPS: u64 = 1_000;
/// Trials in a block at `RUN_SECONDS`; the work unit is one run made
/// queryable.
const TRIALS_PER_BLOCK: usize = 12;
/// Trials are put under `run-{i % LIVE_IDS}`: a bounded working set,
/// and every put after the first 32 supersedes an entry that the
/// replication log then ships chain-only.
const LIVE_IDS: usize = 32;

/// Inline metrics, and the crash-recovery journal on (flushed when
/// told to: `finish` closes it with one fsync): the one workload on
/// which every layer of the ROADMAP's path runs.
fn run_options() -> RunOptions {
    RunOptions {
        spill: SpillPolicy::Inline,
        user: Some("bench".into()),
        journal: true,
        journal_config: JournalConfig {
            sync: SyncPolicy::OnFlush,
            mode: JournalMode::FailIfExists,
            rotate_bytes: None,
        },
        ..Default::default()
    }
}

/// In-process twins for the traced run: a store that takes the upload,
/// one that takes its frame, and a replicator that pushes to the live
/// peers as a fourth ring member.
struct Shadow {
    primary: DocumentStore,
    replica: DocumentStore,
    replicator: Replicator,
    frames: f64,
    frame_bytes: f64,
}

/// What one trial put and got, kept until its block has ended.
struct Unchecked {
    run: String,
    id: String,
    /// What `finish` wrote and the trial put.
    prov_json: String,
    read_id: String,
    got: Result<String, String>,
}

struct Driver<'a> {
    exp: Experiment,
    cluster: ClusterClient,
    /// Plain clients, one per node, in `specs` order.
    nodes: Vec<Client>,
    contexts: Vec<Context>,
    tally: &'a Tally,
    rec: &'a Recorder,
    /// Canonical bytes of the latest document under each live id.
    latest: BTreeMap<String, String>,
    previous: Option<String>,
    /// Puts and gets of this block, checked by `settle` once the block
    /// has ended.
    unchecked: Vec<Unchecked>,
    bytes_put: u64,
    route_us: Vec<f64>,
    shadow: Option<Shadow>,
}

impl Driver<'_> {
    fn tracked_run(&self, id: &str, inputs: &RunInputs) -> Result<String, String> {
        let err = |e: yprov4ml::ProvMLError| e.to_string();
        let run = self.exp.start_run_with(id, run_options()).map_err(err)?;
        run.log_param("lr", 1e-3);
        run.log_param("batch_size", 64i64);
        // Both splits are read inside the training context: the leak the
        // audit must find.
        for split in ["train.csv", "test.csv"] {
            run.log_artifact_bytes_in(
                split,
                split.as_bytes(),
                Direction::Input,
                Some(Context::Training),
            )
            .map_err(err)?;
        }
        for step in 0..inputs.steps {
            for (m, (metric, _)) in METRICS.iter().enumerate() {
                run.log_metric_at(
                    *metric,
                    self.contexts[m].clone(),
                    step,
                    epoch_of(step),
                    time_of(step),
                    inputs.value(step, m),
                );
            }
        }
        let report = run.finish().map_err(err)?;
        if report.metric_samples as u64 != inputs.samples() {
            return Err(format!("{} samples in the report", report.metric_samples));
        }
        std::fs::read_to_string(&report.prov_json_path).map_err(|e| e.to_string())
    }

    /// Sum of counter `family` over the three nodes' `/metrics` pages.
    fn scrape_all(&self, family: &str) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| self.tally.check("scrape", service::scrape(n, family)))
            .fold(0.0, |sum, node| sum + node)
    }

    /// One trial. Returns 1 when the run was made queryable.
    fn trial(&mut self, i: usize, inputs: &RunInputs, timed: &mut Timed) -> f64 {
        let (tally, rec) = (self.tally, self.rec);
        let id = format!("run-{}", i % LIVE_IDS);
        let guard = rec.op(i as u64, "op.trial");

        // Run directories are the trials'; document ids cycle.
        let run = format!("trial-{i}");
        let (tracked, _) = rec.time("yprov4ml.tracked_run", || self.tracked_run(&run, inputs));
        let Some(prov_json) = tally.check("tracked run", tracked) else {
            return 0.0;
        };

        let (r, took) = rec.time("cluster.put", || self.cluster.put(&id, &prov_json));
        if tally
            .check("replicated put", expect_status(tally, r, 201))
            .is_none()
        {
            return 0.0;
        }
        timed.sample(Kind::Write, took);

        let read_id = self
            .previous
            .replace(id.clone())
            .unwrap_or_else(|| id.clone());
        let (got, read_took) = rec.time("cluster.get", || self.cluster.get(&read_id));
        let got = expect_status(tally, got, 200).map(|r| r.body);
        if got.is_ok() {
            timed.sample(Kind::Read, read_took);
        }

        let (r, took) = rec.time("cluster.query", || self.cluster.query(&id, LEAKAGE_AUDIT));
        let audited = expect_status(tally, r, 200).and_then(|r| {
            r.body
                .contains("\"clean\":false")
                .then_some(())
                .ok_or_else(|| format!("{id}: the audit missed test.csv reaching training"))
        });
        let queryable = tally.check("leakage audit", audited).is_some();
        if queryable {
            timed.sample(Kind::Query, took);
        }
        if rec.is_enabled() && i.is_multiple_of(2) {
            let r = self.shadow_put(i, &id, &prov_json, got.as_deref().ok());
            tally.check("shadow put", r);
        }
        drop(guard);
        self.unchecked.push(Unchecked {
            run,
            id,
            prov_json,
            read_id,
            got,
        });
        f64::from(u8::from(queryable))
    }

    /// After the block: what was put, in the form the nodes store it,
    /// and every fetched body against it. The run directories go.
    fn settle(&mut self) {
        let tally = self.tally;
        for trial in std::mem::take(&mut self.unchecked) {
            let canonical = ProvDocument::from_json_str(&trial.prov_json)
                .map(canonical_json)
                .map_err(|e| e.to_string());
            if let Some(canonical) = tally.check("canonical form", canonical) {
                self.bytes_put += canonical.len() as u64;
                self.latest.insert(trial.id.clone(), canonical);
            }
            let same = trial.got.and_then(|body| {
                (Some(&body) == self.latest.get(&trial.read_id))
                    .then_some(())
                    .ok_or_else(|| {
                        format!("{}: bytes differ from the canonical form", trial.read_id)
                    })
            });
            tally.check("routed get", same);
            let _ = std::fs::remove_dir_all(self.exp.dir().join(&trial.run));
        }
    }

    /// The cluster's work for one put, redone piece by piece: parse,
    /// the upload on an in-process primary, its frame on an in-process
    /// replica, and `Replicator::replicate` against the live peers.
    fn shadow_put(
        &mut self,
        i: usize,
        live_id: &str,
        body: &str,
        got: Option<&str>,
    ) -> Result<(), String> {
        let rec = self.rec;
        let _s = rec.span("shadow.put");
        let err = |e: yprov_service::ServiceError| e.to_string();
        // What every routed request pays to find its nodes, and what a
        // consumer that loads the fetched body pays on its own side.
        let t0 = Instant::now();
        let placement = self.cluster.placement(live_id);
        let route = t0.elapsed();
        rec.record("cluster.route", t0, route);
        self.route_us.push(us(route));
        if placement.len() != REPLICATION {
            return Err(format!("{live_id} placed on {placement:?}"));
        }
        if let Some(got) = got {
            let _ = rec.time("client.load", || ProvDocument::from_json_str(got));
        }
        let id = format!("shadow-{}", i % LIVE_IDS);
        let (doc, _) = rec.time("prov_model.parse", || ProvDocument::from_json_str(body));
        let doc = doc.map_err(|e| e.to_string())?;
        let shadow = self.shadow.as_ref().expect("traced run");
        let (up, _) = rec.time("store.upload", || shadow.primary.upload_as_full(id, doc));
        let up = up.map_err(err)?;
        let (r, _) = rec.time("store.apply_replicated", || {
            shadow
                .replica
                .apply_replicated("shadow", up.entry.clone(), Some(&up.canonical_json))
        });
        r.map_err(err)?;
        let before = (
            self.scrape_all("replication_frames_total"),
            self.scrape_all("replication_bytes_total"),
        );
        let (outcome, _) = rec.time("cluster.replicate", || {
            shadow.replicator.replicate(&shadow.primary, &up)
        });
        let after = (
            self.scrape_all("replication_frames_total"),
            self.scrape_all("replication_bytes_total"),
        );
        let shadow = self.shadow.as_mut().expect("traced run");
        shadow.frames += after.0 - before.0;
        shadow.frame_bytes += after.1 - before.1;
        outcome
            .acked()
            .then_some(())
            .ok_or(format!("replicate: {:?}", outcome.errors))
    }
}

pub fn run(cfg: &Config, rec: &Recorder) -> Result<Outcome, String> {
    let tally = Tally::default();
    let mut out = Outcome::default();
    let per_block = cfg.per_block(TRIALS_PER_BLOCK);

    // Set-up: samples, ring up, one block of trials as warm-up
    // (connections pooled, replica cursors opened).
    let mut digest = Digest::default();
    let inputs: Vec<RunInputs> = (0..per_block * (cfg.blocks().len() + 1))
        .map(|i| {
            let inputs = RunInputs::generate(cfg.seed, i, cfg.steps(STEPS));
            digest.feed_f64s(&inputs.values);
            inputs
        })
        .collect();
    let Ring {
        specs,
        servers,
        stores,
        dirs,
    } = service::ring(&cfg.data_dir.join("ring"), NODES)?;
    let shadow_registry = obs::Registry::new();
    let shadow = match cfg.trace {
        true => Some(Shadow {
            primary: service::durable_store(&cfg.data_dir.join("shadow-primary"))?,
            replica: service::durable_store(&cfg.data_dir.join("shadow-replica"))?,
            replicator: Replicator::new(
                ClusterConfig::new("shadow", specs.clone()),
                &shadow_registry,
            ),
            frames: 0.0,
            frame_bytes: 0.0,
        }),
        false => None,
    };
    let mut driver = Driver {
        exp: Experiment::new("bench", cfg.data_dir.join("exp")).map_err(|e| e.to_string())?,
        cluster: ClusterClient::new(specs.clone(), REPLICATION, policy(cfg.seed)),
        nodes: specs
            .iter()
            .map(|n| Client::new(n.addr, policy(cfg.seed)))
            .collect(),
        contexts: METRICS.iter().map(|(_, c)| Context::from_name(c)).collect(),
        tally: &tally,
        rec,
        latest: BTreeMap::new(),
        previous: None,
        unchecked: Vec::new(),
        bytes_put: 0,
        route_us: Vec::new(),
        shadow,
    };
    let mut clocks = Clocks::default();
    let mut blocks = inputs.chunks(per_block).enumerate();
    let mut run_block = |driver: &mut Driver, last: bool, timed: &mut Timed| {
        let (b, trials) = blocks.next().expect("inputs for every block");
        timed.begin_block();
        let mut done = 0.0;
        for (i, trial_inputs) in trials.iter().enumerate() {
            done += driver.trial(b * per_block + i, trial_inputs, timed);
            timed.tick();
        }
        if last {
            let (r, _) = rec.time("store.flush", || stores.iter().try_for_each(|s| s.flush()));
            tally.check("flush", r.map_err(|e| e.to_string()));
        }
        timed.end_block(done);
        driver.settle();
    };
    rec.set_enabled(false);
    run_block(&mut driver, false, &mut clocks.warm);
    let counters_before = cfg.trace.then(|| {
        (
            driver.scrape_all("replication_frames_total"),
            driver.scrape_all("replication_bytes_total"),
        )
    });
    driver.bytes_put = 0;
    let setup_s = cfg.started.elapsed().as_secs_f64();
    let kinds = cfg.blocks();
    for (b, block) in kinds.iter().enumerate() {
        let timed = clocks.for_block(*block, rec);
        run_block(&mut driver, b + 1 == kinds.len(), timed);
    }
    rec.set_enabled(false);

    out.note(format!(
        "inputs: {} runs of {} samples, digest {}; {} live ids",
        inputs.len(),
        inputs[0].samples(),
        digest.hex(),
        driver.latest.len()
    ));
    if let Some((frames_before, bytes_before)) = counters_before {
        let shadow = driver.shadow.as_ref().expect("traced run");
        let puts = (per_block * kinds.len()) as f64;
        let frames = driver.scrape_all("replication_frames_total") - frames_before - shadow.frames;
        let bytes =
            driver.scrape_all("replication_bytes_total") - bytes_before - shadow.frame_bytes;
        out.set("cluster.frames_per_put", frames / puts);
        out.set(
            "cluster.frame_bytes_per_user_byte",
            bytes / driver.bytes_put.max(1) as f64,
        );
        out.set("reactor.shed_total", driver.scrape_all("server_shed_total"));
        out.set_median("cluster.route_us", &driver.route_us);
        out.set_span_medians(
            rec,
            &[
                ("prov_model.parse_ms", "prov_model.parse", 1.0),
                ("store.upload_ms", "store.upload", 1.0),
                ("store.apply_replicated_ms", "store.apply_replicated", 1.0),
                ("cluster.replicate_ms", "cluster.replicate", 1.0),
                ("client.load_ms", "client.load", 1.0),
            ],
        );
        out.client_diagnostics(&clocks.timed, &tally, &clocks.reference);
    }

    // Teardown: both placement nodes of every live id hold the bytes
    // that were put; every node's chains verify and its directory
    // reopens.
    let placement = yprov_service::Ring::new(specs.iter().map(|n| n.id.clone()));
    for (id, canonical) in &driver.latest {
        for node in placement.replicas_for(id, REPLICATION) {
            let at = specs
                .iter()
                .position(|n| n.id == node)
                .expect("ring member");
            let held =
                expect_status(&tally, service::get(&driver.nodes[at], id), 200).and_then(|r| {
                    (r.body == *canonical)
                        .then_some(())
                        .ok_or_else(|| format!("{id}@{node}: bytes differ from what was put"))
                });
            tally.check("placement nodes hold identical bodies", held);
        }
    }
    let user_bytes: u64 = driver.latest.values().map(|b| b.len() as u64).sum();
    drop(driver);
    for ((server, store), dir) in servers.into_iter().zip(stores).zip(&dirs) {
        service::verify_then_restart(&tally, server, store, dir, None, cfg.seed);
    }
    if !cfg.trace {
        out.end_to_end(
            setup_s,
            &clocks,
            dir_bytes(&cfg.data_dir.join("ring")),
            user_bytes,
        );
    }
    out.take_tally(&tally);
    Ok(out)
}
