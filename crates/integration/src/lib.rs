//! # integration
//!
//! Glue between the training simulator and the provenance library, plus
//! the repository's runnable examples and cross-crate integration
//! tests.
//!
//! The central export is [`ProvenanceObserver`]: a
//! [`train_sim::TrainObserver`] that logs every simulated step into a
//! [`yprov4ml::Run`] — exactly the coupling the paper establishes
//! between its training loops on Frontier and the yProv4ML logger.

use train_sim::sim::{EpochEvent, RunResult, SimConfig, StepEvent, TrainObserver};
use train_sim::TrainingSimulation;
use yprov4ml::model::Context;
use yprov4ml::{DeltaCadence, DeltaEmitter, Run};

/// Bridges simulator events into provenance records.
pub struct ProvenanceObserver<'a> {
    run: &'a Run,
    /// Log one step in every `log_every` (1 = all steps).
    log_every: u64,
    steps_seen: u64,
}

impl<'a> ProvenanceObserver<'a> {
    /// Logs every step.
    pub fn new(run: &'a Run) -> Self {
        ProvenanceObserver {
            run,
            log_every: 1,
            steps_seen: 0,
        }
    }

    /// Logs one step out of every `log_every` (plus all epoch events).
    pub fn with_stride(run: &'a Run, log_every: u64) -> Self {
        ProvenanceObserver {
            run,
            log_every: log_every.max(1),
            steps_seen: 0,
        }
    }
}

impl TrainObserver for ProvenanceObserver<'_> {
    fn on_run_start(&mut self, cfg: &SimConfig) {
        let run = self.run;
        run.log_param("architecture", cfg.model.arch.name());
        run.log_param("params", cfg.model.params);
        run.log_param("model_size", cfg.model.size_tag());
        run.log_param("layers", cfg.model.layers);
        run.log_param("hidden", cfg.model.hidden);
        run.log_param("gpus", cfg.gpus);
        run.log_param("per_gpu_batch", cfg.per_gpu_batch);
        run.log_param("global_batch", cfg.global_batch());
        run.log_param("epochs", cfg.epochs);
        run.log_param("dataset", cfg.dataset.name.as_str());
        run.log_param("dataset_samples", cfg.dataset.samples);
        run.log_param("machine", cfg.machine.name.as_str());
        run.start_context(Context::Training);
    }

    fn on_step(&mut self, e: &StepEvent) {
        self.steps_seen += 1;
        if !e.step.is_multiple_of(self.log_every) {
            return;
        }
        let t = (e.sim_time_s * 1e6) as i64;
        let run = self.run;
        run.log_metric_at("loss", Context::Training, e.step, e.epoch, t, e.loss);
        run.log_metric_at(
            "gpu_power_w",
            Context::Training,
            e.step,
            e.epoch,
            t,
            e.gpu_power_w,
        );
        run.log_metric_at(
            "gpu_util",
            Context::Training,
            e.step,
            e.epoch,
            t,
            e.gpu_util,
        );
        run.log_metric_at(
            "samples_per_s",
            Context::Training,
            e.step,
            e.epoch,
            t,
            e.samples_per_s,
        );
    }

    fn on_epoch_end(&mut self, e: &EpochEvent) {
        let t = (e.sim_time_s * 1e6) as i64;
        self.run.log_metric_at(
            "epoch_loss",
            Context::Validation,
            e.epoch as u64,
            e.epoch,
            t,
            e.loss,
        );
        self.run.log_metric_at(
            "energy_joules",
            Context::Validation,
            e.epoch as u64,
            e.epoch,
            t,
            e.joules_so_far,
        );
    }

    fn on_run_end(&mut self, r: &RunResult) {
        let run = self.run;
        run.end_context(Context::Training);
        run.log_output_param("final_loss", r.final_loss);
        run.log_output_param("energy_kwh", r.energy_kwh);
        run.log_output_param("walltime_s", r.walltime_s);
        run.log_output_param("steps", r.steps);
        run.log_output_param("samples_seen", r.samples_seen);
        run.log_output_param("completed", r.completed);
        run.log_output_param("loss_energy_product", r.loss_energy_product);
        run.log_output_param("mean_throughput", r.mean_throughput);
    }
}

/// Runs one simulated training job under provenance collection and
/// returns the simulator result (the provenance lives in `run`).
pub fn simulate_with_provenance(
    cfg: SimConfig,
    run: &Run,
    log_every: u64,
) -> Result<RunResult, String> {
    let sim = TrainingSimulation::new(cfg)?;
    let mut observer = ProvenanceObserver::with_stride(run, log_every);
    Ok(sim.run(&mut observer))
}

/// A [`TrainObserver`] that logs like [`ProvenanceObserver`] and, at a
/// [`DeltaCadence`], cuts a cumulative provenance snapshot of the live
/// run and hands it to `sink` — the live-streaming counterpart of the
/// finalize-only pipeline. Point the sink at
/// `yprov_service::client::Client::upload_delta` and a dashboard
/// watching the document sees the run advance epoch by epoch.
pub struct StreamingObserver<'a, F: FnMut(prov_model::ProvDocument)> {
    inner: ProvenanceObserver<'a>,
    run: &'a Run,
    emitter: DeltaEmitter,
    sink: F,
}

impl<'a, F: FnMut(prov_model::ProvDocument)> StreamingObserver<'a, F> {
    /// Observer logging one step in `log_every`, cutting deltas at
    /// `cadence`.
    pub fn new(run: &'a Run, log_every: u64, cadence: DeltaCadence, sink: F) -> Self {
        StreamingObserver {
            inner: ProvenanceObserver::with_stride(run, log_every),
            run,
            emitter: DeltaEmitter::new(cadence),
            sink,
        }
    }

    /// Number of deltas cut so far.
    fn deltas_emitted(&self) -> u64 {
        self.emitter.emitted()
    }
}

impl<F: FnMut(prov_model::ProvDocument)> TrainObserver for StreamingObserver<'_, F> {
    fn on_run_start(&mut self, cfg: &SimConfig) {
        self.inner.on_run_start(cfg);
    }

    fn on_step(&mut self, e: &StepEvent) {
        self.inner.on_step(e);
        if self.emitter.observe(e.step, e.epoch) {
            // A snapshot failure (collector gone) means the run is
            // being torn down; dropping the delta is the only sane
            // response mid-loop.
            if let Ok(doc) = self.run.snapshot_document() {
                (self.sink)(doc);
            }
        }
    }

    fn on_epoch_end(&mut self, e: &EpochEvent) {
        self.inner.on_epoch_end(e);
    }

    fn on_run_end(&mut self, r: &RunResult) {
        self.inner.on_run_end(r);
    }
}

/// Runs one simulated training job while streaming per-cadence deltas
/// to a provenance service document. Returns the simulator result and
/// the number of deltas shipped; any failed upload fails the call.
pub fn simulate_streaming_to_service(
    cfg: SimConfig,
    run: &Run,
    log_every: u64,
    cadence: DeltaCadence,
    client: &yprov_service::client::Client,
    document_id: &str,
) -> Result<(RunResult, u64), String> {
    let sim = TrainingSimulation::new(cfg)?;
    let mut errors: Vec<String> = Vec::new();
    let mut observer = StreamingObserver::new(run, log_every, cadence, |doc| {
        let delta = match doc.to_json_string() {
            Ok(json) => json,
            Err(e) => {
                errors.push(format!("serialize delta: {e}"));
                return;
            }
        };
        match client.upload_delta(document_id, &delta) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => errors.push(format!("delta upload answered HTTP {}", resp.status)),
            Err(e) => errors.push(format!("delta upload failed: {e}")),
        }
    });
    let result = sim.run(&mut observer);
    let shipped = observer.deltas_emitted();
    if errors.is_empty() {
        Ok((result, shipped))
    } else {
        Err(errors.join("; "))
    }
}

/// Runs a service test once per store backend: in memory, then durable.
/// Each pass gets a directory of its own under `base` (`memory/` and
/// `durable/`, the durable store in its `store/`).
pub fn for_each_store(
    base: &std::path::Path,
    test: impl Fn(yprov_service::DocumentStore, &std::path::Path),
) {
    eprintln!("over the memory store");
    test(yprov_service::DocumentStore::new(), &base.join("memory"));
    eprintln!("over the durable store");
    let dir = base.join("durable");
    let store =
        yprov_service::DocumentStore::persistent(dir.join("store")).expect("open a durable store");
    test(store, &dir);
}

/// A full-mesh cluster for the service tests. Node `i` is named
/// `ids[i]`, serves `stores[i]` and reaches every other node through a
/// [`testkit::FaultProxy`] of its own, so a test can fault one directed
/// peer link. The proxies bind first and stay bound, the servers bind
/// port 0, and each proxy then learns its server's address: no port is
/// released and bound again.
pub struct Mesh {
    ids: Vec<String>,
    /// The servers, in `ids` order; `None` once [`Mesh::kill`]ed.
    pub servers: Vec<Option<yprov_service::Server>>,
    /// Each server's own address, in `ids` order: where clients reach
    /// it.
    pub addrs: Vec<std::net::SocketAddr>,
    /// `links[from][to]`: the proxy `from` reaches `to` through, `None`
    /// on the diagonal.
    links: Vec<Vec<Option<testkit::FaultProxy>>>,
}

impl Mesh {
    /// Binds the mesh, every node pushing under `push_policy`.
    pub fn bind(
        ids: &[&str],
        stores: &[yprov_service::DocumentStore],
        push_policy: yprov_service::RetryPolicy,
    ) -> Mesh {
        use yprov_service::{ClusterConfig, NodeSpec, Server, ServerConfig};
        let links: Vec<Vec<Option<testkit::FaultProxy>>> = (0..ids.len())
            .map(|from| {
                let to = 0..ids.len();
                to.map(|to| (from != to).then(testkit::FaultProxy::bind))
                    .collect()
            })
            .collect();
        let servers: Vec<Server> = ids
            .iter()
            .zip(stores)
            .zip(&links)
            .map(|((id, store), links)| {
                let peers = ids.iter().zip(links);
                let peers = peers.filter_map(|(to, link)| {
                    link.as_ref().map(|link| NodeSpec::new(*to, link.addr()))
                });
                let cluster = ClusterConfig {
                    push_policy,
                    ..ClusterConfig::new(*id, peers.collect())
                };
                let config = ServerConfig {
                    cluster: Some(cluster),
                    ..Default::default()
                };
                Server::bind("127.0.0.1:0", store.clone(), config).expect("bind a node")
            })
            .collect();
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(Server::addr).collect();
        for link in &links {
            for (to, link) in link.iter().enumerate() {
                if let Some(link) = link {
                    link.forward_to(addrs[to]);
                }
            }
        }
        Mesh {
            ids: ids.iter().map(|id| id.to_string()).collect(),
            servers: servers.into_iter().map(Some).collect(),
            addrs,
            links,
        }
    }

    /// The proxy node `from` reaches node `to` through.
    pub fn link(&self, from: usize, to: usize) -> &testkit::FaultProxy {
        self.links[from][to]
            .as_ref()
            .expect("a node has no link to itself")
    }

    /// Every member at its server's own address, for a
    /// [`yprov_service::ClusterClient`].
    pub fn members(&self) -> Vec<yprov_service::NodeSpec> {
        let members = self.ids.iter().zip(&self.addrs);
        members
            .map(|(id, addr)| yprov_service::NodeSpec::new(id.clone(), *addr))
            .collect()
    }

    /// Shuts node `i` down. The links to it stay bound, and a peer that
    /// pushes through one finds nothing behind it.
    pub fn kill(&mut self, i: usize) {
        if let Some(server) = self.servers[i].take() {
            server.shutdown();
        }
    }

    /// Shuts every node still up down.
    pub fn shutdown(self) {
        for server in self.servers.into_iter().flatten() {
            server.shutdown();
        }
    }
}

/// Reconstructs a runnable [`SimConfig`] from a run's provenance
/// document — the paper's reproducibility goal ("reproducing an
/// experiment by simply sharing a provJSON file would become trivial").
///
/// Only configurations produced through [`ProvenanceObserver`] carry
/// enough parameters; anything else returns a descriptive error.
fn config_from_provenance(doc: &prov_model::ProvDocument) -> Result<SimConfig, String> {
    use train_sim::model::{Architecture, ModelConfig};
    use train_sim::sim::WalltimeCutoff;
    use train_sim::{DatasetSpec, MachineConfig};
    use yprov4ml::compare::RunSummary;

    let summary =
        RunSummary::from_document(doc).ok_or("document does not contain a yprov4ml run")?;
    let get = |key: &str| -> Result<&String, String> {
        summary
            .params
            .get(key)
            .ok_or_else(|| format!("provenance lacks parameter {key:?}"))
    };
    let parse_u64 = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("parameter {key:?} is not an integer"))
    };

    let arch = match get("architecture")?.as_str() {
        "MAE-ViT" => Architecture::MaeVit,
        "SwinT-V2" => Architecture::SwinV2,
        other => return Err(format!("unknown architecture {other:?}")),
    };
    let machine = match get("machine")?.as_str() {
        "frontier-like" => MachineConfig::frontier_like(),
        "workstation" => MachineConfig::workstation(),
        other => return Err(format!("unknown machine {other:?}")),
    };
    let dataset_name = get("dataset")?.clone();
    let samples = parse_u64("dataset_samples")?;
    let dataset = if dataset_name == "MODIS-1km-L1B" {
        DatasetSpec::modis().with_samples(samples)
    } else {
        DatasetSpec::tiny(samples)
    };

    Ok(SimConfig {
        model: ModelConfig::sized(arch, parse_u64("params")?),
        machine,
        dataset,
        gpus: parse_u64("gpus")? as u32,
        per_gpu_batch: parse_u64("per_gpu_batch")? as u32,
        epochs: parse_u64("epochs")? as u32,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: Default::default(),
    })
}

/// Replays a run from its provenance document and reports whether the
/// reproduced outcome matches the recorded one.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Loss recorded in the original provenance.
    pub recorded_loss: Option<f64>,
    /// Loss of the replayed run.
    pub replayed_loss: f64,
    /// True when both losses agree to 1e-9 (the simulator is
    /// deterministic, so any divergence means the provenance was
    /// incomplete or tampered with).
    pub reproduced: bool,
    /// The replayed simulator result.
    pub result: RunResult,
}

/// Replays the experiment described by a provenance document.
pub fn replay_from_provenance(doc: &prov_model::ProvDocument) -> Result<ReplayReport, String> {
    let cfg = config_from_provenance(doc)?;
    let result = TrainingSimulation::new(cfg)?.run(&mut train_sim::sim::NullObserver);
    let recorded_loss = yprov4ml::compare::RunSummary::from_document(doc)
        .and_then(|s| s.params.get("final_loss").and_then(|v| v.parse().ok()));
    let reproduced = recorded_loss
        .map(|r: f64| (r - result.final_loss).abs() < 1e-9)
        .unwrap_or(false);
    Ok(ReplayReport {
        recorded_loss,
        replayed_loss: result.final_loss,
        reproduced,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use train_sim::model::{Architecture, ModelConfig};
    use train_sim::sim::WalltimeCutoff;
    use train_sim::{DatasetSpec, MachineConfig};
    use yprov4ml::Experiment;

    fn small_cfg() -> SimConfig {
        SimConfig {
            model: ModelConfig::sized(Architecture::SwinV2, 100_000_000),
            machine: MachineConfig::frontier_like(),
            dataset: DatasetSpec::tiny(2_000),
            gpus: 8,
            per_gpu_batch: 32,
            epochs: 2,
            comm: Default::default(),
            cutoff: WalltimeCutoff::Unlimited,
            exercise_collective: false,
            phase: train_sim::sim::Phase::PreTraining,
            grad_accumulation: 1,
            resume_from: None,
            faults: Default::default(),
        }
    }

    #[test]
    fn observer_populates_provenance() {
        let base = std::env::temp_dir().join(format!("yint_obs_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let exp = Experiment::new("bridge", &base).unwrap();
        let run = exp.start_run("sim-run").unwrap();
        let result = simulate_with_provenance(small_cfg(), &run, 1).unwrap();
        let report = run.finish().unwrap();

        assert!(result.completed);
        assert!(report.params >= 12 + 8, "inputs + outputs recorded");
        assert!(report.metric_samples as u64 >= result.steps * 4);

        let doc = exp.load_run_document("sim-run").unwrap();
        assert!(prov_model::validate::is_valid(&doc));
        let summary = yprov4ml::compare::RunSummary::from_document(&doc).unwrap();
        assert_eq!(summary.params["architecture"], "SwinT-V2");
        assert!((summary.metrics["training/loss"] - result.final_loss).abs() < 1e-9);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn stride_reduces_volume() {
        let base = std::env::temp_dir().join(format!("yint_stride_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let exp = Experiment::new("stride", &base).unwrap();

        let dense_run = exp.start_run("dense").unwrap();
        let r1 = simulate_with_provenance(small_cfg(), &dense_run, 1).unwrap();
        let dense = dense_run.finish().unwrap();

        let sparse_run = exp.start_run("sparse").unwrap();
        let r2 = simulate_with_provenance(small_cfg(), &sparse_run, 10).unwrap();
        let sparse = sparse_run.finish().unwrap();

        assert_eq!(r1, r2, "stride changes logging, not simulation");
        assert!(dense.metric_samples > sparse.metric_samples * 5);
        std::fs::remove_dir_all(&base).ok();
    }
}
