//! The training-run orchestrator.
//!
//! Walks simulated time step by step: computes each DDP step's duration
//! from the FLOP and communication models, advances the loss along the
//! architecture's scaling law, integrates node energy with the
//! `energy-monitor` substrate, and reports everything through a
//! [`TrainObserver`] — the hook the provenance library attaches to.

use crate::comm::{step_comm_cost, DdpCommConfig};
use crate::dataset::DatasetSpec;
use crate::ddp;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::machine::MachineConfig;
use crate::model::ModelConfig;
use crate::scaling_law::LossLaw;
use energy_monitor::device::{epyc_7a53, mi250x_gcd, node_overhead};
use energy_monitor::sampler::{PowerSampler, VirtualClock};
use std::sync::Arc;

/// Which stage of the paper's two-stage recipe a run simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Self-supervised pre-training (MAE masking applies).
    PreTraining,
    /// Fine-tuning on labeled data with most layers frozen (paper §5:
    /// "all layers except for the final prediction head are kept
    /// frozen").
    FineTuning {
        /// Fraction of parameters that stay frozen (0..=1).
        frozen_fraction: f64,
    },
}

/// Walltime budget of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalltimeCutoff {
    /// No limit: run to the configured number of epochs.
    Unlimited,
    /// Abort (mark incomplete) once simulated walltime passes this many
    /// seconds — the paper uses the Frontier batch limit of 2 hours.
    Seconds(f64),
}

impl WalltimeCutoff {
    /// The paper's two-hour batch-queue limit.
    pub fn paper_two_hours() -> Self {
        WalltimeCutoff::Seconds(2.0 * 3600.0)
    }

    fn exceeded(&self, t: f64) -> bool {
        match self {
            WalltimeCutoff::Unlimited => false,
            WalltimeCutoff::Seconds(s) => t > *s,
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The model being trained.
    pub model: ModelConfig,
    /// The machine it runs on.
    pub machine: MachineConfig,
    /// The dataset it consumes.
    pub dataset: DatasetSpec,
    /// Number of data-parallel GPUs (GCDs).
    pub gpus: u32,
    /// Per-GPU micro-batch size.
    pub per_gpu_batch: u32,
    /// Number of passes over the dataset.
    pub epochs: u32,
    /// Communication model tunables.
    pub comm: DdpCommConfig,
    /// Walltime budget.
    pub cutoff: WalltimeCutoff,
    /// Run a real threaded ring all-reduce on a proxy gradient once per
    /// epoch, to exercise concurrent code paths (slower; off for sweeps).
    pub exercise_collective: bool,
    /// Pre-training or fine-tuning (affects FLOPs, gradient volume and
    /// masking).
    pub phase: Phase,
    /// Gradient-accumulation micro-steps per optimizer step (1 = plain
    /// DDP). Accumulation amortizes the all-reduce over N forward/
    /// backward passes at the cost of an N× larger effective batch.
    pub grad_accumulation: u32,
    /// Resume from a previous run's checkpoint instead of from scratch.
    pub resume_from: Option<Checkpoint>,
    /// Deterministic fault schedule (empty = fault-free).
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A fine-tuning variant of this configuration: frozen backbone,
    /// labeled subset of the dataset.
    pub fn into_finetune(mut self, frozen_fraction: f64, labeled_samples: u64) -> Self {
        self.phase = Phase::FineTuning { frozen_fraction };
        self.dataset = self.dataset.with_samples(labeled_samples);
        self
    }

    /// Global batch size across all GPUs per *optimizer* step
    /// (micro-batch × accumulation × GPUs).
    pub fn global_batch(&self) -> u32 {
        self.gpus * self.per_gpu_batch * self.grad_accumulation
    }

    /// Validates the configuration, including the memory-fit check that
    /// kills real jobs before they start.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        if self.gpus == 0 {
            return Err("at least one GPU required".into());
        }
        if self.per_gpu_batch == 0 {
            return Err("per-GPU batch must be positive".into());
        }
        if self.grad_accumulation == 0 {
            return Err("grad_accumulation must be positive".into());
        }
        if self.epochs == 0 {
            return Err("at least one epoch required".into());
        }
        self.faults.validate()?;
        let need = self.model.memory_bytes(self.per_gpu_batch);
        if need > self.machine.gpu_memory_bytes {
            return Err(format!(
                "model needs {:.1} GiB per GPU but only {:.1} GiB available",
                need as f64 / (1u64 << 30) as f64,
                self.machine.gpu_memory_bytes as f64 / (1u64 << 30) as f64
            ));
        }
        Ok(())
    }
}

/// A resumable training checkpoint: enough state to continue a run
/// after a walltime cutoff (the reality behind the paper's 2-hour
/// queue limit — long studies run as chains of jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Samples consumed before the checkpoint.
    pub samples_seen: u64,
    /// Optimizer steps completed before the checkpoint.
    pub steps: u64,
    /// Epochs fully completed before the checkpoint.
    pub epochs_completed: u32,
}

/// Per-step telemetry delivered to observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEvent {
    /// Global step index (0-based).
    pub step: u64,
    /// Epoch this step belongs to (0-based).
    pub epoch: u32,
    /// Simulated walltime at step end, seconds.
    pub sim_time_s: f64,
    /// Duration of this step, seconds.
    pub step_time_s: f64,
    /// Training loss after this step.
    pub loss: f64,
    /// Samples consumed so far (all ranks).
    pub samples_seen: u64,
    /// Mean per-GPU draw during this step, watts.
    pub gpu_power_w: f64,
    /// GPU compute utilization during this step (0..=1).
    pub gpu_util: f64,
    /// Throughput in samples/s for this step.
    pub samples_per_s: f64,
}

/// End-of-epoch telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochEvent {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Simulated walltime at epoch end.
    pub sim_time_s: f64,
    /// Loss at epoch end.
    pub loss: f64,
    /// Energy consumed so far, joules.
    pub joules_so_far: f64,
}

/// Observer hook for provenance collection (all methods default to
/// no-ops so implementors only write what they need).
pub trait TrainObserver {
    /// Called once before the first step.
    fn on_run_start(&mut self, _cfg: &SimConfig) {}
    /// Called after every optimization step.
    fn on_step(&mut self, _event: &StepEvent) {}
    /// Called at each epoch boundary.
    fn on_epoch_end(&mut self, _event: &EpochEvent) {}
    /// Called once when the run finishes or is cut off.
    fn on_run_end(&mut self, _result: &RunResult) {}
}

/// A no-op observer.
pub struct NullObserver;
impl TrainObserver for NullObserver {}

/// Outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Final training loss.
    pub final_loss: f64,
    /// Total energy across all nodes, joules.
    pub energy_joules: f64,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Simulated walltime, seconds.
    pub walltime_s: f64,
    /// Steps executed.
    pub steps: u64,
    /// Samples consumed.
    pub samples_seen: u64,
    /// Epochs fully completed.
    pub epochs_completed: u32,
    /// False when the walltime cutoff aborted the run (the paper's
    /// "empty cells").
    pub completed: bool,
    /// Mean achieved samples/s.
    pub mean_throughput: f64,
    /// The paper's Figure 3 metric: loss × total energy (kWh).
    pub loss_energy_product: f64,
    /// State to resume from (meaningful when `!completed`; always set).
    /// After a fatal fault this is the last epoch-boundary checkpoint —
    /// step-granular state died with the process.
    pub checkpoint: Checkpoint,
    /// The fatal fault that aborted the run, if any.
    pub fault: Option<FaultEvent>,
    /// Non-fatal faults (stragglers, transient collective errors) that
    /// fired during the executed step range.
    pub faults_injected: u32,
}

/// The simulator.
pub struct TrainingSimulation {
    cfg: SimConfig,
    law: LossLaw,
}

impl TrainingSimulation {
    /// Builds a simulation after validating the configuration.
    pub fn new(cfg: SimConfig) -> Result<Self, String> {
        cfg.validate()?;
        let law = LossLaw::for_architecture(cfg.model.arch);
        Ok(TrainingSimulation { cfg, law })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Duration of one optimization step in seconds, decomposed as
    /// `(total, compute, exposed_comm, io)`.
    fn step_time(&self) -> (f64, f64, f64, f64) {
        let m = &self.cfg.model;
        let machine = &self.cfg.machine;
        let (flops_per_sample, grad_bytes) = match self.cfg.phase {
            Phase::PreTraining => (m.flops_per_sample(), m.gradient_bytes()),
            Phase::FineTuning { frozen_fraction } => (
                m.flops_per_sample_finetune(frozen_fraction),
                m.gradient_bytes_finetune(frozen_fraction),
            ),
        };
        // Compute covers every accumulation micro-step; the all-reduce
        // fires once per optimizer step regardless of accumulation.
        let flops =
            flops_per_sample * self.cfg.per_gpu_batch as f64 * self.cfg.grad_accumulation as f64;
        let effective = machine.gpu_peak_flops * m.arch.mfu();
        let compute = flops / effective;
        let comm = step_comm_cost(grad_bytes, self.cfg.gpus, machine, &self.cfg.comm)
            .exposed_after_overlap;
        // Data loading: per node, `gpus_per_node` ranks share the node's
        // I/O bandwidth; loading overlaps compute (prefetch), so only
        // the excess is exposed.
        let local_ranks = self.cfg.gpus.min(machine.gpus_per_node) as f64;
        let io = self.cfg.dataset.bytes_per_sample() as f64
            * self.cfg.per_gpu_batch as f64
            * self.cfg.grad_accumulation as f64
            * local_ranks
            / machine.io_bw;
        let total = (compute + comm).max(io);
        (total, compute, comm, io)
    }

    /// Runs the simulation, reporting through `observer`.
    pub fn run(&self, observer: &mut dyn TrainObserver) -> RunResult {
        let cfg = &self.cfg;
        observer.on_run_start(cfg);

        let (step_time, compute, comm, _io) = self.step_time();
        let gpu_util = (compute / step_time).clamp(0.0, 1.0);
        // Communication keeps the GCD partially busy too.
        let comm_util = 0.3 * (comm / step_time).clamp(0.0, 1.0);
        let util = (gpu_util + comm_util).clamp(0.0, 1.0);

        let gcd = mi250x_gcd();
        let cpu = epyc_7a53();
        let overhead = node_overhead();
        let nodes = cfg.machine.nodes_for(cfg.gpus) as f64;
        let gpu_power = gcd.power_at(util);
        let node_power = cfg.gpus.min(cfg.machine.gpus_per_node) as f64 * gpu_power
            + cpu.power_at(0.35)
            + overhead.power_at(0.5);
        // Full nodes plus the partial node draw the same per-node power
        // (allocation is node-granular on Frontier).
        let total_power = node_power * nodes;

        // Sample power on a virtual clock through the telemetry
        // substrate, once per step (what the real library does with SMI).
        let clock = VirtualClock::manual();
        let sampler = PowerSampler::manual(Arc::clone(&clock));
        sampler.sample_now(total_power);

        let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
        let global_batch = cfg.global_batch() as u64;

        // Step-indexed loop: resume granularity is the optimizer step,
        // so a chained sequence of cutoff jobs replays the exact same
        // trajectory as one uncapped run.
        let start = cfg.resume_from.unwrap_or_default();
        let total_steps = steps_per_epoch * cfg.epochs as u64;
        let mut t = 0.0f64;
        let mut step: u64 = start.steps.min(total_steps);
        let mut samples: u64 = start.samples_seen;
        let mut loss = self
            .law
            .noisy_loss(cfg.model.params, (samples.max(1)) as f64, step);
        let mut completed = true;
        let mut epochs_completed = (step / steps_per_epoch.max(1)) as u32;
        let start_step = step;
        let mut fatal: Option<FaultEvent> = None;
        // Epoch-boundary checkpoint: what survives a fatal fault
        // (step-granular state dies with the process).
        let mut last_ckpt = Checkpoint {
            samples_seen: samples,
            steps: step,
            epochs_completed,
        };

        while step < total_steps {
            // A GPU failure scheduled for the step we are about to
            // execute kills the run before the step completes.
            if let Some(ev) = cfg.faults.fatal_at(step) {
                fatal = Some(ev);
                completed = false;
                break;
            }

            let epoch = (step / steps_per_epoch) as u32;
            // Non-fatal faults stretch the step: DDP runs at the pace
            // of its slowest rank, and a transient collective error
            // repeats the whole step once per retry.
            let slowdown = cfg.faults.slowdown_at(step);
            let retries = cfg.faults.allreduce_retries_at(step);
            let this_step = step_time * slowdown * (1 + retries) as f64;
            let step_index = step;
            let step_start = t;
            t += this_step;
            step += 1;
            samples += global_batch;
            loss = self.law.noisy_loss(cfg.model.params, samples as f64, step);

            clock.set_s(t);
            sampler.sample_now(total_power);

            // Per-rank causal spans on the simulated clock: one track
            // per rank, a step span enclosing compute and all-reduce.
            // DDP runs at the pace of its slowest rank, so under a
            // straggler one rank's compute stretches while the rest
            // wait inside the collective.
            if obs::trace::is_enabled() {
                let to_ns = |s: f64| (s * 1e9) as u64;
                let straggler = if slowdown > 1.0 {
                    (step_index % cfg.gpus as u64) as u32
                } else {
                    u32::MAX
                };
                let step_label = step_index.to_string();
                let epoch_label = epoch.to_string();
                let retries_label = retries.to_string();
                for rank in 0..cfg.gpus {
                    let track = format!("rank {rank}");
                    let step_id = obs::trace::record_complete(
                        &track,
                        "step",
                        to_ns(step_start),
                        to_ns(t),
                        0,
                        &[("step", &step_label), ("epoch", &epoch_label)],
                    );
                    let compute_s = if rank == straggler {
                        compute * slowdown
                    } else {
                        compute
                    };
                    obs::trace::record_complete(
                        &track,
                        "compute",
                        to_ns(step_start),
                        to_ns(step_start + compute_s),
                        step_id,
                        &[],
                    );
                    let mut args: Vec<(&str, &str)> = Vec::new();
                    if retries > 0 {
                        args.push(("retries", &retries_label));
                    }
                    if slowdown > 1.0 {
                        args.push(if rank == straggler {
                            ("straggler", "true")
                        } else {
                            ("straggler_wait", "true")
                        });
                    }
                    obs::trace::record_complete(
                        &track,
                        "all_reduce",
                        to_ns(step_start + compute_s),
                        to_ns(t),
                        step_id,
                        &args,
                    );
                }
            }

            observer.on_step(&StepEvent {
                step: step - 1,
                epoch,
                sim_time_s: t,
                step_time_s: this_step,
                loss,
                samples_seen: samples,
                gpu_power_w: gpu_power,
                gpu_util: util,
                samples_per_s: global_batch as f64 / this_step,
            });

            let epoch_boundary = step.is_multiple_of(steps_per_epoch);
            if epoch_boundary {
                epochs_completed = epoch + 1;
                last_ckpt = Checkpoint {
                    samples_seen: samples,
                    steps: step,
                    epochs_completed,
                };

                if cfg.exercise_collective {
                    // Real threaded ring all-reduce on a proxy gradient:
                    // the values must agree with the sequential
                    // reduction, or the simulated cluster is broken.
                    let ranks = cfg.gpus.min(8) as usize;
                    let proxy: Vec<Vec<f64>> = (0..ranks)
                        .map(|r| (0..512).map(|i| (r * 512 + i) as f64).collect())
                        .collect();
                    let expect = ddp::sequential_allreduce(&proxy);
                    let epoch_retries = cfg
                        .faults
                        .allreduce_retries_between(step.saturating_sub(steps_per_epoch), step);
                    let (got, attempts) = ddp::ring_allreduce_with_retry(proxy, epoch_retries);
                    assert_eq!(got.len(), expect.len());
                    debug_assert!(attempts >= 1);
                }

                observer.on_epoch_end(&EpochEvent {
                    epoch,
                    sim_time_s: t,
                    loss,
                    joules_so_far: sampler.joules_so_far(),
                });
            }

            if cfg.cutoff.exceeded(t) {
                completed = step >= total_steps;
                break;
            }
        }

        let (_, energy) = sampler.finish();
        let checkpoint = if fatal.is_some() {
            last_ckpt
        } else {
            Checkpoint {
                samples_seen: samples,
                steps: step,
                epochs_completed,
            }
        };
        let result = RunResult {
            final_loss: loss,
            energy_joules: energy.joules(),
            energy_kwh: energy.kwh(),
            walltime_s: t,
            steps: step,
            samples_seen: samples,
            epochs_completed,
            completed,
            mean_throughput: if t > 0.0 {
                (samples - start.samples_seen) as f64 / t
            } else {
                0.0
            },
            loss_energy_product: loss * energy.kwh(),
            checkpoint,
            fault: fatal,
            faults_injected: cfg.faults.fired_between(start_step, step),
        };
        observer.on_run_end(&result);
        result
    }
}

/// Outcome of [`run_with_recovery`]: the final run plus the restart
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Result of the last (surviving) attempt.
    pub result: RunResult,
    /// Attempts executed (1 = no restart needed).
    pub attempts: u32,
    /// Walltime summed over every attempt, seconds — failures are not
    /// free, and this is what counts against the queue limit.
    pub total_walltime_s: f64,
    /// Energy summed over every attempt, joules.
    pub total_energy_joules: f64,
    /// Steps redone because fatal faults land between checkpoints.
    pub lost_steps: u64,
    /// World size of the final attempt (shrunk under elastic restart).
    pub final_gpus: u32,
}

/// Runs `cfg` to completion through fatal faults: each GPU failure
/// restarts the run from its last epoch-boundary checkpoint, up to
/// `max_restarts` times, with the walltime and energy of every failed
/// attempt charged against the original cutoff budget. With
/// `shrink_on_failure` the restart proceeds elastically on the
/// surviving ranks instead of waiting for a replacement.
pub fn run_with_recovery(
    base: &SimConfig,
    observer: &mut dyn TrainObserver,
    max_restarts: u32,
    shrink_on_failure: bool,
) -> Result<RecoveryOutcome, String> {
    let budget = base.cutoff;
    let mut cfg = base.clone();
    let mut attempts = 0u32;
    let mut total_walltime = 0.0f64;
    let mut total_energy = 0.0f64;
    let mut lost_steps = 0u64;

    loop {
        attempts += 1;
        // Failed attempts already consumed part of the budget.
        cfg.cutoff = match budget {
            WalltimeCutoff::Unlimited => WalltimeCutoff::Unlimited,
            WalltimeCutoff::Seconds(s) => WalltimeCutoff::Seconds((s - total_walltime).max(0.0)),
        };
        let result = TrainingSimulation::new(cfg.clone())?.run(observer);
        total_walltime += result.walltime_s;
        total_energy += result.energy_joules;

        match result.fault {
            Some(ev) if attempts <= max_restarts => {
                lost_steps += result.steps - result.checkpoint.steps;
                // Consumed faults must not re-fire on the restart.
                cfg.faults = cfg.faults.after(ev.step);
                if shrink_on_failure {
                    if let FaultKind::GpuFailure { ranks_lost } = ev.kind {
                        cfg.gpus = cfg.gpus.saturating_sub(ranks_lost).max(1);
                    }
                }
                cfg.resume_from = Some(result.checkpoint);
            }
            _ => {
                return Ok(RecoveryOutcome {
                    result,
                    attempts,
                    total_walltime_s: total_walltime,
                    total_energy_joules: total_energy,
                    lost_steps,
                    final_gpus: cfg.gpus,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Architecture;

    fn tiny_cfg(gpus: u32) -> SimConfig {
        SimConfig {
            model: ModelConfig::sized(Architecture::SwinV2, 100_000_000),
            machine: MachineConfig::frontier_like(),
            dataset: DatasetSpec::tiny(10_000),
            gpus,
            per_gpu_batch: 32,
            epochs: 2,
            comm: DdpCommConfig::default(),
            cutoff: WalltimeCutoff::Unlimited,
            exercise_collective: false,
            phase: Phase::PreTraining,
            grad_accumulation: 1,
            resume_from: None,
            faults: FaultPlan::default(),
        }
    }

    struct CountingObserver {
        steps: u64,
        epochs: u32,
        started: bool,
        ended: bool,
        last_loss: f64,
    }

    impl TrainObserver for CountingObserver {
        fn on_run_start(&mut self, _cfg: &SimConfig) {
            self.started = true;
        }
        fn on_step(&mut self, e: &StepEvent) {
            self.steps += 1;
            self.last_loss = e.loss;
        }
        fn on_epoch_end(&mut self, _e: &EpochEvent) {
            self.epochs += 1;
        }
        fn on_run_end(&mut self, _r: &RunResult) {
            self.ended = true;
        }
    }

    #[test]
    fn observer_sees_all_events() {
        let sim = TrainingSimulation::new(tiny_cfg(8)).unwrap();
        let mut obs = CountingObserver {
            steps: 0,
            epochs: 0,
            started: false,
            ended: false,
            last_loss: 0.0,
        };
        let result = sim.run(&mut obs);
        assert!(obs.started && obs.ended);
        assert_eq!(obs.epochs, 2);
        assert_eq!(obs.steps, result.steps);
        assert_eq!(obs.last_loss, result.final_loss);
        assert!(result.completed);
    }

    #[test]
    fn loss_decreases_over_training() {
        let sim = TrainingSimulation::new(tiny_cfg(8)).unwrap();
        let r1 = sim.run(&mut NullObserver);
        let mut long_cfg = tiny_cfg(8);
        long_cfg.epochs = 20;
        let r2 = TrainingSimulation::new(long_cfg)
            .unwrap()
            .run(&mut NullObserver);
        assert!(r2.final_loss < r1.final_loss);
    }

    #[test]
    fn more_gpus_finish_faster_but_burn_more_power() {
        let r8 = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);
        let r64 = TrainingSimulation::new(tiny_cfg(64))
            .unwrap()
            .run(&mut NullObserver);
        assert!(r64.walltime_s < r8.walltime_s, "scale-out reduces walltime");
        assert!(r64.mean_throughput > r8.mean_throughput);
    }

    #[test]
    fn walltime_cutoff_marks_incomplete() {
        let mut cfg = tiny_cfg(8);
        cfg.model = ModelConfig::sized(Architecture::SwinV2, 1_400_000_000);
        cfg.dataset = DatasetSpec::modis();
        cfg.cutoff = WalltimeCutoff::Seconds(60.0);
        let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert!(!r.completed);
        assert!(r.walltime_s >= 60.0);
        assert_eq!(r.epochs_completed, 0);
    }

    #[test]
    fn energy_matches_power_times_time() {
        let sim = TrainingSimulation::new(tiny_cfg(8)).unwrap();
        let r = sim.run(&mut NullObserver);
        // Constant power per step → energy ≈ mean power × walltime.
        let implied_power = r.energy_joules / r.walltime_s;
        assert!(
            implied_power > 1_000.0 && implied_power < 4_000.0,
            "one-node draw {implied_power} W"
        );
        assert!((r.loss_energy_product - r.final_loss * r.energy_kwh).abs() < 1e-12);
    }

    #[test]
    fn oom_configs_rejected() {
        let mut cfg = tiny_cfg(8);
        cfg.model = ModelConfig::sized(Architecture::SwinV2, 1_400_000_000);
        cfg.per_gpu_batch = 10_000; // activation blow-up
        assert!(TrainingSimulation::new(cfg).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = tiny_cfg(0);
        cfg.gpus = 0;
        assert!(TrainingSimulation::new(cfg).is_err());
        let mut cfg = tiny_cfg(8);
        cfg.per_gpu_batch = 0;
        assert!(TrainingSimulation::new(cfg).is_err());
        let mut cfg = tiny_cfg(8);
        cfg.epochs = 0;
        assert!(TrainingSimulation::new(cfg).is_err());
    }

    #[test]
    fn collective_exercise_mode_runs() {
        let mut cfg = tiny_cfg(8);
        cfg.dataset = DatasetSpec::tiny(500);
        cfg.epochs = 1;
        cfg.exercise_collective = true;
        let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert!(r.completed);
    }

    #[test]
    fn step_time_decomposition_is_consistent() {
        let sim = TrainingSimulation::new(tiny_cfg(16)).unwrap();
        let (total, compute, comm, io) = sim.step_time();
        assert!(total >= compute);
        assert!(total >= io);
        assert!(compute > 0.0 && comm >= 0.0 && io > 0.0);
        assert!((total - (compute + comm).max(io)).abs() < 1e-15);
    }

    #[test]
    fn finetuning_is_cheaper_than_pretraining() {
        let pre = tiny_cfg(8);
        let (pre_total, pre_compute, ..) =
            TrainingSimulation::new(pre.clone()).unwrap().step_time();

        // Freeze everything but the head: backward nearly free, but the
        // full (unmasked for MAE: Swin unaffected) forward remains.
        let ft = pre.clone().into_finetune(0.99, 1_000);
        let (ft_total, ft_compute, ..) = TrainingSimulation::new(ft).unwrap().step_time();
        assert!(ft_compute < pre_compute, "frozen backward must be cheaper");
        let _ = (pre_total, ft_total);

        // Fully trainable "fine-tune" on SwinV2 costs the same as
        // pre-training (no masking difference for Swin).
        let full = tiny_cfg(8).into_finetune(0.0, 1_000);
        let (_, full_compute, ..) = TrainingSimulation::new(full).unwrap().step_time();
        assert!((full_compute - pre_compute).abs() / pre_compute < 1e-9);
    }

    #[test]
    fn finetune_gradient_traffic_shrinks() {
        use crate::model::ModelConfig;
        let m = ModelConfig::sized(Architecture::SwinV2, 1_000_000_000);
        assert_eq!(m.gradient_bytes(), 4_000_000_000);
        assert_eq!(m.gradient_bytes_finetune(1.0), 0);
        assert_eq!(m.gradient_bytes_finetune(0.75), 1_000_000_000);
        // Comm time drops accordingly.
        let mut cfg = tiny_cfg(64);
        cfg.model = ModelConfig::sized(Architecture::SwinV2, 600_000_000);
        let (_, _, pre_comm, _) = TrainingSimulation::new(cfg.clone()).unwrap().step_time();
        let ft = cfg.into_finetune(0.95, 1_000);
        let (_, _, ft_comm, _) = TrainingSimulation::new(ft).unwrap().step_time();
        assert!(ft_comm < pre_comm / 2.0);
    }

    #[test]
    fn finetune_runs_complete() {
        let cfg = tiny_cfg(8).into_finetune(0.98, 2_000);
        let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert!(r.completed);
        assert!(r.samples_seen >= 2_000);
    }

    #[test]
    fn gradient_accumulation_amortizes_communication() {
        // Same samples per optimizer step (batch 32×4 vs 128×1), same
        // gradient volume — but 4× fewer all-reduces per sample.
        let mut accum = tiny_cfg(64);
        accum.per_gpu_batch = 8;
        accum.grad_accumulation = 4;
        let mut plain = tiny_cfg(64);
        plain.per_gpu_batch = 32;
        plain.grad_accumulation = 1;
        assert_eq!(accum.global_batch(), plain.global_batch());

        let (at, ac, acomm, _) = TrainingSimulation::new(accum).unwrap().step_time();
        let (pt, pc, pcomm, _) = TrainingSimulation::new(plain).unwrap().step_time();
        assert!((ac - pc).abs() < 1e-12, "same compute per optimizer step");
        assert!(
            (acomm - pcomm).abs() < 1e-12,
            "same comm per optimizer step"
        );
        let _ = (at, pt);

        // Against the *same micro-batch*, accumulation reduces exposed
        // comm per sample.
        let mut micro = tiny_cfg(64);
        micro.per_gpu_batch = 8;
        micro.grad_accumulation = 1;
        let (mt, _, mcomm, _) = TrainingSimulation::new(micro.clone()).unwrap().step_time();
        let per_sample_micro = (mt) / (8.0 * 64.0);
        let mut micro4 = micro;
        micro4.grad_accumulation = 4;
        let (m4t, _, m4comm, _) = TrainingSimulation::new(micro4).unwrap().step_time();
        let per_sample_accum = m4t / (8.0 * 4.0 * 64.0);
        assert!(
            per_sample_accum < per_sample_micro,
            "accumulation amortizes comm"
        );
        assert!((m4comm - mcomm).abs() < 1e-12);
    }

    #[test]
    fn zero_accumulation_rejected() {
        let mut cfg = tiny_cfg(8);
        cfg.grad_accumulation = 0;
        assert!(TrainingSimulation::new(cfg).is_err());
    }

    #[test]
    fn resumed_chain_matches_single_run() {
        // One uncapped run...
        let full = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);
        // ...equals a chain of runs resumed epoch by epoch.
        let mut ckpt = None;
        let chained = loop {
            let mut cfg = tiny_cfg(8);
            cfg.resume_from = ckpt;
            // One epoch of walltime per "job".
            let (step_time, ..) = TrainingSimulation::new(cfg.clone()).unwrap().step_time();
            let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
            cfg.cutoff = WalltimeCutoff::Seconds(step_time * steps_per_epoch as f64 + 1e-6);
            let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
            if r.completed {
                break r;
            }
            ckpt = Some(r.checkpoint);
        };
        assert_eq!(chained.final_loss, full.final_loss, "same loss trajectory");
        assert_eq!(chained.samples_seen, full.samples_seen);
        assert_eq!(chained.steps, full.steps);
    }

    #[test]
    fn resume_skips_completed_epochs() {
        let full = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);
        let mut cfg = tiny_cfg(8);
        cfg.resume_from = Some(Checkpoint {
            samples_seen: full.samples_seen,
            steps: full.steps,
            epochs_completed: cfg.epochs,
        });
        let resumed = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert_eq!(resumed.steps, full.steps, "nothing left to do");
        assert_eq!(resumed.walltime_s, 0.0);
        assert!(resumed.completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);
        let b = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);
        assert_eq!(a, b);
    }

    // ----- fault injection ------------------------------------------------

    /// Observer recording the full step-event stream for byte-identical
    /// determinism checks.
    struct RecordingObserver {
        events: Vec<StepEvent>,
    }
    impl TrainObserver for RecordingObserver {
        fn on_step(&mut self, e: &StepEvent) {
            self.events.push(*e);
        }
    }

    #[test]
    fn gpu_failure_aborts_with_epoch_checkpoint() {
        let mut cfg = tiny_cfg(8);
        let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
        // Fail mid-way through epoch 1.
        let fail_step = steps_per_epoch + steps_per_epoch / 2;
        cfg.faults = FaultPlan::single_gpu_failure(fail_step);
        let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert!(!r.completed);
        assert_eq!(r.steps, fail_step, "stopped at the faulty step");
        assert_eq!(r.fault.unwrap().step, fail_step);
        assert_eq!(
            r.checkpoint.steps, steps_per_epoch,
            "checkpoint rolls back to the epoch boundary"
        );
        assert_eq!(r.checkpoint.epochs_completed, 1);
    }

    #[test]
    fn straggler_and_transient_faults_stretch_walltime() {
        let clean = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);

        let mut slow = tiny_cfg(8);
        slow.faults = FaultPlan {
            events: vec![FaultEvent {
                step: 0,
                kind: FaultKind::Straggler {
                    slowdown: 2.0,
                    steps: 10,
                },
            }],
        };
        let r_slow = TrainingSimulation::new(slow)
            .unwrap()
            .run(&mut NullObserver);
        assert!(r_slow.walltime_s > clean.walltime_s);
        assert!(
            r_slow.energy_joules > clean.energy_joules,
            "slow steps burn energy"
        );
        assert_eq!(r_slow.steps, clean.steps, "no work lost");
        assert_eq!(r_slow.faults_injected, 1);

        let mut flaky = tiny_cfg(8);
        flaky.faults = FaultPlan {
            events: vec![FaultEvent {
                step: 3,
                kind: FaultKind::AllReduceTransient { retries: 2 },
            }],
        };
        let r_flaky = TrainingSimulation::new(flaky)
            .unwrap()
            .run(&mut NullObserver);
        let (step_time, ..) = TrainingSimulation::new(tiny_cfg(8)).unwrap().step_time();
        let extra = r_flaky.walltime_s - clean.walltime_s;
        assert!(
            (extra - 2.0 * step_time).abs() < 1e-9,
            "2 retries cost 2 extra step times, got {extra}"
        );
        assert!(r_flaky.completed);
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let mk = || {
            let mut cfg = tiny_cfg(8);
            let total = cfg.dataset.steps_per_epoch(cfg.global_batch()) * cfg.epochs as u64;
            cfg.faults = FaultPlan::seeded(1234, total);
            cfg
        };
        let mut obs_a = RecordingObserver { events: Vec::new() };
        let mut obs_b = RecordingObserver { events: Vec::new() };
        let a = TrainingSimulation::new(mk()).unwrap().run(&mut obs_a);
        let b = TrainingSimulation::new(mk()).unwrap().run(&mut obs_b);
        assert_eq!(a, b, "identical RunResult");
        assert_eq!(obs_a.events, obs_b.events, "byte-identical event stream");
        assert!(a.fault.is_some(), "the seeded plan includes a GPU failure");
    }

    #[test]
    fn recovery_completes_after_gpu_failure() {
        let mut cfg = tiny_cfg(8);
        let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
        cfg.faults = FaultPlan::single_gpu_failure(steps_per_epoch + 2);
        let clean = TrainingSimulation::new(tiny_cfg(8))
            .unwrap()
            .run(&mut NullObserver);

        let out = run_with_recovery(&cfg, &mut NullObserver, 3, false).unwrap();
        assert!(out.result.completed);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.lost_steps, 2, "steps past the checkpoint were redone");
        assert_eq!(out.final_gpus, 8);
        assert_eq!(out.result.final_loss, clean.final_loss, "same trajectory");
        assert_eq!(out.result.samples_seen, clean.samples_seen);
        assert!(
            out.total_walltime_s > clean.walltime_s,
            "the failed attempt is not free"
        );
    }

    #[test]
    fn elastic_recovery_shrinks_world_size() {
        let mut cfg = tiny_cfg(8);
        let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
        cfg.faults = FaultPlan::single_gpu_failure(steps_per_epoch + 1);
        let out = run_with_recovery(&cfg, &mut NullObserver, 3, true).unwrap();
        assert!(out.result.completed);
        assert_eq!(
            out.final_gpus, 7,
            "one rank lost, run continues elastically"
        );
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn recovery_respects_walltime_budget() {
        let mut cfg = tiny_cfg(8);
        let (step_time, ..) = TrainingSimulation::new(cfg.clone()).unwrap().step_time();
        let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
        cfg.faults = FaultPlan::single_gpu_failure(steps_per_epoch + 1);
        // Budget covers barely more than the failed attempt: the retry
        // must be cut off, not run to completion.
        cfg.cutoff = WalltimeCutoff::Seconds(step_time * (steps_per_epoch + 3) as f64);
        let out = run_with_recovery(&cfg, &mut NullObserver, 3, false).unwrap();
        assert!(!out.result.completed, "budget exhausted mid-retry");
        let budget = step_time * (steps_per_epoch + 3) as f64;
        assert!(
            out.total_walltime_s <= budget + step_time * 2.0,
            "total {} must stay near budget {budget}",
            out.total_walltime_s
        );
    }

    #[test]
    fn exhausted_restarts_return_failed_result() {
        let mut cfg = tiny_cfg(8);
        cfg.faults = FaultPlan {
            events: vec![
                FaultEvent {
                    step: 1,
                    kind: FaultKind::GpuFailure { ranks_lost: 1 },
                },
                FaultEvent {
                    step: 2,
                    kind: FaultKind::GpuFailure { ranks_lost: 1 },
                },
            ],
        };
        let out = run_with_recovery(&cfg, &mut NullObserver, 1, false).unwrap();
        assert!(!out.result.completed);
        assert!(out.result.fault.is_some(), "second failure was terminal");
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn faulty_collective_exercise_still_agrees() {
        let mut cfg = tiny_cfg(8);
        cfg.dataset = DatasetSpec::tiny(500);
        cfg.epochs = 1;
        cfg.exercise_collective = true;
        cfg.faults = FaultPlan {
            events: vec![FaultEvent {
                step: 0,
                kind: FaultKind::AllReduceTransient { retries: 1 },
            }],
        };
        let r = TrainingSimulation::new(cfg).unwrap().run(&mut NullObserver);
        assert!(r.completed);
        assert_eq!(r.faults_injected, 1);
    }
}
