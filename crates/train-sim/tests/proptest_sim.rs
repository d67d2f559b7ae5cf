//! Property tests on simulator invariants: physical sanity must hold
//! for every reachable configuration, not just the paper's corners.

use testkit::{check, Rng};
use train_sim::ddp::{ring_allreduce, sequential_allreduce};
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{NullObserver, Phase, SimConfig, TrainingSimulation, WalltimeCutoff};
use train_sim::{DatasetSpec, MachineConfig};

fn arch(rng: &mut Rng) -> Architecture {
    *rng.pick(&[Architecture::MaeVit, Architecture::SwinV2])
}

fn config(arch: Architecture, params: u64, gpus: u32, samples: u64, batch: u32) -> SimConfig {
    SimConfig {
        model: ModelConfig::sized(arch, params),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(samples),
        gpus,
        per_gpu_batch: batch,
        epochs: 2,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: Default::default(),
    }
}

#[test]
fn runs_are_physically_sane() {
    check(32, |rng, _| {
        let arch = arch(rng);
        let params = rng.range(50_000_000u64..2_000_000_000);
        let gpus = rng.range(1u32..256);
        let samples = rng.range(100u64..20_000);
        let batch = rng.range(1u32..64);
        let cfg = config(arch, params, gpus, samples, batch);
        let Ok(sim) = TrainingSimulation::new(cfg) else {
            // Some corners legitimately fail validation (OOM); fine.
            return;
        };
        let r = sim.run(&mut NullObserver);
        assert!(r.walltime_s > 0.0 && r.walltime_s.is_finite());
        assert!(r.energy_joules > 0.0 && r.energy_joules.is_finite());
        assert!(r.final_loss > 0.0 && r.final_loss.is_finite());
        assert!(r.samples_seen >= samples, "each epoch covers the dataset");
        assert!(r.completed);
        assert!(r.mean_throughput > 0.0);
        // Power sanity: implied draw per node within the hardware budget.
        let nodes = cfg_nodes(gpus);
        let watts = r.energy_joules / r.walltime_s / nodes as f64;
        assert!(watts > 300.0 && watts < 4_000.0, "node draw {watts} W");
    });
}

#[test]
fn more_gpus_never_slows_a_run() {
    check(32, |rng, _| {
        let arch = arch(rng);
        let params = rng.range(50_000_000u64..1_000_000_000);
        let samples = rng.range(2_000u64..20_000);
        // Same work, doubling GPUs: walltime must not increase (the
        // comm overhead never exceeds the halved compute in this model).
        let mut prev = f64::INFINITY;
        for gpus in [8u32, 16, 32, 64] {
            let r = TrainingSimulation::new(config(arch, params, gpus, samples, 16))
                .unwrap()
                .run(&mut NullObserver);
            assert!(
                r.walltime_s <= prev * 1.001,
                "walltime grew from {prev} to {} at {gpus} GPUs",
                r.walltime_s
            );
            prev = r.walltime_s;
        }
    });
}

#[test]
fn loss_never_increases_with_more_data() {
    check(32, |rng, _| {
        let arch = arch(rng);
        let params = rng.range(50_000_000u64..1_000_000_000);
        let mut prev = f64::INFINITY;
        for samples in [500u64, 2_000, 8_000, 32_000] {
            let r = TrainingSimulation::new(config(arch, params, 8, samples, 16))
                .unwrap()
                .run(&mut NullObserver);
            // The ripple can wobble a little; the trend must hold.
            assert!(
                r.final_loss <= prev * 1.05,
                "loss rose from {prev} to {} at {samples} samples",
                r.final_loss
            );
            prev = r.final_loss;
        }
    });
}

#[test]
fn cutoff_never_yields_more_walltime_than_unlimited() {
    check(32, |rng, _| {
        let arch = arch(rng);
        let params = rng.range(200_000_000u64..2_000_000_000);
        let budget = rng.range(10.0..1_000.0);
        let mut unlimited = config(arch, params, 8, 50_000, 32);
        unlimited.epochs = 3;
        let full = TrainingSimulation::new(unlimited.clone())
            .unwrap()
            .run(&mut NullObserver);
        let mut capped_cfg = unlimited;
        capped_cfg.cutoff = WalltimeCutoff::Seconds(budget);
        let capped = TrainingSimulation::new(capped_cfg)
            .unwrap()
            .run(&mut NullObserver);
        assert!(capped.walltime_s <= full.walltime_s + 1e-9);
        if capped.walltime_s < full.walltime_s {
            assert!(!capped.completed);
        }
        assert!(capped.energy_joules <= full.energy_joules + 1e-6);
    });
}

#[test]
fn ring_allreduce_matches_sequential() {
    check(32, |rng, size| {
        let ranks = rng.range(1usize..9);
        let n = rng.len(0..300, size);
        let shards: Vec<Vec<f64>> = (0..ranks)
            .map(|_| {
                (0..n)
                    .map(|_| rng.below(10_000) as f64 / 100.0 - 50.0)
                    .collect()
            })
            .collect();
        let expect = sequential_allreduce(&shards);
        let got = ring_allreduce(shards);
        for (g, e) in got.iter().zip(&expect) {
            for (a, b) in g.iter().zip(e) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
    });
}

fn cfg_nodes(gpus: u32) -> u32 {
    MachineConfig::frontier_like().nodes_for(gpus)
}
