//! Property test for the reproducibility pipeline: any configuration
//! the simulator accepts must replay *exactly* from its PROV-JSON.

use integration::{replay_from_provenance, simulate_with_provenance};
use testkit::check;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{Phase, SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, MachineConfig};
use yprov4ml::Experiment;

// Each case simulates + writes + reloads + re-simulates; keep the
// count modest so the suite stays fast.
#[test]
fn any_run_replays_from_its_provenance() {
    check(8, |rng, _| {
        let arch = *rng.pick(&[Architecture::MaeVit, Architecture::SwinV2]);
        let cfg = SimConfig {
            model: ModelConfig::sized(arch, *rng.pick(&[100_000_000u64, 200_000_000, 600_000_000])),
            machine: MachineConfig::frontier_like(),
            dataset: DatasetSpec::tiny(rng.range(500u64..5_000)),
            gpus: *rng.pick(&[1u32, 8, 16, 64]),
            per_gpu_batch: *rng.pick(&[8u32, 32]),
            epochs: rng.range(1u32..4),
            comm: Default::default(),
            cutoff: WalltimeCutoff::Unlimited,
            exercise_collective: false,
            phase: Phase::PreTraining,
            grad_accumulation: 1,
            resume_from: None,
            faults: Default::default(),
        };

        let base = std::env::temp_dir().join(format!(
            "yreplay_prop_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let experiment = Experiment::new("replay", &base).unwrap();
        let run = experiment.start_run("r").unwrap();
        let original = simulate_with_provenance(cfg, &run, 50).unwrap();
        run.finish().unwrap();

        let doc = experiment.load_run_document("r").unwrap();
        let replay = replay_from_provenance(&doc).unwrap();
        std::fs::remove_dir_all(&base).ok();

        assert!(
            replay.reproduced,
            "recorded {:?} vs replayed {}",
            replay.recorded_loss, replay.replayed_loss
        );
        assert_eq!(replay.result.final_loss, original.final_loss);
        assert_eq!(replay.result.steps, original.steps);
        assert!((replay.result.energy_kwh - original.energy_kwh).abs() < 1e-12);
    });
}
