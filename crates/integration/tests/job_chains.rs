//! Chained walltime-capped jobs with cross-run provenance — how
//! training actually proceeds under the paper's 2-hour queue limit:
//! each job checkpoints at the cutoff, the next job's run records the
//! checkpoint as an *input* artifact, and the combined experiment
//! document carries the full lineage chain from the final model back
//! through every job.

use integration::ProvenanceObserver;
use prov_graph::ProvGraph;
use prov_model::QName;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{
    Checkpoint, NullObserver, Phase, SimConfig, TrainingSimulation, WalltimeCutoff,
};
use train_sim::{DatasetSpec, MachineConfig};
use yprov4ml::model::Direction;
use yprov4ml::Experiment;

fn base_cfg() -> SimConfig {
    SimConfig {
        model: ModelConfig::sized(Architecture::SwinV2, 200_000_000),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(30_000),
        gpus: 8,
        per_gpu_batch: 32,
        epochs: 4,
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
fn chained_jobs_reproduce_the_uncapped_run_with_full_lineage() {
    // Ground truth: the whole training in one job.
    let full = TrainingSimulation::new(base_cfg())
        .unwrap()
        .run(&mut NullObserver);
    assert!(full.completed);

    let base = std::env::temp_dir().join(format!("ychain_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("chained", &base).unwrap();

    // The chain: each job gets roughly a quarter of the needed walltime.
    let per_job_budget = full.walltime_s / 3.7;
    let mut checkpoint: Option<Checkpoint> = None;
    let mut prev_ckpt_name: Option<String> = None;
    let mut job = 0usize;
    let final_result = loop {
        let run_name = format!("job-{job}");
        let run = experiment.start_run(&run_name).unwrap();

        // Cross-run linkage: the previous job's checkpoint is this
        // job's input artifact.
        if let (Some(ckpt), Some(name)) = (&checkpoint, &prev_ckpt_name) {
            run.log_param("resumed_from", name.as_str());
            run.log_artifact_bytes(
                name,
                format!("steps={},samples={}", ckpt.steps, ckpt.samples_seen).as_bytes(),
                Direction::Input,
            )
            .unwrap();
        }

        let mut cfg = base_cfg();
        cfg.resume_from = checkpoint;
        cfg.cutoff = WalltimeCutoff::Seconds(per_job_budget);
        let mut observer = ProvenanceObserver::with_stride(&run, 10);
        let result = TrainingSimulation::new(cfg).unwrap().run(&mut observer);

        // The produced checkpoint is this job's output artifact.
        let ckpt_name = format!("ckpt-after-job-{job}.bin");
        run.log_artifact_bytes(
            &ckpt_name,
            format!(
                "steps={},samples={}",
                result.checkpoint.steps, result.checkpoint.samples_seen
            )
            .as_bytes(),
            Direction::Output,
        )
        .unwrap();
        run.finish().unwrap();

        if result.completed {
            break result;
        }
        assert!(job < 10, "chain must converge");
        checkpoint = Some(result.checkpoint);
        prev_ckpt_name = Some(ckpt_name);
        job += 1;
    };

    // 1. The chain reproduces the uncapped run exactly.
    assert!(
        job >= 2,
        "the budget must actually force a chain (got {} jobs)",
        job + 1
    );
    assert_eq!(final_result.final_loss, full.final_loss);
    assert_eq!(final_result.steps, full.steps);
    assert_eq!(final_result.samples_seen, full.samples_seen);

    // 2. The combined document chains the jobs through checkpoints:
    //    job-N used the artifact job-(N-1) generated (same name).
    let combined = experiment.combined_document().unwrap();
    assert!(prov_model::validate::is_valid(&combined));
    let graph = ProvGraph::new(&combined);

    // From the last job's run activity, the ancestry must reach job-0's
    // checkpoint artifact by walking used -> generated -> run -> used...
    let last_run = QName::new("exp", format!("job-{job}"));
    let ancestors = graph.ancestors(&last_run);
    let first_ckpt = QName::new("exp", "job-1/artifact/ckpt-after-job-0.bin");
    assert!(
        ancestors.contains(&first_ckpt),
        "lineage of {last_run} must include {first_ckpt}; got {} ancestors",
        ancestors.len()
    );

    // 3. Total energy across the chain ≈ the uncapped run's energy
    //    (the chain pays a little extra for the partially-counted final
    //    sampling interval of each job).
    let mut chained_energy = 0.0;
    for name in experiment.list_runs().unwrap() {
        let doc = experiment.load_run_document(&name).unwrap();
        let summary = yprov4ml::compare::RunSummary::from_document(&doc).unwrap();
        chained_energy += summary.params["energy_kwh"].parse::<f64>().unwrap();
    }
    let rel = (chained_energy - full.energy_kwh).abs() / full.energy_kwh;
    assert!(
        rel < 0.05,
        "chained {chained_energy} vs full {} ({rel:.3})",
        full.energy_kwh
    );

    std::fs::remove_dir_all(&base).ok();
}
