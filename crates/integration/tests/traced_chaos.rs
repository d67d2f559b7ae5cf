//! A traced chaos run: tracing is live while a seeded fault plan kills
//! a journaled training run, so the per-rank simulated spans are still
//! sitting in the flight-recorder rings when `recover()` runs — the
//! dump lands in `trace_crash.json` next to the recovered provenance
//! and is linked into the PROV document as evidence of the crash.
//!
//! CI uploads the dump as a workflow artifact: set `TRACED_CHAOS_OUT`
//! to a path and the test copies `trace_crash.json` there.

use integration::simulate_with_provenance;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, FaultPlan, MachineConfig};
use yprov4ml::journal::recover;
use yprov4ml::run::RunOptions;
use yprov4ml::spill::SpillPolicy;
use yprov4ml::{Experiment, RunStatus};

#[test]
fn traced_chaos_run_dumps_flight_recorder_on_recovery() {
    let base = std::env::temp_dir().join(format!("ytrace_chaos_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let cfg = SimConfig {
        model: ModelConfig::sized(Architecture::MaeVit, 100_000_000),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(2_000),
        gpus: 8,
        per_gpu_batch: 16,
        epochs: 2,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: FaultPlan::none(),
    };
    let steps_per_epoch = cfg.dataset.steps_per_epoch(cfg.global_batch());
    let cfg = SimConfig {
        faults: FaultPlan::single_gpu_failure(steps_per_epoch + 2),
        ..cfg
    };

    obs::trace::set_enabled(true);
    obs::trace::drain();

    let experiment = Experiment::new("traced-chaos", &base).unwrap();
    let run = experiment
        .start_run_with(
            "victim",
            RunOptions {
                journal: true,
                ..Default::default()
            },
        )
        .unwrap();
    let result = simulate_with_provenance(cfg, &run, 1).unwrap();
    assert!(result.fault.is_some(), "the fault plan must kill the run");
    run.flush().unwrap();
    let run_dir = run.dir().to_path_buf();
    drop(run); // crash: no finish()

    let (report, _recovery) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    obs::trace::drain();
    obs::trace::set_enabled(false);
    assert_eq!(report.status, RunStatus::Recovered);

    // The flight recorder survived the crash: the dump holds the doomed
    // run's per-rank simulated spans.
    let crash_trace = run_dir.join("trace_crash.json");
    assert!(crash_trace.exists(), "trace_crash.json written by recovery");
    let body = std::fs::read_to_string(&crash_trace).unwrap();
    let json: json::Value = json::parse(&body).expect("dump parses");
    let events = json["traceEvents"].as_array().unwrap();
    assert!(events
        .iter()
        .any(|e| e["ph"] == "X" && e["name"] == "step" && e["pid"] == 2));
    assert!(events
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"] == "rank 0"));

    // And the recovered document records the dump as crash evidence.
    let prov = std::fs::read_to_string(&report.prov_json_path).unwrap();
    assert!(prov.contains("victim/trace_crash"), "trace entity linked");
    assert!(prov.contains("victim/crash"));

    // Hand the artifact to CI if asked.
    if let Ok(out) = std::env::var("TRACED_CHAOS_OUT") {
        std::fs::copy(&crash_trace, &out).unwrap();
    }
    std::fs::remove_dir_all(&base).ok();
}
