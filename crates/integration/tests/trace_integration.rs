//! End-to-end tests for the tracing layer: a traced simulation run must
//! produce Chrome trace-event JSON that Perfetto's loader accepts (one
//! track per simulated rank, monotonic timestamps, complete `X`
//! events), and a recovered run's record must hold only what its
//! journal holds — recovery writes the same PROV bytes whether tracing
//! is on or off.

use std::sync::Mutex;

use integration::simulate_with_provenance;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, FaultPlan, MachineConfig};
use yprov4ml::journal::recover;
use yprov4ml::run::RunOptions;
use yprov4ml::spill::SpillPolicy;
use yprov4ml::Experiment;

// The tracer is process-global; tests that toggle it serialize here and
// leave it disabled and drained behind them.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg(gpus: u32, faults: FaultPlan) -> SimConfig {
    SimConfig {
        model: ModelConfig::sized(Architecture::MaeVit, 100_000_000),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(1_000),
        gpus,
        per_gpu_batch: 16,
        epochs: 1,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults,
    }
}

#[test]
fn traced_run_exports_perfetto_compatible_json() {
    let _g = exclusive();
    let base = std::env::temp_dir().join(format!("ytrace_study_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    obs::trace::set_enabled(true);
    obs::trace::drain();
    let experiment = Experiment::new("traced", &base).unwrap();
    let run = experiment.start_run("victim").unwrap();
    let run_dir = run.dir().to_path_buf();
    let gpus = 4u32;
    let result = simulate_with_provenance(cfg(gpus, FaultPlan::none()), &run, 5).unwrap();
    assert!(result.completed);
    run.finish().unwrap();

    let trace_path = run_dir.join("trace.json");
    let written = obs::trace::write_trace_json(&trace_path).unwrap();
    obs::trace::set_enabled(false);
    assert!(written > 0, "a traced run must record spans");

    let body = std::fs::read_to_string(&trace_path).unwrap();
    let json: json::Value = json::parse(&body).expect("trace.json parses");
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // Each producer stage is timed by its span: every logged record by a
    // `collector_log`, and each finalize stage by a child of `finalize`.
    let named =
        |name: &str| -> Vec<&json::Value> { events.iter().filter(|e| e["name"] == name).collect() };
    assert!(!named("collector_log").is_empty());
    let finalize = named("finalize");
    assert_eq!(finalize.len(), 1, "one finish, one finalize span");
    for stage in [
        "finalize_drain",
        "finalize_spill",
        "finalize_emit",
        "finalize_write",
    ] {
        let parent = named(stage).first().map(|e| e["args"]["parent"].clone());
        assert_eq!(parent, Some(finalize[0]["args"]["id"].clone()), "{stage}");
    }

    // Every event is either metadata (M) or a complete span (X) — no
    // unmatched B/E pairs for Perfetto to reject.
    let mut last_ts = f64::MIN;
    let mut x_events = 0usize;
    for e in events {
        match e["ph"].as_str().unwrap() {
            "M" => continue,
            "X" => {
                let ts = e["ts"].as_f64().expect("X events carry a numeric ts");
                let dur = e["dur"].as_f64().expect("X events carry a numeric dur");
                assert!(dur >= 0.0);
                assert!(ts >= last_ts, "ts must be monotonic: {ts} after {last_ts}");
                last_ts = ts;
                x_events += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(x_events > 0);

    // One thread_name track per simulated rank, under the simulated
    // process (pid 2).
    for rank in 0..gpus {
        let track = format!("rank {rank}");
        assert!(
            events.iter().any(|e| e["ph"] == "M"
                && e["name"] == "thread_name"
                && e["pid"] == 2
                && e["args"]["name"] == track.as_str()),
            "missing track for {track}"
        );
    }
    // Per-rank step spans and the finalize pipeline both made it in.
    assert!(events.iter().any(|e| e["name"] == "step" && e["ph"] == "X"));
    assert!(events
        .iter()
        .any(|e| e["name"] == "finalize" && e["ph"] == "X"));

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn recovery_writes_the_same_record_with_tracing_on_or_off() {
    let _g = exclusive();
    let base = std::env::temp_dir().join(format!("ytrace_ident_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // A traced, journaled run crashed by a seeded fault plan.
    obs::trace::set_enabled(true);
    obs::trace::drain();
    let c = cfg(8, FaultPlan::none());
    let steps_per_epoch = c.dataset.steps_per_epoch(c.global_batch());
    let faults = FaultPlan::single_gpu_failure(steps_per_epoch / 2 + 1);

    let experiment = Experiment::new("ident", &base).unwrap();
    let run = experiment
        .start_run_with(
            "victim",
            RunOptions {
                journal: true,
                ..Default::default()
            },
        )
        .unwrap();
    let result = simulate_with_provenance(cfg(8, faults), &run, 1).unwrap();
    assert!(result.fault.is_some(), "the fault plan must kill the run");
    run.flush().unwrap();
    let run_dir = run.dir().to_path_buf();
    drop(run); // crash: no finish()
    {
        // Work after the crash is none of the crashed run's.
        let _s = obs::trace::span("doomed_work");
    }

    // Recovery is a function of the journal bytes: the tracer's rings,
    // full of this process's spans, must not reach the record.
    let (report_on, _) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    let bytes_on = std::fs::read(&report_on.prov_json_path).unwrap();
    obs::trace::set_enabled(false);
    obs::trace::drain();
    let (report_off, _) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    let bytes_off = std::fs::read(&report_off.prov_json_path).unwrap();
    assert!(
        bytes_on == bytes_off,
        "recovery with tracing on wrote a different record:\n{}",
        String::from_utf8_lossy(&bytes_on)
    );
    let traces: Vec<_> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("trace"))
        .collect();
    assert!(traces.is_empty(), "recovery wrote {traces:?}");

    std::fs::remove_dir_all(&base).ok();
}
