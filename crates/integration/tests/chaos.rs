//! Chaos test for the crash-resilience layer, end to end: a seeded
//! fault plan kills a journaled training run mid-flight, the write-ahead
//! journal recovers it (zero accepted-record loss modulo the counted
//! torn tail), and the recovered provenance uploads through a server
//! that fails the first attempts — all fully deterministic.

use integration::{simulate_with_provenance, ProvenanceObserver};
use testkit::{Fault, FaultProxy};
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{
    run_with_recovery, EpochEvent, NullObserver, RunResult, SimConfig, StepEvent, TrainObserver,
    WalltimeCutoff,
};
use train_sim::{DatasetSpec, FaultKind, FaultPlan, MachineConfig, TrainingSimulation};
use yprov4ml::journal::{recover, RecoveryReport, JOURNAL_FILE};
use yprov4ml::run::RunOptions;
use yprov4ml::spill::SpillPolicy;
use yprov4ml::{Experiment, RunStatus};
use yprov_service::{Client, DocumentStore, RetryPolicy, Server, ServerConfig};

fn cfg(faults: FaultPlan) -> SimConfig {
    SimConfig {
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
        faults,
    }
}

fn fast_retries(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: std::time::Duration::from_millis(5),
        max_delay: std::time::Duration::from_millis(40),
        request_timeout: std::time::Duration::from_secs(5),
        jitter_seed: seed,
    }
}

/// Crashes a journaled run at `faults`' fatal fault, appends a torn
/// tail, recovers, and returns (records accepted before the crash,
/// recovery report, recovered PROV-JSON).
fn crash_and_recover(base: &std::path::Path, faults: FaultPlan) -> (usize, RecoveryReport, String) {
    let experiment = Experiment::new("chaos", base).unwrap();
    let run = experiment
        .start_run_with(
            "victim",
            RunOptions {
                journal: true,
                ..Default::default()
            },
        )
        .unwrap();
    let result = simulate_with_provenance(cfg(faults), &run, 1).unwrap();
    assert!(result.fault.is_some(), "the fault plan must kill the run");
    assert!(!result.completed);

    run.flush().unwrap();
    let accepted = run.records_accepted();
    let run_dir = run.dir().to_path_buf();
    // Simulated crash: the Run is dropped without finish(); only the
    // journal survives — with a torn line, as a power cut would leave.
    drop(run);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(run_dir.join(JOURNAL_FILE))
        .unwrap();
    f.write_all(b"0badc0de {\"Metric\":{\"name\":\"loss\",\"conte")
        .unwrap();
    drop(f);

    let (report, recovery) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    assert_eq!(report.status, RunStatus::Recovered);
    // Zero accepted-record loss: every record the API accepted is in
    // the recovered state; the torn tail is counted, not lost silently.
    assert_eq!(
        recovery.records, accepted,
        "accepted records must all recover"
    );
    assert_eq!(recovery.skipped, 1, "exactly the torn tail");

    let prov_json = std::fs::read_to_string(&report.prov_json_path).unwrap();
    (accepted, recovery, prov_json)
}

#[test]
fn crashed_run_recovers_and_uploads_through_flaky_server() {
    let base = std::env::temp_dir().join(format!("ychaos_up_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let steps_per_epoch = {
        let c = cfg(FaultPlan::none());
        c.dataset.steps_per_epoch(c.global_batch())
    };
    let (_accepted, recovery, prov_json) =
        crash_and_recover(&base, FaultPlan::single_gpu_failure(steps_per_epoch + 2));
    assert!(recovery.records > 0);

    // The recovered document is valid PROV and survives a flaky upload
    // path: a proxy in front of the server 503s the first two attempts,
    // the client's backoff rides them out.
    let doc = prov_model::ProvDocument::from_json_str(&prov_json).unwrap();
    assert!(prov_model::validate::is_valid(&doc));

    let server =
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
    let flaky = FaultProxy::bind();
    flaky.forward_to(server.addr());
    flaky.fault("POST", "/api/v0/documents", Fault::Status(503), 2);
    let client = Client::new(flaky.addr(), fast_retries(7));
    let resp = client.upload_document(&prov_json).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    assert_eq!(resp.attempts, 3, "two injected failures, then success");

    // The upload really landed.
    let id: json::Value = json::parse(&resp.body).unwrap();
    let fetched = client
        .get(&format!("/api/v0/documents/{}", id["id"].as_str().unwrap()))
        .unwrap();
    assert_eq!(fetched.status, 200);
    assert_eq!(
        prov_model::ProvDocument::from_json_str(&fetched.body)
            .unwrap()
            .element_count(),
        doc.element_count()
    );
    server.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Observer that both logs provenance and records the raw event stream.
struct Recording<'a> {
    inner: ProvenanceObserver<'a>,
    events: Vec<StepEvent>,
}

impl TrainObserver for Recording<'_> {
    fn on_run_start(&mut self, cfg: &SimConfig) {
        self.inner.on_run_start(cfg);
    }
    fn on_step(&mut self, e: &StepEvent) {
        self.events.push(*e);
        self.inner.on_step(e);
    }
    fn on_epoch_end(&mut self, e: &EpochEvent) {
        self.inner.on_epoch_end(e);
    }
    fn on_run_end(&mut self, r: &RunResult) {
        self.inner.on_run_end(r);
    }
}

#[test]
fn seeded_chaos_is_fully_deterministic() {
    let total_steps = {
        let c = cfg(FaultPlan::none());
        c.dataset.steps_per_epoch(c.global_batch()) * c.epochs as u64
    };
    let plan = FaultPlan::seeded(0xC0FFEE, total_steps);
    assert!(
        plan.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::GpuFailure { .. })),
        "seeded plans include a fatal fault"
    );

    let run_once = |tag: &str| {
        let base = std::env::temp_dir().join(format!("ychaos_det_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let experiment = Experiment::new("chaos", &base).unwrap();
        let run = experiment
            .start_run_with(
                "victim",
                RunOptions {
                    journal: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let sim = TrainingSimulation::new(cfg(plan.clone())).unwrap();
        let mut observer = Recording {
            inner: ProvenanceObserver::new(&run),
            events: Vec::new(),
        };
        let result = sim.run(&mut observer);
        // Taken out so the observer's borrow of `run` ends here, before
        // the crash.
        let events = observer.events;
        run.flush().unwrap();
        let run_dir = run.dir().to_path_buf();
        drop(run);
        let (_, recovery) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
        std::fs::remove_dir_all(&base).ok();
        (result, events, recovery)
    };

    let (result_a, events_a, recovery_a) = run_once("a");
    let (result_b, events_b, recovery_b) = run_once("b");
    assert_eq!(result_a, result_b, "same seed, same run result");
    assert_eq!(events_a, events_b, "same seed, same step-event stream");
    assert_eq!(recovery_a, recovery_b, "same seed, same recovery report");
    assert!(result_a.fault.is_some());
}

#[test]
fn elastic_restart_completes_after_gpu_failure() {
    let steps_per_epoch = {
        let c = cfg(FaultPlan::none());
        c.dataset.steps_per_epoch(c.global_batch())
    };
    let base = cfg(FaultPlan::single_gpu_failure(steps_per_epoch + 2));
    let outcome = run_with_recovery(&base, &mut NullObserver, 2, true).unwrap();
    assert!(
        outcome.result.completed,
        "restart from checkpoint finishes the job"
    );
    assert_eq!(outcome.attempts, 2);
    assert_eq!(outcome.final_gpus, 7, "elastic restart shed the lost rank");
    assert!(outcome.lost_steps > 0);
}
