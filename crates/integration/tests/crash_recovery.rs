//! Crash-recovery integration: a journaled run "crashes" (dropped
//! without `finish`), and `journal::recover` reconstructs its
//! provenance well enough to compare against completed siblings.

use yprov4ml::journal::{recover, JOURNAL_FILE};
use yprov4ml::model::{Context, Direction};
use yprov4ml::run::RunOptions;
use yprov4ml::spill::SpillPolicy;
use yprov4ml::Experiment;

#[test]
fn journaled_run_survives_a_crash() {
    let base = std::env::temp_dir().join(format!("ycrash_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("crashy", &base).unwrap();

    // A healthy sibling run, finished normally.
    {
        let run = experiment.start_run("healthy").unwrap();
        run.log_param("learning_rate", 0.001);
        for step in 0..500u64 {
            run.log_metric("loss", Context::Training, step, 0, 1.0 / (step + 1) as f64);
        }
        run.finish().unwrap();
    }

    // The crashing run: journaled, never finished.
    let run_dir;
    {
        let run = experiment
            .start_run_with(
                "victim",
                RunOptions {
                    journal: true,
                    ..Default::default()
                },
            )
            .unwrap();
        run.log_param("learning_rate", 0.01);
        run.log_artifact_bytes("dataset.bin", b"input", Direction::Input)
            .unwrap();
        for step in 0..500u64 {
            run.log_metric("loss", Context::Training, step, 0, 2.0 / (step + 1) as f64);
        }
        run_dir = run.dir().to_path_buf();
        // Simulated crash: the Run is dropped without finish(); only the
        // journal survives.
        drop(run);
    }
    assert!(run_dir.join(JOURNAL_FILE).is_file());
    assert!(
        !run_dir.join("prov.json").exists(),
        "no provenance was written"
    );

    // Recover from the journal alone.
    let (report, _) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    assert_eq!(report.metric_samples, 500);
    assert_eq!(report.params, 1);
    assert_eq!(report.artifacts, 1);

    // The recovered document participates in normal tooling: it loads,
    // validates, and compares against the healthy run.
    let doc = experiment.load_run_document("victim").unwrap();
    assert!(prov_model::validate::is_valid(&doc));
    let victim = yprov4ml::compare::RunSummary::from_document(&doc).unwrap();
    assert_eq!(victim.params["learning_rate"], "0.01");

    let healthy_doc = experiment.load_run_document("healthy").unwrap();
    let healthy = yprov4ml::compare::RunSummary::from_document(&healthy_doc).unwrap();
    let table = yprov4ml::compare::compare_runs(&[victim, healthy], "training/loss");
    assert!(table.varying_params.contains(&"learning_rate".to_string()));

    // The combined experiment document includes the recovered run.
    let combined = experiment.combined_document().unwrap();
    let run_ty = prov_model::QName::yprov("RunExecution");
    assert_eq!(
        combined
            .iter_elements()
            .filter(|e| e.has_type(&run_ty))
            .count(),
        2
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn recovery_after_torn_write() {
    let base = std::env::temp_dir().join(format!("ycrash_torn_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("torn", &base).unwrap();

    let run_dir;
    {
        let run = experiment
            .start_run_with(
                "victim",
                RunOptions {
                    journal: true,
                    ..Default::default()
                },
            )
            .unwrap();
        for step in 0..100u64 {
            run.log_metric("loss", Context::Training, step, 0, step as f64);
        }
        run_dir = run.dir().to_path_buf();
        drop(run);
    }

    // Corrupt the tail the way a power cut would.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(run_dir.join(JOURNAL_FILE))
        .unwrap();
    f.write_all(b"{\"Metric\":{\"name\":\"lo").unwrap();
    drop(f);

    let (report, _) = recover(&run_dir, &SpillPolicy::Inline).unwrap();
    assert_eq!(report.metric_samples, 100, "all complete records recovered");
    std::fs::remove_dir_all(&base).ok();
}
