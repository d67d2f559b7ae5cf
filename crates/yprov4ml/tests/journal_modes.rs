//! A journaled run started in the directory of one that crashed, under
//! each [`JournalMode`] that allows it: `Resume` goes on from what the
//! journal holds, under the identity its header recorded; `Overwrite`
//! starts from nothing. Either way the finished `prov.json` and a
//! replay of the journal tell the same story.

use std::ops::Range;
use std::path::PathBuf;

use prov_model::{ProvDocument, QName};
use yprov4ml::journal::{read_journal, JournalConfig, JournalMode, SyncPolicy};
use yprov4ml::model::Context;
use yprov4ml::run::{Run, RunOptions};
use yprov4ml::Experiment;

fn experiment(tag: &str) -> Experiment {
    let base = std::env::temp_dir().join(format!("yjournal_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    Experiment::new("modes", &base).unwrap()
}

fn start(experiment: &Experiment, mode: JournalMode, user: &str) -> Run {
    experiment
        .start_run_with(
            "run",
            RunOptions {
                user: Some(user.to_string()),
                journal: true,
                journal_config: JournalConfig {
                    mode,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap()
}

fn log(run: &Run, steps: Range<u64>) {
    for step in steps {
        run.log_metric("loss", Context::Training, step, 0, step as f64);
    }
}

/// Logs a parameter and `steps`, flushes the journal and drops the run
/// without finishing it: a crash that leaves only the journal.
fn crash(run: Run, steps: Range<u64>) -> PathBuf {
    run.log_param("lr", 0.1);
    log(&run, steps);
    run.flush().unwrap();
    let dir = run.dir().to_path_buf();
    drop(run);
    assert!(!dir.join("prov.json").exists());
    dir
}

#[test]
fn a_resumed_run_keeps_what_it_logged_before_the_crash() {
    let experiment = experiment("resume");
    let dir = crash(
        start(&experiment, JournalMode::FailIfExists, "alice"),
        0..10,
    );

    let run = start(&experiment, JournalMode::Resume, "alice");
    log(&run, 10..20);
    let report = run.finish().unwrap();

    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.state.metric_samples, 20);
    assert_eq!(report.metric_samples, 20);
    assert_eq!(report.params, 1);
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn a_resumed_run_keeps_its_journal_header_identity() {
    let experiment = experiment("identity");
    let dir = crash(start(&experiment, JournalMode::FailIfExists, "alice"), 0..3);
    // The resumed run starts strictly later than the crashed one did.
    std::thread::sleep(std::time::Duration::from_millis(2));

    let run = start(&experiment, JournalMode::Resume, "bob");
    log(&run, 3..5);
    run.finish().unwrap();

    let header = read_journal(&dir).unwrap().header;
    let doc = ProvDocument::from_json_str(&std::fs::read_to_string(dir.join("prov.json")).unwrap())
        .unwrap();
    let activity = doc.get(&QName::new("exp", "run")).unwrap();
    assert_eq!(
        activity.start_time().unwrap().epoch_micros(),
        header.started_us
    );
    assert_eq!(header.user, "alice");
    assert!(doc.get(&QName::new("exp", "user/alice")).is_some());
    assert!(doc.get(&QName::new("exp", "user/bob")).is_none());
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn an_overwrite_run_keeps_only_its_own_records() {
    let experiment = experiment("overwrite");
    let dir = crash(
        start(&experiment, JournalMode::FailIfExists, "alice"),
        0..10,
    );

    let run = start(&experiment, JournalMode::Overwrite, "bob");
    log(&run, 100..105);
    let report = run.finish().unwrap();
    assert_eq!(report.metric_samples, 5);
    assert_eq!(report.params, 0);

    let replay = read_journal(&dir).unwrap();
    assert_eq!(replay.records, 5);
    assert_eq!(replay.state.metric_samples, 5);
    assert!(replay.state.params.is_empty());
    assert_eq!(replay.header.user, "bob");
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn a_resumed_run_over_rotation_segments_without_segment_0_is_refused() {
    let experiment = experiment("no_segment_0");
    let rotating = |mode| RunOptions {
        user: Some("alice".to_string()),
        journal: true,
        journal_config: JournalConfig {
            sync: SyncPolicy::Always,
            mode,
            rotate_bytes: Some(1),
        },
        ..Default::default()
    };
    let run = experiment
        .start_run_with("run", rotating(JournalMode::FailIfExists))
        .unwrap();
    let dir = crash(run, 0..3);
    std::fs::remove_file(dir.join("journal.jsonl")).unwrap();
    let files = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.is_file())
            .map(|path| (std::fs::read(&path).unwrap(), path))
            .collect();
        files.sort();
        files
    };
    let before = files();
    assert!(before.len() >= 3, "{} files", before.len());

    let resumed = experiment.start_run_with("run", rotating(JournalMode::Resume));
    assert!(resumed.is_err(), "a journal without segment 0 is no run");
    assert_eq!(files(), before, "the refusal wrote nothing");
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}
