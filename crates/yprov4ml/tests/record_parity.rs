//! A journaled run's finish and the recovery of its journal write the
//! same record. The run is copied once its journal is flushed, then the
//! run finishes (or fails) and the copy is recovered; the two
//! `prov.json` files agree once what only one of them can know is set
//! aside: the run's end time and status, the journal counts, the Crash
//! and Recovery activities and what hangs off them. Relation ids are
//! assigned in emission order, so each relation kind is compared as a
//! sorted list of its members.

use std::path::{Path, PathBuf};

use json::{Map, Value};
use yprov4ml::journal::{recover, JournalConfig, SyncPolicy};
use yprov4ml::model::{Context, Direction};
use yprov4ml::run::{Run, RunOptions};
use yprov4ml::{Experiment, RunReport, SpillPolicy};

const RUN: &str = "parity";

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Logs everything a run's record holds: an input and an output
/// param, two contexts with start and end, 1,000 samples over three
/// series, an input artifact and a model.
fn log_a_run(run: &Run) {
    run.log_param("lr", 0.01);
    run.start_context(Context::Training);
    run.start_context(Context::Validation);
    run.log_artifact_bytes("dataset.csv", b"x,y\n1,2\n3,4\n", Direction::Input)
        .unwrap();
    let t0 = 1_700_000_000_000_000i64;
    for step in 0..400u64 {
        let time = t0 + step as i64 * 1_000;
        let epoch = (step / 100) as u32;
        run.log_metric_at(
            "loss",
            Context::Training,
            step,
            epoch,
            time,
            1.0 / (step + 1) as f64,
        );
        if step % 4 != 3 {
            run.log_metric_at(
                "lr",
                Context::Training,
                step,
                epoch,
                time,
                0.01 * 0.99f64.powi(step as i32),
            );
        }
    }
    for step in 0..300u64 {
        let time = t0 + 500_000 + step as i64 * 1_000;
        run.log_metric_at(
            "accuracy",
            Context::Validation,
            step,
            0,
            time,
            step as f64 / 300.0,
        );
    }
    run.log_model("model.ckpt", &[7u8; 64]).unwrap();
    run.end_context(Context::Validation);
    run.end_context(Context::Training);
    run.log_output_param("final_loss", 0.0025);
}

/// The document at `path`, with relation ids replaced by sorted lists
/// and everything only a finish or only a recovery records removed.
fn normalized(path: &Path) -> Map {
    let text = std::fs::read_to_string(path).unwrap();
    let Value::Object(doc) = json::parse(&text).unwrap() else {
        panic!("{} is not a JSON object", path.display());
    };
    let run = format!("exp:{RUN}");
    let own = [format!("{run}/crash"), format!("{run}/recovery")];
    let names_own = |v: &Value| own.iter().any(|q| *v == **q);
    let mut out = Map::new();
    for (kind, body) in doc {
        let Value::Object(members) = body else {
            out.insert(kind, body);
            continue;
        };
        match kind.as_str() {
            "prefix" | "entity" | "agent" => {
                out.insert(kind, Value::Object(members));
            }
            "activity" => {
                let mut kept = Map::new();
                for (id, mut activity) in members {
                    if own.contains(&id) {
                        continue;
                    }
                    if id == run {
                        if let Value::Object(attrs) = &mut activity {
                            for attr in [
                                "prov:endTime",
                                "yprov4ml:status",
                                "yprov4ml:journal_records",
                                "yprov4ml:journal_skipped",
                            ] {
                                attrs.remove(attr);
                            }
                        }
                    }
                    kept.insert(id, activity);
                }
                out.insert(kind, Value::Object(kept));
            }
            "wasInvalidatedBy" => {}
            _ => {
                let mut relations: Vec<String> = members
                    .into_values()
                    .filter(|r| !r.as_object().unwrap().values().any(&names_own))
                    .map(|r| r.to_string())
                    .collect();
                relations.sort();
                if !relations.is_empty() {
                    out.insert(kind, relations.into());
                }
            }
        }
    }
    out
}

fn run_attr(path: &Path, attr: &str) -> Option<Value> {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc["activity"][format!("exp:{RUN}").as_str()]
        .get(attr)
        .cloned()
}

fn assert_finish_and_recovery_agree(tag: &str, spill: SpillPolicy, end: fn(Run) -> RunReport) {
    let base = std::env::temp_dir().join(format!("yparity_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("parity-exp", &base).unwrap();
    let run = experiment
        .start_run_with(
            RUN,
            RunOptions {
                spill: spill.clone(),
                user: Some("auditor".into()),
                journal: true,
                journal_config: JournalConfig {
                    sync: SyncPolicy::Always,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
    log_a_run(&run);
    run.flush().unwrap();
    let copy: PathBuf = base.join("copy").join(RUN);
    copy_dir(run.dir(), &copy);

    let finished = end(run).prov_json_path;
    recover(&copy, &spill).unwrap();
    let recovered = copy.join("prov.json");

    assert_eq!(
        run_attr(&recovered, "yprov4ml:status"),
        Some("recovered".into()),
        "{tag}"
    );
    assert_eq!(
        run_attr(&recovered, "yprov4ml:journal_skipped"),
        Some(0u64.into()),
        "{tag}"
    );
    let finished = normalized(&finished);
    let entities = finished["entity"].as_object().unwrap();
    for (kind, count) in [("/metric/", 3), ("/artifact/", 2)] {
        let found = entities.keys().filter(|id| id.contains(kind)).count();
        assert_eq!(found, count, "{tag}: {kind}");
    }
    assert_eq!(
        finished,
        normalized(&recovered),
        "{tag}: the finished and the recovered record differ"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn an_inline_finish_and_its_recovery_agree() {
    assert_finish_and_recovery_agree("inline_finish", SpillPolicy::Inline, |run| {
        run.finish().unwrap()
    });
}

#[test]
fn an_inline_failure_and_its_recovery_agree() {
    assert_finish_and_recovery_agree("inline_fail", SpillPolicy::Inline, |run| {
        run.fail().unwrap()
    });
}

#[test]
fn a_netcdf_finish_and_its_recovery_agree() {
    assert_finish_and_recovery_agree(
        "netcdf_finish",
        SpillPolicy::NetCdf(Default::default()),
        |run| run.finish().unwrap(),
    );
}

#[test]
fn a_zarr_failure_and_its_recovery_agree() {
    assert_finish_and_recovery_agree("zarr_fail", SpillPolicy::Zarr(Default::default()), |run| {
        run.fail().unwrap()
    });
}
