//! Pins what an inline run writes for its metric series, at every cut
//! and at the finish: each metric entity's `yprov4ml:values`,
//! `samples`, `min`, `max`, `mean` and `last`, as PROV-JSON prints them,
//! against `fixtures/inline_run/metrics.json`.
//!
//! The records cover two contexts, a series first logged after a cut,
//! a series that gains nothing between two cuts, every non-finite
//! spelling, a negative zero, a large and the smallest double. The
//! fixture was written by the emitter before it cached series text
//! across cuts; a change that makes this test fail moved the inline
//! bytes. `write_the_inline_fixture` (ignored) rewrites the fixture:
//! run it only on the commit whose bytes are meant to become the pin.

use std::path::{Path, PathBuf};
use yprov4ml::experiment::Experiment;
use yprov4ml::model::Context;

/// The attributes pinned on every metric entity.
const PINNED: [&str; 6] = ["last", "max", "mean", "min", "samples", "values"];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/inline_run/metrics.json")
}

/// The pinned attributes of every metric entity in a PROV-JSON text:
/// entity id → attribute → value.
fn metric_attributes(prov_json: &str) -> json::Value {
    let doc = json::parse(prov_json).unwrap();
    let mut entities = json::Map::new();
    for (id, entity) in doc["entity"].as_object().unwrap() {
        if !id.contains("/metric/") {
            continue;
        }
        let mut kept = json::Map::new();
        for name in PINNED {
            if let Some(v) = entity.get(&format!("yprov4ml:{name}")) {
                kept.insert(name.to_string(), v.clone());
            }
        }
        entities.insert(id.clone(), json::Value::Object(kept));
    }
    json::Value::Object(entities)
}

type Step<'a> = (&'a str, Context, u64, f64);

/// Logs `steps` at fixed times (`time_us` = 1000 + step), with epoch =
/// step / 4.
fn log(run: &yprov4ml::run::Run, steps: &[Step<'_>]) {
    for (name, context, step, value) in steps {
        let (step, epoch) = (*step, (*step / 4) as u32);
        run.log_metric_at(
            *name,
            context.clone(),
            step,
            epoch,
            1_000 + step as i64,
            *value,
        );
    }
}

/// Runs the fixed record set: two cuts, then the finish. Returns the
/// pinned attributes of the first cut, the second cut and `prov.json`,
/// printed pretty.
fn inline_run(tag: &str) -> String {
    let base = std::env::temp_dir().join(format!("inline_bytes_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let exp = Experiment::new("inline-pin", &base).unwrap();
    let run = exp.start_run("run").unwrap();
    let mut documents = json::Map::new();

    log(
        &run,
        &[
            ("loss", Context::Training, 0, 0.5),
            ("accuracy", Context::Validation, 0, f64::INFINITY),
            ("loss", Context::Training, 1, f64::NAN),
            ("accuracy", Context::Validation, 1, f64::NEG_INFINITY),
            ("loss", Context::Training, 2, 1e300),
            ("accuracy", Context::Validation, 2, 5e-324),
        ],
    );
    let cut = run.snapshot_document().unwrap().to_json_string().unwrap();
    documents.insert("1 first cut".into(), metric_attributes(&cut));

    // `lr` is first logged after a cut; `accuracy` gains nothing
    // before the next one.
    log(
        &run,
        &[
            ("loss", Context::Training, 3, -0.0),
            ("lr", Context::Training, 3, 1e-3),
            ("loss", Context::Training, 4, 0.25),
            ("lr", Context::Training, 4, f64::INFINITY),
        ],
    );
    let cut = run.snapshot_document().unwrap().to_json_string().unwrap();
    documents.insert("2 second cut".into(), metric_attributes(&cut));

    log(
        &run,
        &[
            ("accuracy", Context::Validation, 5, -0.0),
            ("loss", Context::Training, 5, 5e-324),
            ("lr", Context::Training, 5, -1e300),
            ("loss", Context::Training, 6, f64::NAN),
        ],
    );
    let report = run.finish().unwrap();
    let finished = std::fs::read_to_string(&report.prov_json_path).unwrap();
    documents.insert("3 finish".into(), metric_attributes(&finished));
    std::fs::remove_dir_all(&base).ok();

    let mut w = json::JsonWriter::in_memory(true);
    w.value(&json::Value::Object(documents));
    w.into_string() + "\n"
}

#[test]
fn inline_series_bytes_match_the_fixture() {
    let expected = std::fs::read_to_string(fixture()).unwrap();
    assert_eq!(inline_run("check"), expected);
}

#[test]
#[ignore]
fn write_the_inline_fixture() {
    let path = fixture();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, inline_run("gen")).unwrap();
}
