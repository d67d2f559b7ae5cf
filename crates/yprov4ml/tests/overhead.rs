//! Overhead self-provenance: when the global observability registry is
//! enabled, a finished run's document carries `yprov4ml:overhead/*`
//! entities describing the tracker's own cost; when disabled (the
//! default), the document contains none of them.
//!
//! The global registry is process-wide state, so everything lives in a
//! single test function that toggles it sequentially. Other test
//! binaries are separate processes and see their own registry.

use prov_model::{QName, RelationKind};
use yprov4ml::experiment::Experiment;
use yprov4ml::model::Context;
use yprov4ml::run::{FinalizeOptions, RunOptions};
use yprov4ml::spill::SpillPolicy;

fn overhead_entities(doc: &prov_model::ProvDocument) -> Vec<String> {
    doc.iter_elements()
        .filter(|e| e.id.prefix() == prov_model::qname::YPROV_PREFIX)
        .filter(|e| e.id.local().starts_with("overhead/"))
        .map(|e| e.id.local().to_string())
        .collect()
}

fn exercise_run(exp: &Experiment, name: &str) {
    let run = exp
        .start_run_with(
            name,
            RunOptions {
                journal: true,
                spill: SpillPolicy::Zarr(Default::default()),
                finalize: FinalizeOptions::with_threads(2),
                ..Default::default()
            },
        )
        .unwrap();
    run.log_param("lr", 0.01);
    run.start_context(Context::Training);
    for step in 0..2000u64 {
        run.log_metric_at("loss", Context::Training, step, 0, step as i64, 0.5);
    }
    run.end_context(Context::Training);
    run.finish().unwrap();
}

#[test]
fn overhead_entities_follow_the_registry_switch() {
    let base = std::env::temp_dir().join(format!("yobs_overhead_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let exp = Experiment::new("obs", &base).unwrap();

    // Phase 1: registry disabled (the process default) — the document
    // must be exactly what it was before the observability layer
    // existed: no overhead entities at all.
    assert!(!obs::global().is_enabled());
    exercise_run(&exp, "quiet");
    let quiet = exp.load_run_document("quiet").unwrap();
    assert!(prov_model::validate::is_valid(&quiet));
    assert!(
        overhead_entities(&quiet).is_empty(),
        "disabled registry must not leak overhead entities"
    );

    // Phase 2: enabled — the same workload now self-reports.
    obs::set_global_enabled(true);
    exercise_run(&exp, "measured");
    obs::set_global_enabled(false);

    let doc = exp.load_run_document("measured").unwrap();
    assert!(prov_model::validate::is_valid(&doc));
    let locals = overhead_entities(&doc);
    for expected in [
        "overhead/yprov4ml_collector_log_seconds",
        "overhead/yprov4ml_journal_append_seconds",
        "overhead/yprov4ml_finalize_drain_seconds",
        "overhead/yprov4ml_finalize_spill_seconds",
    ] {
        assert!(
            locals.iter().any(|l| l == expected),
            "missing {expected}; got {locals:?}"
        );
    }

    // Every overhead entity is typed, carries a count, and is generated
    // by the run activity.
    let ty = QName::yprov("OverheadMetric");
    let count_key = QName::yprov("count");
    let run_activity = QName::new("exp", "measured");
    for local in &locals {
        let id = QName::yprov(local.as_str());
        let e = doc.get(&id).unwrap();
        assert!(
            e.has_type(&ty),
            "{local} lacks yprov4ml:OverheadMetric type"
        );
        let count = match e.attr(&count_key) {
            Some(prov_model::AttrValue::Int(n)) => *n,
            other => panic!("{local} count attr malformed: {other:?}"),
        };
        assert!(count >= 1, "{local} recorded no samples");
        assert!(
            doc.relations_of(RelationKind::WasGeneratedBy)
                .any(|r| r.subject == id && r.object == run_activity),
            "{local} not generated by the run activity"
        );
    }

    // Timed histograms also publish duration statistics.
    let total = QName::yprov("total_ns");
    let drain = doc
        .get(&QName::yprov("overhead/yprov4ml_finalize_drain_seconds"))
        .unwrap();
    assert!(matches!(drain.attr(&total), Some(prov_model::AttrValue::Int(n)) if *n >= 0));
    assert!(drain.attr(&QName::yprov("mean_ns")).is_some());
    assert!(drain.attr(&QName::yprov("p99_upper_ns")).is_some());

    std::fs::remove_dir_all(&base).ok();
}
