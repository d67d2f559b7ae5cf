//! The whole ecosystem in one test: MLflow-shim logging → provenance
//! files → persistent tamper-evident service → workflow-level
//! provenance → RO-Crate packaging → impact analysis across the merged
//! graph.

use prov_model::{ElementKind, QName};
use yprov4ml::mlflow;
use yprov4wfs::{TaskOutcome, Workflow};
use yprov_service::DocumentStore;

#[test]
fn mlflow_to_service_to_crate() {
    let base = std::env::temp_dir().join(format!("yeco_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // 1. Produce a run through the MLflow-style module API.
    mlflow::set_tracking_dir(base.join("tracking"));
    mlflow::set_experiment("eco").unwrap();
    mlflow::start_run("ported-run").unwrap();
    mlflow::log_param("learning_rate", 0.01);
    for step in 0..100u64 {
        mlflow::log_metric("loss", 1.0 / (step + 1) as f64, step);
    }
    mlflow::log_text("model.txt", "weights").unwrap();
    let report = mlflow::end_run().unwrap();
    assert!(report.prov_json_path.is_file());

    // 2. Store it in a persistent, ledger-backed service store.
    let store_dir = base.join("service");
    let doc_id;
    {
        let store = DocumentStore::persistent(&store_dir).unwrap();
        let json = std::fs::read_to_string(&report.prov_json_path).unwrap();
        let doc = prov_model::ProvDocument::from_json_str(&json).unwrap();
        doc_id = store.upload(doc).unwrap();
        assert_eq!(store.ledger_entries().len(), 1);
    }
    // Reopen: the ledger verifies and the document is intact.
    let store = DocumentStore::persistent(&store_dir).unwrap();
    let doc = store.get(&doc_id).expect("persisted document");
    assert!(prov_model::validate::is_valid(&doc));

    // 3. A workflow consumes the run's model artifact; merge both
    //    provenance levels.
    let mut wf = Workflow::new("deploy");
    wf.task("package", [], |_| {
        Ok(TaskOutcome::new().output("bundle.tar", b"packaged model".to_vec()))
    });
    wf.task("publish", ["package"], |ctx| {
        let bundle = ctx.input("package", "bundle.tar").ok_or("no bundle")?;
        Ok(TaskOutcome::new().param("published_bytes", bundle.len()))
    });
    let wf_report = yprov4wfs::run(wf).unwrap();
    assert!(wf_report.succeeded());

    let mut merged = wf_report.document.clone();
    merged.merge(&doc).unwrap();
    assert!(prov_model::validate::is_valid(&merged));

    // 4. Impact analysis across the merged graph: everything downstream
    //    of the run's input parameterization.
    let run_activity = QName::new("exp", "ported-run");
    let downstream = prov_graph::ProvGraph::new(&merged).descendants(&run_activity);
    assert!(
        downstream.iter().any(|id| {
            merged
                .get(id)
                .is_some_and(|e| e.kind == ElementKind::Entity)
                && id.local().contains("model.txt")
        }),
        "the run's artifact is downstream of the run: {downstream:?}"
    );

    // 5. Package the run directory as a validated RO-Crate.
    let run_dir = report.prov_json_path.parent().unwrap().to_path_buf();
    rocrate::validate::wrap_directory(&run_dir, "ported-run", "ecosystem test").unwrap();
    assert!(rocrate::validate_crate(&run_dir).unwrap().is_empty());

    std::fs::remove_dir_all(&base).ok();
}
