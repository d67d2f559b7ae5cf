//! The full pipeline, end to end: simulate a distributed training run,
//! collect provenance, validate it, query its lineage, serve it over
//! the REST API, package it as an RO-Crate, and replay it from the
//! PROV-JSON alone.

use integration::{replay_from_provenance, simulate_with_provenance};
use prov_graph::ProvGraph;
use prov_model::QName;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, MachineConfig};
use yprov4ml::model::Direction;
use yprov4ml::Experiment;
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

fn cfg() -> SimConfig {
    SimConfig {
        model: ModelConfig::sized(Architecture::MaeVit, 200_000_000),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(5_000),
        gpus: 16,
        per_gpu_batch: 32,
        epochs: 2,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: true,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: Default::default(),
    }
}

#[test]
fn full_pipeline() {
    let base = std::env::temp_dir().join(format!("ye2e_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // 1. Produce: simulate with provenance, plus an input artifact.
    let experiment = Experiment::new("e2e", &base).unwrap();
    let run = experiment.start_run("pipeline-run").unwrap();
    run.log_artifact_bytes(
        "dataset_manifest.json",
        b"{\"patches\": 5000}",
        Direction::Input,
    )
    .unwrap();
    let result = simulate_with_provenance(cfg(), &run, 5).unwrap();
    run.log_model("final.ckpt", b"trained weights").unwrap();
    let report = run.finish().unwrap();
    assert!(result.completed);
    assert!(report.metric_samples > 0);

    // 2. Validate: the document is well-formed PROV.
    let doc = experiment.load_run_document("pipeline-run").unwrap();
    let issues = prov_model::validate(&doc);
    assert!(
        prov_model::validate::is_valid(&doc),
        "provenance must validate: {issues:?}"
    );

    // 3. Lineage: the model's ancestry reaches the input artifact.
    let graph = ProvGraph::new(&doc);
    let model = QName::new("exp", "pipeline-run/artifact/final.ckpt");
    let ancestors = graph.ancestors(&model);
    assert!(ancestors.contains(&QName::new(
        "exp",
        "pipeline-run/artifact/dataset_manifest.json"
    )));
    // Acyclic: no edge from -> to is a self-loop or has a path from `to`
    // back to `from`, which together with the edge would close a cycle.
    for e in graph.edges() {
        let (from, to) = (graph.id(e.from), graph.id(e.to));
        assert!(
            e.from != e.to && !graph.ancestors(to).contains(from),
            "edge {from} -> {to} lies on a cycle"
        );
    }

    // 4. Serve: upload over real HTTP, query back.
    let store = DocumentStore::new();
    let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default()).unwrap();
    let json = std::fs::read_to_string(&report.prov_json_path).unwrap();
    let (status, body) = request(server.addr(), "POST", "/api/v0/documents", Some(&json)).unwrap();
    assert_eq!(status, 201, "{body}");
    let id: json::Value = json::parse(&body).unwrap();
    let id = id["id"].as_str().unwrap();
    let (status, stats) = request(
        server.addr(),
        "GET",
        &format!("/api/v0/documents/{id}/stats"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200);
    let stats: json::Value = json::parse(&stats).unwrap();
    assert!(stats["entities"].as_u64().unwrap() > 3);
    server.shutdown();

    // 5. Package: the run directory wraps into a valid RO-Crate.
    let run_dir = experiment.dir().join("pipeline-run");
    rocrate::validate::wrap_directory(&run_dir, "pipeline-run", "e2e test run").unwrap();
    assert!(rocrate::validate_crate(&run_dir).unwrap().is_empty());

    // 6. Reproduce: replay the run from its PROV-JSON alone.
    let replay = replay_from_provenance(&doc).unwrap();
    assert!(
        replay.reproduced,
        "recorded {:?} vs replayed {}",
        replay.recorded_loss, replay.replayed_loss
    );
    assert_eq!(replay.result.final_loss, result.final_loss);

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn combined_experiment_document_spans_runs() {
    let base = std::env::temp_dir().join(format!("ye2e_comb_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("sweep", &base).unwrap();

    for (name, gpus) in [("g8", 8u32), ("g32", 32)] {
        let run = experiment.start_run(name).unwrap();
        let mut c = cfg();
        c.gpus = gpus;
        c.exercise_collective = false;
        simulate_with_provenance(c, &run, 20).unwrap();
        run.finish().unwrap();
    }

    let combined = experiment.combined_document().unwrap();
    assert!(prov_model::validate::is_valid(&combined));
    let run_ty = QName::yprov("RunExecution");
    assert_eq!(
        combined
            .iter_elements()
            .filter(|e| e.has_type(&run_ty))
            .count(),
        2
    );
    // Both runs share the experiment entity — one node, two wasStartedBy.
    assert_eq!(
        combined
            .relations_of(prov_model::RelationKind::WasStartedBy)
            .count(),
        2
    );
    std::fs::remove_dir_all(&base).ok();
}
