//! ML-audit scenarios over the lineage query endpoint, end to end: a
//! train-sim run whose provenance leaks the test split into training,
//! audited over real HTTP; a cross-run join
//! through shared artifact digests; and the same queries through the
//! failover-aware [`ClusterClient`]. The single-node audits run over
//! the in-memory and the durable store; the cluster's nodes are
//! durable.

use integration::{simulate_with_provenance, Mesh};
use std::net::SocketAddr;
use std::time::Duration;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, MachineConfig};
use yprov4ml::model::Direction;
use yprov4ml::Experiment;
use yprov_service::client::{Client, RetryPolicy};
use yprov_service::http::request;
use yprov_service::{ClusterClient, DocumentStore, Server, ServerConfig};

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        request_timeout: Duration::from_secs(10),
        jitter_seed: 7,
    }
}

fn small_cfg() -> SimConfig {
    SimConfig {
        model: ModelConfig::sized(Architecture::SwinV2, 100_000_000),
        machine: MachineConfig::frontier_like(),
        dataset: DatasetSpec::tiny(2_000),
        gpus: 8,
        per_gpu_batch: 32,
        epochs: 2,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: Default::default(),
    }
}

/// Two simulated runs in one experiment. `train-a` leaks: it reads the
/// test split as a training input. `train-b` is clean. Both consume the
/// same corpus bytes, so a cross-run join links them by digest.
fn produce_runs(base: &std::path::Path) -> (String, String) {
    let exp = Experiment::new("audit", base).unwrap();
    for (name, leaky) in [("train-a", true), ("train-b", false)] {
        let run = exp.start_run(name).unwrap();
        run.log_artifact_bytes("corpus.bin", b"shared corpus", Direction::Input)
            .unwrap();
        if leaky {
            run.log_artifact_bytes("test_split.bin", b"held-out data", Direction::Input)
                .unwrap();
        }
        let result = simulate_with_provenance(small_cfg(), &run, 50).unwrap();
        assert!(result.completed);
        run.log_model("model.ckpt", format!("weights-{name}").as_bytes())
            .unwrap();
        run.finish().unwrap();
    }
    let read = |name: &str| {
        std::fs::read_to_string(base.join("audit").join(name).join("prov.json")).unwrap()
    };
    (read("train-a"), read("train-b"))
}

fn doc_id(body: &str) -> String {
    let v: json::Value = json::parse(body).unwrap();
    v["id"].as_str().unwrap().to_string()
}

fn post_query(addr: SocketAddr, id: &str, body: &str) -> (u16, json::Value) {
    let (status, resp) = request(
        addr,
        "POST",
        &format!("/api/v0/documents/{id}/query"),
        Some(body),
    )
    .unwrap();
    let v: json::Value = json::parse(&resp).unwrap_or(json::Value::String(resp));
    (status, v)
}

#[test]
fn train_sim_leakage_is_audited_end_to_end() {
    let base = std::env::temp_dir().join(format!("yqa_audit_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (leaky_json, clean_json) = produce_runs(&base);

    integration::for_each_store(&base, |store, _| {
        let server = Server::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();
        let addr = server.addr();

        let client = Client::new(addr, policy());
        let leaky = doc_id(&client.upload_document(&leaky_json).unwrap().body);
        let clean = doc_id(&client.upload_document(&clean_json).unwrap().body);

        // Audit 1 — data leakage. The default filters catch the test
        // split feeding the training activity; the clean run passes.
        let (status, v) = post_query(addr, &leaky, r#"{"audit": "leakage", "render": "dot"}"#);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["clean"], false, "{v}");
        assert_eq!(
            v["leaks"][0]["start"],
            "exp:train-a/artifact/test_split.bin"
        );
        assert_eq!(v["leaks"][0]["end"], "exp:train-a");
        assert!(v["dot"].as_str().unwrap().contains("digraph"));
        let (status, v) = post_query(addr, &clean, r#"{"audit": "leakage"}"#);
        assert_eq!(status, 200);
        assert_eq!(v["clean"], true, "{v}");
        assert_eq!(v["test_artifacts"], 0);

        // Audit 2 — GDPR membership: the corpus is in the model's
        // provenance closure; the reverse direction is not membership.
        let body = r#"{"audit": "gdpr",
            "sample": "exp:train-a/artifact/corpus.bin",
            "model": "exp:train-a/artifact/model.ckpt"}"#;
        let (status, v) = post_query(addr, &leaky, body);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["trained_on"], true, "{v}");
        let path = v["path"].as_array().unwrap();
        assert_eq!(path.first().unwrap(), "exp:train-a/artifact/corpus.bin");
        assert_eq!(path.last().unwrap(), "exp:train-a/artifact/model.ckpt");
        let body = r#"{"audit": "gdpr",
            "sample": "exp:train-a/artifact/model.ckpt",
            "model": "exp:train-a/artifact/corpus.bin"}"#;
        let (status, v) = post_query(addr, &leaky, body);
        assert_eq!(status, 200);
        assert_eq!(v["trained_on"], false, "{v}");

        // Audit 3 — group fairness over a run whose samples carry
        // yprov4ml:group attributes.
        let fairness_doc = fairness_doc_json();
        let fid = doc_id(&client.upload_document(&fairness_doc).unwrap().body);
        let (status, v) = post_query(addr, &fid, r#"{"audit": "fairness", "model": "exp:model"}"#);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["groups"]["a"], 2, "{v}");
        assert_eq!(v["groups"]["b"], 1);
        assert_eq!(v["total"], 3);
        assert_eq!(v["balance"], 0.5);

        // Cross-run join: the shared corpus digest links both runs.
        let body = format!(r#"{{"audit": "join", "docs": ["{clean}"]}}"#);
        let (status, v) = post_query(addr, &leaky, &body);
        assert_eq!(status, 200, "{v}");
        assert!(v["shared_count"].as_u64().unwrap() >= 1, "{v}");
        let shared = v["joined"]
            .as_array()
            .unwrap()
            .iter()
            .find(|j| j["shared"] == true)
            .expect("corpus digest is shared");
        let artifacts = shared["artifacts"].as_array().unwrap();
        assert_eq!(artifacts.len(), 2, "{v}");
        let consumers = shared["consumers"].as_array().unwrap();
        assert_eq!(consumers.len(), 2, "both runs consumed the corpus");

        // A raw path query runs over the same endpoint: the model's
        // full provenance closure includes the leaked test split.
        let body = r#"{"query": {
            "start": {"id": "exp:train-a/artifact/model.ckpt"},
            "steps": [{"dir": "forward", "repeat": "+",
                       "target": {"idContains": "test_split"}}]
        }}"#;
        let (status, v) = post_query(addr, &leaky, body);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["row_count"], 1, "{v}");
        assert_eq!(v["rows"][0]["end"], "exp:train-a/artifact/test_split.bin");

        server.shutdown();
    });
    std::fs::remove_dir_all(&base).ok();
}

/// A run whose training samples carry `yprov4ml:group` attributes:
/// two of group `a`, one of group `b`, all feeding `exp:model`.
fn fairness_doc_json() -> String {
    use prov_model::{AttrValue, ProvDocument, QName};
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("exp", "http://ex/").unwrap();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .unwrap();
    for (name, group) in [("s1", "a"), ("s2", "a"), ("s3", "b")] {
        doc.entity(QName::new("exp", name))
            .attr(QName::yprov("group"), AttrValue::from(group));
        doc.used(QName::new("exp", "fit"), QName::new("exp", name));
    }
    doc.activity(QName::new("exp", "fit"));
    doc.entity(QName::new("exp", "model"));
    doc.was_generated_by(QName::new("exp", "model"), QName::new("exp", "fit"));
    doc.to_json_string().unwrap()
}

#[test]
fn cluster_client_queries_survive_primary_failover() {
    let base = std::env::temp_dir().join(format!("yqa_cluster_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (leaky_json, _) = produce_runs(&base);

    let ids = ["node-a", "node-b", "node-c"];
    let stores: Vec<DocumentStore> = ids
        .iter()
        .map(|id| DocumentStore::persistent(base.join(id)).unwrap())
        .collect();
    let mut mesh = Mesh::bind(&ids, &stores, RetryPolicy::default());
    let cluster = ClusterClient::new(mesh.members(), 2, policy());

    let resp = cluster.put("run-leaky", &leaky_json).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);

    // The audit answers through the cluster client's routing.
    let resp = cluster
        .query("run-leaky", r#"{"audit": "leakage"}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v: json::Value = json::parse(&resp.body).unwrap();
    assert_eq!(v["clean"], false, "{}", resp.body);

    // Kill the primary: the query fails over to a replica.
    let primary = cluster.placement("run-leaky")[0].clone();
    let idx = ids.iter().position(|id| *id == primary).unwrap();
    mesh.kill(idx);
    let resp = cluster
        .query("run-leaky", r#"{"audit": "leakage"}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v: json::Value = json::parse(&resp.body).unwrap();
    assert_eq!(v["clean"], false, "{}", resp.body);

    // Body errors are authoritative, not retried into unavailability.
    let resp = cluster.query("run-leaky", r#"{"audit": "nope"}"#).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    mesh.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
