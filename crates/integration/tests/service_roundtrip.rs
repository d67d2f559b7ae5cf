//! Producer → service → explorer integration over real HTTP: the yProv
//! ecosystem loop with generated (not hand-written) documents, over
//! the in-memory and the durable store alike.

use yprov4ml::model::{Context, Direction};
use yprov4ml::Experiment;
use yprov_service::explorer;
use yprov_service::http::request;
use yprov_service::{Server, ServerConfig};

fn produce_runs(base: &std::path::Path, n: usize) -> Experiment {
    let experiment = Experiment::new("svc", base).unwrap();
    for i in 0..n {
        let run = experiment.start_run(format!("run-{i}")).unwrap();
        run.log_param("learning_rate", 10f64.powi(-(i as i32 + 2)));
        run.log_artifact_bytes("data.bin", b"shared input", Direction::Input)
            .unwrap();
        for step in 0..30u64 {
            run.log_metric(
                "loss",
                Context::Training,
                step,
                0,
                (i + 1) as f64 / (step + 1) as f64,
            );
        }
        run.log_model("model.ckpt", format!("weights-{i}").as_bytes())
            .unwrap();
        run.finish().unwrap();
    }
    experiment
}

#[test]
fn http_roundtrip_with_generated_documents() {
    let base = std::env::temp_dir().join(format!("ysvc_rt_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = produce_runs(&base, 3);

    integration::for_each_store(&base, |store, _| {
        let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default()).unwrap();
        let addr = server.addr();

        // Upload all three via HTTP; fetch each back and compare to disk.
        let mut ids = Vec::new();
        for name in experiment.list_runs().unwrap() {
            let disk_json =
                std::fs::read_to_string(experiment.dir().join(&name).join("prov.json")).unwrap();
            let (status, body) =
                request(addr, "POST", "/api/v0/documents", Some(&disk_json)).unwrap();
            assert_eq!(status, 201);
            let id: json::Value = json::parse(&body).unwrap();
            let id = id["id"].as_str().unwrap().to_string();

            let (status, served) =
                request(addr, "GET", &format!("/api/v0/documents/{id}"), None).unwrap();
            assert_eq!(status, 200);
            let mut on_disk = prov_model::ProvDocument::from_json_str(&disk_json).unwrap();
            let mut from_server = prov_model::ProvDocument::from_json_str(&served).unwrap();
            on_disk.canonicalize();
            from_server.canonicalize();
            assert_eq!(on_disk, from_server, "server must round-trip {name}");
            ids.push(id);
        }

        // Lineage over HTTP for the second run's model.
        let (status, body) = request(
            addr,
            "GET",
            &format!(
                "/api/v0/documents/{}/ancestors?focus=exp%3Arun-1%2Fartifact%2Fmodel.ckpt",
                ids[1]
            ),
            None,
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let v: json::Value = json::parse(&body).unwrap();
        let ancestors: Vec<&str> = v["ancestors"]
            .as_array()
            .unwrap()
            .iter()
            .map(|a| a.as_str().unwrap())
            .collect();
        assert!(ancestors.contains(&"exp:run-1/artifact/data.bin"));

        // Explorer sees all three runs with their artifacts.
        let summaries = explorer::summarize(&store);
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|s| s.artifacts == 2 && s.metrics == 1));

        // Digest search: which run produced this exact model?
        let digest = yprov4ml::hash::sha256_hex(b"weights-1");
        let hits = explorer::find_by_artifact_digest(&store, &digest);
        assert_eq!(hits.len(), 1);

        server.shutdown();
    });
    std::fs::remove_dir_all(&base).ok();
}
