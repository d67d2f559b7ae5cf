//! Live streaming end to end: a training run ships per-epoch deltas to
//! the service while a watcher long-polls the document, and the
//! streamed document converges byte-for-byte with the finalize-only
//! upload path. Each test runs over the in-memory and the durable
//! store.

use integration::simulate_streaming_to_service;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use train_sim::model::{Architecture, ModelConfig};
use train_sim::sim::{SimConfig, WalltimeCutoff};
use train_sim::{DatasetSpec, MachineConfig};
use yprov4ml::model::Context;
use yprov4ml::{DeltaCadence, Experiment};
use yprov_service::client::{Client, RetryPolicy};
use yprov_service::{Server, ServerConfig};

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
        epochs: 3,
        comm: Default::default(),
        cutoff: WalltimeCutoff::Unlimited,
        exercise_collective: false,
        phase: train_sim::sim::Phase::PreTraining,
        grad_accumulation: 1,
        resume_from: None,
        faults: Default::default(),
    }
}

fn doc_id(body: &str) -> String {
    let v: json::Value = json::parse(body).unwrap();
    v["id"].as_str().unwrap().to_string()
}

fn merged_version(body: &str) -> u64 {
    let v: json::Value = json::parse(body).unwrap();
    v["version"].as_u64().unwrap()
}

#[test]
fn train_sim_streams_deltas_and_converges_to_the_finalize_document() {
    let base = std::env::temp_dir().join(format!("ylive_conv_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    integration::for_each_store(&base, |store, dir| {
        let exp = Experiment::new("live", dir).unwrap();
        let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default()).unwrap();
        let client = Client::new(server.addr(), policy());

        // The run opens its live document with a first (pre-training)
        // snapshot, then streams a delta at every epoch boundary.
        let run = exp.start_run("streamed").unwrap();
        let opened = client
            .upload_document(&run.snapshot_document().unwrap().to_json_string().unwrap())
            .unwrap();
        assert_eq!(opened.status, 201, "{}", opened.body);
        let id = doc_id(&opened.body);

        // Build the graph cache once up front: every delta merge after
        // this must extend it incrementally, never rebuild it.
        let warm = client
            .get(&format!(
                "/api/v0/documents/{id}/ancestors?focus=exp%3Astreamed"
            ))
            .unwrap();
        assert_eq!(warm.status, 200, "{}", warm.body);

        let (result, shipped) = simulate_streaming_to_service(
            small_cfg(),
            &run,
            10,
            DeltaCadence::EveryEpoch,
            &client,
            &id,
        )
        .unwrap();
        assert!(result.completed);
        assert_eq!(shipped, 2, "3 epochs means 2 boundary deltas");

        // Finalize and ship the finished document as the last delta.
        run.finish().unwrap();
        let final_json =
            std::fs::read_to_string(exp.dir().join("streamed").join("prov.json")).unwrap();
        let sealed = client.upload_delta(&id, &final_json).unwrap();
        assert_eq!(sealed.status, 200, "{}", sealed.body);

        // Control: the same finished document uploaded the classic way.
        let control = client.upload_document(&final_json).unwrap();
        assert_eq!(control.status, 201);
        let control_id = doc_id(&control.body);

        let streamed = client.get(&format!("/api/v0/documents/{id}")).unwrap();
        let finalize_only = client
            .get(&format!("/api/v0/documents/{control_id}"))
            .unwrap();
        assert_eq!(streamed.status, 200);
        assert_eq!(finalize_only.status, 200);
        assert_eq!(
            streamed.body, finalize_only.body,
            "streamed deltas must converge byte-for-byte with finalize-only"
        );

        // Every merge after the warm-up extended the cached index.
        assert_eq!(
            store.incremental_merges(),
            shipped + 1,
            "all {} delta merges must reuse the cached index incrementally",
            shipped + 1
        );

        server.shutdown();
    });
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn concurrent_watcher_observes_every_merged_version_in_order() {
    let base = std::env::temp_dir().join(format!("ylive_watch_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    integration::for_each_store(&base, |store, dir| {
        let exp = Experiment::new("live", dir).unwrap();
        let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default()).unwrap();
        let client = Client::new(server.addr(), policy());

        // Cut cumulative snapshots at three points of a hand-driven run,
        // then the finalize document.
        let run = exp.start_run("watched").unwrap();
        let mut deltas = Vec::new();
        for epoch in 0..3u32 {
            for step in 0..5u64 {
                run.log_metric_at(
                    "loss",
                    Context::Training,
                    epoch as u64 * 5 + step,
                    epoch,
                    (epoch as i64) * 5 + step as i64,
                    1.0 / (step + 1) as f64,
                );
            }
            deltas.push(run.snapshot_document().unwrap().to_json_string().unwrap());
        }
        run.finish().unwrap();
        deltas.push(std::fs::read_to_string(exp.dir().join("watched").join("prov.json")).unwrap());

        // The first snapshot opens the document at version 1.
        let opened = client.upload_document(&deltas.remove(0)).unwrap();
        assert_eq!(opened.status, 201, "{}", opened.body);
        let id = doc_id(&opened.body);

        // The watcher trails the uploader one version at a time; the
        // uploader waits for it to catch up before merging the next
        // delta, so "observes every version in order" is deterministic.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let watcher_cursor = Arc::new(AtomicU64::new(1));
        let target = Arc::new(AtomicU64::new(0));
        let watcher = {
            let client = client.clone();
            let id = id.clone();
            let seen = Arc::clone(&seen);
            let watcher_cursor = Arc::clone(&watcher_cursor);
            let target = Arc::clone(&target);
            std::thread::spawn(move || {
                let mut cursor = 1u64;
                loop {
                    let resp = client
                        .watch(&id, cursor, Duration::from_millis(300))
                        .unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let v: json::Value = json::parse(&resp.body).unwrap();
                    if v["changed"].as_bool().unwrap() {
                        cursor = v["version"].as_u64().unwrap();
                        seen.lock().unwrap().push(cursor);
                        watcher_cursor.store(cursor, Ordering::SeqCst);
                    }
                    let t = target.load(Ordering::SeqCst);
                    if t != 0 && cursor >= t {
                        return;
                    }
                }
            })
        };

        let mut last_version = 1u64;
        for delta in &deltas {
            let resp = client.upload_delta(&id, delta).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            last_version = merged_version(&resp.body);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while watcher_cursor.load(Ordering::SeqCst) < last_version {
                assert!(
                    std::time::Instant::now() < deadline,
                    "watcher never observed version {last_version}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        target.store(last_version, Ordering::SeqCst);
        watcher.join().unwrap();

        let seen = seen.lock().unwrap().clone();
        let expected: Vec<u64> = (2..=last_version).collect();
        assert_eq!(
            seen, expected,
            "the watcher must observe every merged version, in order"
        );

        server.shutdown();
    });
    std::fs::remove_dir_all(&base).ok();
}
