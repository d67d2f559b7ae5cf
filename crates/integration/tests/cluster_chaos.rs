//! Cluster-scale chaos for the replicated provenance service: a
//! seeded [`FaultPlan`] decides when the write primary dies mid-upload,
//! the surviving replicas are promoted and keep answering with their
//! hash chains intact, and push faults injected on the wire (drop,
//! tear, duplicate, delay, partition) all converge back to
//! byte-identical state. Every node reaches each peer through a
//! `testkit::FaultProxy` of its own ([`Mesh`]); a test arms a fault on
//! `POST /api/v0/replication/frames` of the link it breaks.
//!
//! On failure, every surviving node's ledger files are copied into
//! `$YPROV_CLUSTER_ARTIFACTS` (when set) so CI can upload them. The
//! headline test also exercises the ops plane mid-chaos — a survivor's
//! `/api/v0/obs/health` and federated `/api/v0/obs/cluster` views —
//! and dumps each survivor's slowlog and alert state into
//! `$YPROV_OBS_ARTIFACTS` (when set) for the same upload path.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use integration::Mesh;
use testkit::Fault;
use train_sim::{FaultKind, FaultPlan};
use yprov_service::{Client, ClusterClient, DocumentStore, RetryPolicy, Ring};

const FRAMES: &str = "/api/v0/replication/frames";

fn fast_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        request_timeout: Duration::from_secs(5),
        jitter_seed: seed,
    }
}

/// Push policy for tests with dead peers: one attempt, short timeout,
/// so every upload pays milliseconds (not a retry schedule) per corpse.
fn push_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        request_timeout: Duration::from_millis(1500),
        ..fast_policy(3)
    }
}

/// One request, no retries: [`Client`] retries a 503 and reports only
/// that it ran out of attempts, and the tests below assert on the 503
/// itself.
fn put_once(addr: SocketAddr, id: &str, body: &str) -> (u16, String) {
    yprov_service::http::request(addr, "PUT", &format!("/api/v0/documents/{id}"), Some(body))
        .unwrap()
}

fn doc_json(tag: &str) -> String {
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(prov_model::QName::new("ex", "data"));
    doc.activity(prov_model::QName::new("ex", "train"));
    doc.entity(prov_model::QName::new("ex", tag));
    doc.used(
        prov_model::QName::new("ex", "train"),
        prov_model::QName::new("ex", "data"),
    );
    doc.was_generated_by(
        prov_model::QName::new("ex", tag),
        prov_model::QName::new("ex", "train"),
    );
    doc.to_json_string().unwrap()
}

/// Copies each node's chain files (`ledger.txt`, `repl-*.chain`) into
/// `$YPROV_CLUSTER_ARTIFACTS/<node>/` when the owning test panics, so a
/// CI failure ships the surviving ledgers as artifacts.
struct LedgerArtifacts {
    nodes: Vec<(String, PathBuf)>,
}

impl Drop for LedgerArtifacts {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let Some(out) = std::env::var_os("YPROV_CLUSTER_ARTIFACTS") else {
            return;
        };
        let out = PathBuf::from(out);
        for (node, dir) in &self.nodes {
            let dest = out.join(node);
            std::fs::create_dir_all(&dest).ok();
            let Ok(entries) = std::fs::read_dir(dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let is_chain = name.to_string_lossy().ends_with(".chain");
                if name == "ledger.txt" || is_chain {
                    std::fs::copy(entry.path(), dest.join(&name)).ok();
                }
            }
        }
        eprintln!("[cluster-chaos] ledgers copied to {}", out.display());
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ycluster_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The headline scenario: 3 durable nodes, a seeded fault plan decides
/// which upload the primary dies under. Acked documents survive the
/// kill, the in-flight one is fully present or cleanly absent, the
/// cluster promotes a verified survivor for the dead node's keys, and
/// every surviving ledger verifies end-to-end.
#[test]
fn primary_killed_mid_upload_cluster_promotes_and_serves() {
    const DOCS: u64 = 6;
    // The fault plan's fatal event, scaled onto the upload sequence,
    // picks the kill point — the same seed always kills the same
    // upload under the same primary.
    let plan = FaultPlan::seeded(0xFA11, 64);
    let fatal = plan
        .events
        .iter()
        .find(|e| matches!(e.kind, FaultKind::GpuFailure { .. }))
        .expect("seeded plans include a fatal fault");
    // At least two uploads are acked before the kill so the failover
    // read path has real history to answer from.
    let kill_at = 2 + fatal.step % (DOCS - 2);

    let base = tmp("kill");
    let ids = ["node-a", "node-b", "node-c"];
    let dirs: Vec<PathBuf> = ids.iter().map(|id| base.join(id)).collect();
    let stores: Vec<DocumentStore> = dirs
        .iter()
        .map(|d| DocumentStore::persistent(d).unwrap())
        .collect();
    let mut mesh = Mesh::bind(&ids, &stores, push_policy());
    let addrs = mesh.addrs.clone();
    let _artifacts = LedgerArtifacts {
        nodes: ids
            .iter()
            .zip(&dirs)
            .map(|(id, d)| (id.to_string(), d.clone()))
            .collect(),
    };

    let cluster = ClusterClient::new(mesh.members(), 2, fast_policy(11));

    // Phase 1: acked uploads before the fault fires.
    let mut acked = Vec::new();
    for i in 0..kill_at {
        let id = format!("run-{i}");
        let resp = cluster.put(&id, &doc_json(&format!("model-{i}"))).unwrap();
        assert_eq!(resp.status, 201, "{id}: {}", resp.body);
        acked.push(id);
    }

    // Phase 2: the fault. The in-flight document's primary loses its
    // replication path mid-upload (frames dropped in flight) and then
    // the whole node dies. The direct write was answered 503 — never
    // acked — so the document must be cleanly absent from the cluster.
    let inflight = format!("run-{kill_at}");
    let victim_id = cluster.placement(&inflight)[0].clone();
    let victim_idx = ids.iter().position(|id| *id == victim_id).unwrap();
    for peer in (0..ids.len()).filter(|peer| *peer != victim_idx) {
        let link = mesh.link(victim_idx, peer);
        link.fault("POST", FRAMES, Fault::Drop, usize::MAX);
    }
    let (status, body) = put_once(addrs[victim_idx], &inflight, &doc_json("inflight"));
    assert_eq!(status, 503, "unreplicated write must not ack: {body}");
    mesh.kill(victim_idx);

    // Phase 3: probes notice the death; the survivors keep serving.
    let live = cluster.probe();
    assert_eq!(live.len(), 2, "exactly one node died: {live:?}");
    assert!(!live.contains(&victim_id));

    for id in &acked {
        let resp = cluster.get(id).unwrap();
        assert_eq!(
            resp.status, 200,
            "acked {id} lost after failover: {}",
            resp.body
        );
    }
    // All-or-nothing for the in-flight document: it was refused (503),
    // so no survivor may hold a partial copy.
    let resp = cluster.get(&inflight).unwrap();
    assert_eq!(
        resp.status, 404,
        "unacked in-flight doc leaked to a survivor: {}",
        resp.body
    );

    // Mid-chaos ops check: with the victim dead, any survivor must
    // still answer the ops plane — health says ready, and the
    // federated view reports the corpse as a degraded member rather
    // than an error. The slowlog and alert states of every survivor
    // land in `$YPROV_OBS_ARTIFACTS/<node>/` so CI ships the ops
    // plane's view of the chaos run.
    let survivor_idx = (0..ids.len()).find(|i| *i != victim_idx).unwrap();
    let ops_probe = Client::new(addrs[survivor_idx], fast_policy(19));
    let resp = ops_probe.get("/api/v0/obs/health").unwrap();
    assert_eq!(
        resp.status, 200,
        "survivor not ready mid-chaos: {}",
        resp.body
    );
    let resp = ops_probe.get("/api/v0/obs/cluster").unwrap();
    assert_eq!(
        resp.status, 200,
        "dead peer broke federation: {}",
        resp.body
    );
    let view: json::Value = json::parse(&resp.body).unwrap();
    assert_eq!(view["ok"], json::json!(false), "{}", resp.body);
    let corpse = view["members"]
        .as_array()
        .unwrap()
        .iter()
        .find(|m| m["id"] == json::json!(victim_id.as_str()))
        .expect("dead member still listed");
    assert_eq!(corpse["ok"], json::json!(false));
    if let Some(out) = std::env::var_os("YPROV_OBS_ARTIFACTS") {
        let out = PathBuf::from(out);
        for (i, server) in mesh.servers.iter().enumerate() {
            let Some(server) = server else { continue };
            let dest = out.join(ids[i]);
            std::fs::create_dir_all(&dest).unwrap();
            let probe = Client::new(server.addr(), fast_policy(23));
            for (file, path) in [
                ("slowlog.json", "/api/v0/obs/slowlog"),
                ("alerts.json", "/api/v0/obs/alerts"),
            ] {
                let resp = probe.get(path).unwrap();
                std::fs::write(dest.join(file), resp.body).unwrap();
            }
        }
        eprintln!("[cluster-chaos] ops state copied to {}", out.display());
    }

    // Phase 4: promotion. A write for a key the victim owned lands on a
    // verified survivor and is re-replicated among the survivors.
    let resp = cluster.put(&inflight, &doc_json("retried")).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let resp = cluster.get(&inflight).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("retried"));

    // Every surviving node's chains verify end-to-end, and both
    // survivors hold byte-identical copies of the re-routed document.
    let mut copies = Vec::new();
    for (i, server) in mesh.servers.iter().enumerate() {
        let Some(server) = server else { continue };
        let probe = Client::new(server.addr(), fast_policy(17));
        let resp = probe.get("/api/v0/ledger/verify").unwrap();
        assert_eq!(resp.status, 200, "{}: {}", ids[i], resp.body);
        let resp = probe.get(&format!("/api/v0/documents/{inflight}")).unwrap();
        if resp.status == 200 {
            copies.push(resp.body);
        }
    }
    assert_eq!(copies.len(), 2, "both survivors hold the promoted write");
    assert_eq!(
        copies[0], copies[1],
        "replicated copies must be byte-identical"
    );

    mesh.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Torn, duplicated and delayed pushes: the replica refuses the torn
/// request (its bytes no longer match its header), the primary resumes
/// from the index the refusal names and delivers it clean, duplicates
/// are absorbed idempotently — and the replica ends byte-identical.
#[test]
fn torn_duplicated_and_delayed_frames_converge() {
    let stores = [DocumentStore::new(), DocumentStore::new()];
    let mesh = Mesh::bind(&["node-a", "node-b"], &stores, push_policy());

    let link = mesh.link(0, 1);
    link.fault("POST", FRAMES, Fault::Tear, 1);
    link.fault("POST", FRAMES, Fault::Duplicate, usize::MAX);
    let delay = Fault::Delay(Duration::from_millis(5));
    link.fault("POST", FRAMES, delay, usize::MAX);

    let a = Client::new(mesh.addrs[0], fast_policy(23));
    let b = Client::new(mesh.addrs[1], fast_policy(29));
    for i in 0..3 {
        let resp = a
            .send(
                "PUT",
                &format!("/api/v0/documents/run-{i}"),
                Some(&doc_json(&format!("model-{i}"))),
            )
            .unwrap();
        assert_eq!(resp.status, 201, "run-{i}: {}", resp.body);
    }

    // The replica converged to the primary's exact bytes despite the
    // faults: same documents, cursor at the primary's chain head.
    for i in 0..3 {
        let from_a = a.get(&format!("/api/v0/documents/run-{i}")).unwrap();
        let from_b = b.get(&format!("/api/v0/documents/run-{i}")).unwrap();
        assert_eq!(from_b.status, 200, "run-{i}: {}", from_b.body);
        assert_eq!(from_a.body, from_b.body, "run-{i} bytes diverged");
    }
    let head = b.get("/api/v0/replication/head?source=node-a").unwrap();
    let head: json::Value = json::parse(&head.body).unwrap();
    assert_eq!(head["next_index"], 3, "duplicates must not double-apply");
    for client in [&a, &b] {
        assert_eq!(client.get("/api/v0/ledger/verify").unwrap().status, 200);
    }

    // The torn request is visible in the replica's reject counter.
    let metrics = b.get("/metrics").unwrap().body;
    let rejects = metrics
        .lines()
        .find(|l| l.starts_with("replication_rejects_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(rejects >= 1, "torn request must be counted: {metrics}");

    mesh.shutdown();
}

/// A partition leaves the replica stale; writes during it are refused
/// as under-replicated (503). When the partition heals, the primary
/// reads the replica's head and the next push carries everything the
/// replica missed in front of the new entry; both nodes' chain files
/// end byte-identical — including across a replica restart.
#[test]
fn partition_heals_through_resync_byte_identically() {
    let base = tmp("partition");
    let dir_a = base.join("node-a");
    let dir_b = base.join("node-b");
    let store_a = DocumentStore::persistent(&dir_a).unwrap();
    let store_b = DocumentStore::persistent(&dir_b).unwrap();
    let mesh = Mesh::bind(
        &["node-a", "node-b"],
        &[store_a.clone(), store_b.clone()],
        push_policy(),
    );
    let addrs = mesh.addrs.clone();
    let _artifacts = LedgerArtifacts {
        nodes: vec![
            ("node-a".to_string(), dir_a.clone()),
            ("node-b".to_string(), dir_b.clone()),
        ],
    };

    let a = Client::new(addrs[0], fast_policy(31));
    let b = Client::new(addrs[1], fast_policy(37));
    let put = |i: u64| {
        put_once(
            addrs[0],
            &format!("run-{i}"),
            &doc_json(&format!("model-{i}")),
        )
    };

    // Healthy write, then a partition: pushes stop reaching B.
    assert_eq!(put(0).0, 201);
    mesh.link(0, 1).fault("POST", FRAMES, Fault::Drop, 2);
    for i in [1u64, 2] {
        let (status, body) = put(i);
        assert_eq!(status, 503, "partitioned write must not ack: {body}");
        assert!(body.contains("under-replicated"), "{body}");
    }
    // B is stale: it saw only entry 0.
    let head: json::Value = json::parse(
        &b.get("/api/v0/replication/head?source=node-a")
            .unwrap()
            .body,
    )
    .unwrap();
    assert_eq!(head["next_index"], 1);

    // Partition heals. A forgot B's cursor when its pushes failed; it
    // reads B's head (index 1) and ships entries 1..=3 as one batch.
    let (status, body) = put(3);
    assert_eq!(status, 201, "{body}");

    for i in 0..4 {
        let from_a = a.get(&format!("/api/v0/documents/run-{i}")).unwrap();
        let from_b = b.get(&format!("/api/v0/documents/run-{i}")).unwrap();
        assert_eq!(from_b.status, 200, "run-{i} missing after the catch-up");
        assert_eq!(from_a.body, from_b.body, "run-{i} bytes diverged");
    }
    assert_eq!(b.get("/api/v0/ledger/verify").unwrap().status, 200);

    // Byte-identical convergence on disk: B's cursor chain for node-a
    // is exactly A's ledger file.
    store_a.flush().unwrap();
    store_b.flush().unwrap();
    let ledger_a = std::fs::read_to_string(dir_a.join("ledger.txt")).unwrap();
    let cursor_b = std::fs::read_to_string(dir_b.join("repl-node-a.chain")).unwrap();
    assert_eq!(
        cursor_b, ledger_a,
        "chain files must converge byte-identically"
    );

    // And recovery re-converges: a restarted replica restores the same
    // cursor and still verifies.
    mesh.shutdown();
    drop(store_b);
    let reopened = DocumentStore::persistent(&dir_b).unwrap();
    assert_eq!(reopened.replication_head("node-a").0, 4);
    reopened.verify_all().unwrap();
    std::fs::remove_dir_all(&base).ok();
}

/// Degraded mode and its clean-up. While the replica of an id cannot be
/// reached, the next node on the ring takes the copy; once the replica
/// is back and the id is replaced, the stand-in receives only chain
/// entries for it — and must let go of the bytes it holds, which no
/// chain commits any more, rather than serve them or fail verification.
#[test]
fn successor_drops_its_copy_once_the_placement_nodes_move_on() {
    let base = tmp("degraded");
    let ids = ["node-a", "node-b", "node-c"];
    let dirs: Vec<PathBuf> = ids.iter().map(|id| base.join(id)).collect();
    let stores: Vec<DocumentStore> = dirs
        .iter()
        .map(|d| DocumentStore::persistent(d).unwrap())
        .collect();
    let mesh = Mesh::bind(&ids, &stores, push_policy());
    let _artifacts = LedgerArtifacts {
        nodes: ids
            .iter()
            .zip(&dirs)
            .map(|(id, d)| (id.to_string(), d.clone()))
            .collect(),
    };
    let cluster = ClusterClient::new(mesh.members(), 2, fast_policy(41));
    let at = |node: &str| ids.iter().position(|id| *id == node).unwrap();
    let direct: Vec<Client> = mesh
        .addrs
        .iter()
        .map(|addr| Client::new(*addr, fast_policy(43)))
        .collect();
    let get = |node: usize, id: &str| {
        direct[node]
            .get(&format!("/api/v0/documents/{id}"))
            .unwrap()
    };

    // X lives on [primary, replica]; the third node is its successor.
    // Y shares X's primary and has that successor as its replica, so a
    // put of Y is what moves the successor's cursor.
    let ring = Ring::new(ids);
    let x = "run-x".to_string();
    let order = ring.replicas_for(&x, 3);
    let (primary, replica, successor) = (at(order[0]), at(order[1]), at(order[2]));
    let y = (0..)
        .map(|i| format!("run-y{i}"))
        .find(|id| ring.replicas_for(id, 2) == [order[0], order[2]])
        .unwrap();

    // The primary's push to the replica is lost; the successor confirms.
    mesh.link(primary, replica)
        .fault("POST", FRAMES, Fault::Drop, 1);
    let resp = cluster.put(&x, &doc_json("first")).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    assert_eq!(get(replica, &x).status, 404);
    let held = get(successor, &x);
    assert_eq!(held.status, 200, "{}", held.body);
    assert!(held.body.contains("first"));

    // The replica is back; X is replaced on its placement nodes.
    let resp = cluster.put(&x, &doc_json("second")).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    // A put of another id carries X's new chain entry to the successor.
    let resp = cluster.put(&y, &doc_json("other")).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);

    let gone = get(successor, &x);
    assert_eq!(gone.status, 404, "the successor still serves {}", gone.body);
    let from_primary = get(primary, &x);
    let from_replica = get(replica, &x);
    assert_eq!(from_primary.status, 200);
    assert!(from_primary.body.contains("second"));
    assert_eq!(from_primary.body, from_replica.body);
    assert_eq!(get(successor, &y).status, 200);
    for client in &direct {
        let resp = client.get("/api/v0/ledger/verify").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // The drop reached the disk: the successor's directory reopens,
    // verifies, and holds Y only.
    mesh.shutdown();
    drop(stores);
    let reopened = DocumentStore::persistent(&dirs[successor]).unwrap();
    assert_eq!(reopened.list(), vec![y]);
    reopened.verify_all().unwrap();
    std::fs::remove_dir_all(&base).ok();
}
