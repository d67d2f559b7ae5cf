//! The ops plane end to end: cluster-wide metric federation surviving
//! a dead member, the slow-request log's trace ids lining up with the
//! Chrome trace export, and alert rules walking their full
//! pending → firing → resolved lifecycle under a virtual clock.

use std::sync::Mutex;
use std::time::Duration;

use energy_monitor::VirtualClock;
use integration::Mesh;
use obs::alerts::{AlertRule, Cmp, Phase};
use yprov_service::http::request;
use yprov_service::{DocumentStore, OpsConfig, RetryPolicy, Server, ServerConfig};

// The tracer is process-global; tests that toggle it serialize here and
// leave it disabled and drained behind them.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One push attempt with a short timeout: federation over a ring with a
/// corpse should pay milliseconds per dead peer, not a retry schedule.
fn fast_push() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        request_timeout: Duration::from_millis(1500),
        jitter_seed: 7,
    }
}

#[test]
fn federated_cluster_view_degrades_but_answers_with_a_dead_member() {
    let ids = ["node-a", "node-b", "node-c"];
    let stores = ids.map(|_| DocumentStore::new());
    let mut mesh = Mesh::bind(&ids, &stores, fast_push());
    let addrs = mesh.addrs.clone();

    // Warm every member's request counters so the federated snapshot
    // has per-member series to merge.
    for addr in &addrs {
        let (status, _) = request(*addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }

    // Healthy ring: all three members report ok through any node.
    let (status, body) = request(addrs[0], "GET", "/api/v0/obs/cluster", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: json::Value = json::parse(&body).unwrap();
    assert_eq!(v["ok"], json::json!(true), "{body}");
    assert_eq!(v["members"].as_array().unwrap().len(), 3);
    let merged = v["metrics"].as_str().unwrap();
    for id in ids {
        assert!(
            merged.contains(&format!("member=\"{id}\"")),
            "member {id} missing from the merged exposition:\n{merged}"
        );
    }

    // Kill node-c and ask node-a again: degraded, not erroring.
    mesh.kill(2);
    let (status, body) = request(addrs[0], "GET", "/api/v0/obs/cluster", None).unwrap();
    assert_eq!(status, 200, "a dead peer must not fail the endpoint");
    let v: json::Value = json::parse(&body).unwrap();
    assert_eq!(v["ok"], json::json!(false), "{body}");
    let members = v["members"].as_array().unwrap();
    assert_eq!(members.len(), 3, "the corpse still gets a member entry");
    let dead = members
        .iter()
        .find(|m| m["id"] == json::json!("node-c"))
        .unwrap();
    assert_eq!(dead["ok"], json::json!(false));
    assert!(dead["error"].as_str().is_some_and(|e| !e.is_empty()));
    // The survivors keep their labelled series and health payloads.
    let merged = v["metrics"].as_str().unwrap();
    assert!(merged.contains("member=\"node-a\""));
    assert!(merged.contains("member=\"node-b\""));
    assert!(!merged.contains("member=\"node-c\""));
    for id in ["node-a", "node-b"] {
        let m = members.iter().find(|m| m["id"] == json::json!(id)).unwrap();
        assert_eq!(m["ok"], json::json!(true), "{body}");
        assert_eq!(m["health"]["ready"], json::json!(true), "{body}");
    }

    mesh.shutdown();
}

#[test]
fn slowlog_trace_ids_line_up_with_the_chrome_trace_export() {
    let _g = exclusive();
    obs::trace::set_enabled(true);
    obs::trace::drain();

    let server =
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
    let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    let (status, body) = request(server.addr(), "GET", "/api/v0/obs/slowlog", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: json::Value = json::parse(&body).unwrap();
    let healthz = v["routes"]
        .as_array()
        .unwrap()
        .iter()
        .find(|r| r["route"] == json::json!("/healthz"))
        .unwrap_or_else(|| panic!("no /healthz slowlog ring in {body}"));
    let trace_id = healthz["slowest"][0]["trace_id"]
        .as_str()
        .unwrap_or_else(|| panic!("slowlog entry carries no trace id: {body}"))
        .to_string();
    assert_eq!(trace_id.len(), 32, "w3c trace id is 32 hex chars");

    // The same id must identify the request's span in the Chrome
    // export — that is what makes the slowlog entry clickable.
    let chrome = obs::trace::to_chrome_json(&obs::trace::drain());
    assert!(
        chrome.contains(&format!("\"trace_id\":\"{trace_id}\"")),
        "slowlog trace id {trace_id} absent from the trace export"
    );

    server.shutdown();
    obs::trace::set_enabled(false);
    obs::trace::drain();
}

#[test]
fn alert_rules_walk_pending_firing_resolved_under_a_virtual_clock() {
    // Self-scrape off: the test owns the clock and ticks the plane by
    // hand, so the lifecycle is fully deterministic.
    let rule_metric = "http_requests_total{method=\"GET\",route=\"/healthz\",status=\"200\"}";
    let server = Server::bind(
        "127.0.0.1:0",
        DocumentStore::new(),
        ServerConfig {
            ops: OpsConfig {
                self_scrape: false,
                alert_rules: vec![AlertRule::new(
                    "healthz-hot",
                    rule_metric,
                    Cmp::Gt,
                    0.5,
                    2.0,
                )],
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let clock = VirtualClock::manual();
    let ops = std::sync::Arc::clone(server.ops());
    let registry = std::sync::Arc::clone(server.registry());
    let tick = |clock: &VirtualClock| ops.tick(clock.now_s(), &[&registry]);
    let phase = || server.ops().alerts().states()[0].phase;
    let firing_gauge = || registry.gauge("alerts_firing{rule=\"healthz-hot\"}").get();
    let burst = |n: usize| {
        for _ in 0..n {
            let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
            assert_eq!(status, 200);
        }
    };

    tick(&clock); // t=0: baseline only
    assert_eq!(phase(), Phase::Inactive);

    // Three requests per simulated second: rate 3/s > 0.5 breaches,
    // but the rule holds for 2 s before firing.
    burst(3);
    clock.advance(1.0);
    tick(&clock); // t=1
    assert_eq!(phase(), Phase::Pending);
    assert_eq!(firing_gauge(), 0);

    burst(3);
    clock.advance(1.0);
    tick(&clock); // t=2: held 1 s of the required 2
    assert_eq!(phase(), Phase::Pending);

    burst(3);
    clock.advance(1.0);
    tick(&clock); // t=3: held 2 s -> fires
    assert_eq!(phase(), Phase::Firing);
    assert_eq!(firing_gauge(), 1);
    let (status, body) = request(server.addr(), "GET", "/api/v0/obs/alerts", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"phase\":\"firing\""), "{body}");

    // Quiet interval: the counter stops moving. The last breach sample
    // (bucket t=3) satisfies alert lookups until it ages past the
    // staleness horizon — that hold is the anti-flap guarantee — and
    // only then does the rule land in the sticky resolved phase.
    clock.advance(1.0);
    tick(&clock); // t=4: breach sample 1 s old, still fresh
    assert_eq!(phase(), Phase::Firing);
    clock.advance(1.0);
    tick(&clock); // t=5: bucket 3 still inside the lookup window
    assert_eq!(phase(), Phase::Firing);
    clock.advance(1.0);
    tick(&clock); // t=6: the series went stale -> resolved
    assert_eq!(phase(), Phase::Resolved);
    assert_eq!(firing_gauge(), 0);
    let (status, body) = request(server.addr(), "GET", "/api/v0/obs/alerts", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"phase\":\"resolved\""), "{body}");

    server.shutdown();
}
