//! Service-core load generator: mixed upload / query / replication
//! traffic against the event-loop core and the thread-per-connection
//! baseline at 1, 8, 64 and 512 concurrent connections.
//!
//! Each connection thread drives one keep-alive client through rounds
//! of four requests — `PUT` a document, `GET` it back, `GET` its
//! stats, `POST` a one-frame hash-chained replication batch — and records
//! per-request latency. The summary (throughput plus p50/p90/p99) for
//! every `(core, connections)` cell lands in `BENCH_service.json` at
//! the repo root.
//!
//! `YPROV_BENCH_SMOKE=1` shrinks the run (fewer connections, fewer
//! rounds) so CI can exercise the generator and upload the artifact
//! without paying for the full sweep.

use serde_json::json;
use std::borrow::Cow;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use yprov_service::cluster::{encode_batch, Frame};
use yprov_service::ledger::Ledger;
use yprov_service::{Client, DocumentStore, RetryPolicy, Server, ServerConfig, ServerCore};

/// One small PROV document, reused as upload body and replicated bytes.
fn doc_json() -> String {
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(prov_model::QName::new("ex", "data"));
    doc.activity(prov_model::QName::new("ex", "train"));
    doc.entity(prov_model::QName::new("ex", "model"));
    doc.used(
        prov_model::QName::new("ex", "train"),
        prov_model::QName::new("ex", "data"),
    );
    doc.was_generated_by(
        prov_model::QName::new("ex", "model"),
        prov_model::QName::new("ex", "train"),
    );
    doc.to_json_string().unwrap()
}

/// Single-attempt policy: the generator measures the server as it is —
/// a shed or failure is counted, not retried into the numbers.
fn one_shot() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    }
}

fn percentile_ms(sorted_micros: &[u64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[idx] as f64 / 1000.0
}

/// Runs one `(core, connections)` cell and returns its summary.
fn run_level(core: ServerCore, conns: usize, rounds: usize, doc_body: &str) -> serde_json::Value {
    // The event loop serves every connection count from a fixed small
    // pool; the baseline gets a thread per connection (its own model).
    let workers = match core {
        ServerCore::EventLoop => 8,
        ServerCore::Threaded => conns.min(512),
    };
    let server = Server::bind(
        "127.0.0.1:0",
        DocumentStore::new(),
        ServerConfig {
            core,
            workers,
            // Watermarks sized for the offered load: this cell measures
            // sustained throughput, not the shedding path.
            queue_depth: 4096,
            max_connections: Some(conns * 2 + 64),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let barrier = Barrier::new(conns + 1);
    let mut latencies: Vec<u64> = Vec::with_capacity(conns * rounds * 4);
    let mut errors = 0u64;
    let mut wall = Duration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let client = Client::new(addr, one_shot());
                    let mut ledger = Ledger::new();
                    let source = format!("bench-src-{t}");
                    let mut lat = Vec::with_capacity(rounds * 4);
                    let mut errors = 0u64;
                    barrier.wait();
                    for i in 0..rounds {
                        let id = format!("bench-{t}-{i}");
                        let mut timed = |method: &str, path: &str, body: Option<&str>| {
                            let t0 = Instant::now();
                            let ok = match client.send(method, path, body) {
                                Ok(resp) => resp.status < 400,
                                Err(_) => false,
                            };
                            lat.push(t0.elapsed().as_micros() as u64);
                            if !ok {
                                errors += 1;
                            }
                        };
                        timed("PUT", &format!("/api/v0/documents/{id}"), Some(doc_body));
                        timed("GET", &format!("/api/v0/documents/{id}"), None);
                        timed("GET", &format!("/api/v0/documents/{id}/stats"), None);
                        let entry = ledger.append(format!("repl-{t}-{i}"), doc_body.as_bytes());
                        let frame = Frame {
                            entry: entry.clone(),
                            document: Some(Cow::Borrowed(doc_body)),
                            superseded: false,
                        };
                        let batch = encode_batch(&source, &[frame]);
                        timed("POST", "/api/v0/replication/frames", Some(&batch));
                    }
                    (lat, errors)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            let (lat, errs) = h.join().unwrap();
            latencies.extend(lat);
            errors += errs;
        }
        wall = t0.elapsed();
    });
    server.shutdown();

    latencies.sort_unstable();
    let ops = latencies.len() as u64;
    let secs = wall.as_secs_f64().max(1e-9);
    let summary = json!({
        "requests": ops,
        "errors": errors,
        "wall_secs": secs,
        "requests_per_sec": ops as f64 / secs,
        "latency_ms": {
            "p50": percentile_ms(&latencies, 0.50),
            "p90": percentile_ms(&latencies, 0.90),
            "p99": percentile_ms(&latencies, 0.99),
        },
    });
    eprintln!(
        "{core:?} conns={conns}: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, {errors} errors",
        ops as f64 / secs,
        percentile_ms(&latencies, 0.50),
        percentile_ms(&latencies, 0.99),
    );
    summary
}

fn main() {
    // `cargo bench` passes flags like `--bench`; a load generator has
    // no filters, so arguments are ignored.
    let smoke = matches!(std::env::var("YPROV_BENCH_SMOKE"), Ok(v) if v != "0");
    let levels: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64, 512] };
    let doc_body = doc_json();

    let mut cells = Vec::new();
    for &conns in levels {
        // Roughly constant offered load per level, at least a few
        // rounds per connection so keep-alive reuse actually shows.
        let rounds = if smoke {
            (64 / conns).max(4)
        } else {
            (2048 / conns).max(8)
        };
        let event_loop = run_level(ServerCore::EventLoop, conns, rounds, &doc_body);
        let threaded = run_level(ServerCore::Threaded, conns, rounds, &doc_body);
        cells.push(json!({
            "connections": conns,
            "requests_per_connection": rounds * 4,
            "event_loop": event_loop,
            "threaded": threaded,
        }));
    }

    let out = json!({
        "bench": "bench_service",
        "description": "Mixed upload/query/replication load against the epoll \
                        event-loop core (8 workers) vs the thread-per-connection \
                        baseline, per concurrent-connection level.",
        // CI's bench-smoke guard greps for this: a committed file that
        // still says "pending" fails the job.
        "status": "measured",
        "smoke": smoke,
        "workload": "PUT document, GET document, GET stats, POST replication frame",
        "document_bytes": doc_body.len(),
        "levels": cells,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, format!("{out:#}\n")).unwrap();
    eprintln!("wrote {path}");
}
