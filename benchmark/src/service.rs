//! What the three service workloads share: bringing servers up
//! in-process on loopback, checking responses, reading the public
//! `/metrics` page, and the end-of-run checks on a data directory.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};

use yprov_service::{
    Client, ClientError, ClusterConfig, DocumentStore, NodeSpec, Response, RetryPolicy, Server,
    ServerConfig, SyncPolicy,
};

use crate::harness::{nproc, Tally};

/// The default policy (four attempts), seeded: a response that needed
/// more than one attempt is counted as a failed operation, so retries
/// show instead of hiding in a latency.
pub fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed: seed,
        ..Default::default()
    }
}

/// The default server, one worker per processor. `ServerCore` is never
/// named: whichever core is the default is the one measured.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        ..Default::default()
    }
}

/// A durable store that flushes when told to (`SyncPolicy::OnFlush`):
/// per-operation fsync on a shared VM measures the neighbour's disk,
/// not this program. Each workload calls `flush()` once, as the last
/// operation of its timed phase.
pub fn durable_store(dir: &Path) -> Result<DocumentStore, String> {
    DocumentStore::persistent_with_sync(dir, SyncPolicy::OnFlush)
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// A durable single node on an ephemeral loopback port.
pub fn single_node(dir: &Path) -> Result<(Server, DocumentStore), String> {
    let store = durable_store(dir)?;
    let server = Server::bind("127.0.0.1:0", store.clone(), server_config())
        .map_err(|e| format!("bind: {e}"))?;
    Ok((server, store))
}

/// An in-process ring of durable nodes, full mesh, with
/// `ClusterConfig::new`'s values (replication 2, one required ack).
pub struct Ring {
    pub specs: Vec<NodeSpec>,
    pub servers: Vec<Server>,
    pub stores: Vec<DocumentStore>,
    /// Each node's data directory.
    pub dirs: Vec<PathBuf>,
}

/// Every member must know its peers' addresses before any of them
/// binds, so ports are reserved by binding and releasing ephemeral
/// listeners; a port lost in between is retried with fresh ones.
pub fn ring(dir: &Path, nodes: usize) -> Result<Ring, String> {
    let mut last_err = String::new();
    for attempt in 0..5 {
        let listeners: Vec<TcpListener> = (0..nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        drop(listeners);
        let specs: Vec<NodeSpec> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| NodeSpec::new(format!("node-{i}"), *a))
            .collect();
        let mut ring = Ring {
            specs: specs.clone(),
            servers: Vec::new(),
            stores: Vec::new(),
            dirs: Vec::new(),
        };
        let mut failed = None;
        for spec in &specs {
            let node_dir = dir.join(format!("try-{attempt}")).join(&spec.id);
            let store = durable_store(&node_dir)?;
            let peers = specs.iter().filter(|p| p.id != spec.id).cloned().collect();
            let config = ServerConfig {
                cluster: Some(ClusterConfig::new(spec.id.clone(), peers)),
                ..server_config()
            };
            match Server::bind(&spec.addr.to_string(), store.clone(), config) {
                Ok(server) => {
                    ring.servers.push(server);
                    ring.stores.push(store);
                    ring.dirs.push(node_dir);
                }
                Err(e) => {
                    failed = Some(format!("bind {}: {e}", spec.addr));
                    break;
                }
            }
        }
        match failed {
            None => return Ok(ring),
            Some(e) => last_err = e,
        }
    }
    Err(format!("could not bind the ring: {last_err}"))
}

/// Unwraps a response with the wanted status that took one attempt. A
/// non-2xx status, a transport error and a retried request each make
/// the operation a failed one.
pub fn expect_status<E: std::fmt::Display>(
    tally: &Tally,
    result: Result<Response, E>,
    want: u16,
) -> Result<Response, String> {
    match result {
        Ok(r) => {
            if r.attempts > 1 {
                tally.note_retry();
                return Err(format!("HTTP {} after {} attempts", r.status, r.attempts));
            }
            if r.status != want {
                let head: String = r.body.chars().take(200).collect();
                return Err(format!("HTTP {} (wanted {want}): {head}", r.status));
            }
            Ok(r)
        }
        Err(e) => Err(e.to_string()),
    }
}

pub fn put(client: &Client, id: &str, body: &str) -> Result<Response, ClientError> {
    client.send("PUT", &format!("/api/v0/documents/{id}"), Some(body))
}

pub fn get(client: &Client, id: &str) -> Result<Response, ClientError> {
    client.get(&format!("/api/v0/documents/{id}"))
}

/// The unsigned integer after `"key":` near the head of `body`, without
/// parsing the document that may follow it.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Sum of the samples of counter or gauge `family` on a node's public
/// `GET /metrics` page, labels ignored.
pub fn scrape(client: &Client, family: &str) -> Result<f64, String> {
    let page = client.get("/metrics").map_err(|e| e.to_string())?;
    if page.status != 200 {
        return Err(format!("GET /metrics: HTTP {}", page.status));
    }
    Ok(page
        .body
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            if !rest.starts_with('{') && !rest.starts_with(' ') {
                return None;
            }
            rest.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .fold(0.0, |sum, sample| sum + sample))
}

/// End-of-run checks on one node, each a counted operation: its chains
/// verify over HTTP, and (the restart check) once the server is gone the
/// data directory reopens with `DocumentStore::persistent`, holds
/// `documents` documents and passes `verify_all()`.
pub fn verify_then_restart(
    tally: &Tally,
    server: Server,
    store: DocumentStore,
    dir: &Path,
    documents: Option<usize>,
    seed: u64,
) {
    let client = Client::new(server.addr(), policy(seed));
    tally.check(
        "GET /api/v0/ledger/verify",
        expect_status(tally, client.get("/api/v0/ledger/verify"), 200).map(|_| ()),
    );
    drop(client);
    server.shutdown();
    drop(store);
    let reopened = DocumentStore::persistent(dir)
        .map_err(|e| format!("reopen {}: {e}", dir.display()))
        .and_then(|store| {
            store.verify_all().map_err(|e| format!("verify_all: {e}"))?;
            match documents {
                Some(want) if store.len() != want => Err(format!(
                    "{} documents after reopen, not {want}",
                    store.len()
                )),
                _ => Ok(()),
            }
        });
    tally.check("restart check", reopened);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_u64_reads_a_number_near_the_head() {
        assert_eq!(
            json_u64(r#"{"id":"a","version":12,"x":3}"#, "version"),
            Some(12)
        );
        assert_eq!(json_u64(r#"{"row_count":0}"#, "row_count"), Some(0));
        assert_eq!(json_u64(r#"{"id":"a"}"#, "version"), None);
    }
}
