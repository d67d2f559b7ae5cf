//! `serve_docs`: the consumer alone. One durable node, one client on
//! one keep-alive connection, one request in flight: replace, fetch and
//! query the same store at once, so a gain for one that costs another
//! shows. Parse, canonical serialise, ledger hash, backend, graph index,
//! query engine and the HTTP path do all the work; the tracker does
//! none.
//!
//! There is no evicting cache in the store (a graph index lives as long
//! as its document), so key skew is not varied; every `PUT` replaces a
//! document with another of the same shape, which keeps the working set
//! and the resident set in steady state.

use std::time::Duration;

use prov_graph::GraphIndex;
use prov_model::{PathQuery, ProvDocument};
use yprov_service::ledger::Ledger;
use yprov_service::{Client, DocumentStore, DurableBackend, StorageBackend, SyncPolicy};

use crate::gen::{canonical_json, log_uniform_sizes, ml_document, DOWNSTREAM_IR, LEAKAGE_AUDIT};
use crate::harness::{dir_bytes, ms, us, Clocks, Config, Kind, Outcome, Tally, Timed};
use crate::rng::{Digest, Rng};
use crate::service::{self, expect_status, json_u64, policy};
use crate::stats::median;
use crate::trace::Recorder;

/// Documents held. Their node counts are a seeded log-uniform draw from
/// 128 to 4 096 nodes (about 26 KB to 0.9 MB of PROV-JSON), one per
/// equal slice of the log range, so that no seed draws a heavier store
/// than another; each has two bodies of its shape to alternate between.
const IDS: usize = 128;
const MIN_NODES: usize = 128;
const MAX_NODES: usize = 4_096;
/// The ids, ordered by size, are cut into this many strata; a block
/// sends every slot of `SLOTS` to a seeded document of every stratum, so
/// every block holds the same mix of operations and sizes whatever
/// documents the seed picks.
const STRATA: usize = 32;
/// What every stratum sees in one full block: 2 replacements, 5
/// fetches, 3 queries (20 % / 50 % / 30 %). The third query is a path
/// query on even strata and an audit on odd ones, so the two kinds come
/// out even.
const SLOTS: [Op; 10] = [
    Op::Put,
    Op::Get,
    Op::Path,
    Op::Get,
    Op::Get,
    Op::Put,
    Op::Get,
    Op::Audit,
    Op::Get,
    Op::Third,
];
/// Requests in a block at `RUN_SECONDS`; the work unit is one request.
const OPS_PER_BLOCK: usize = SLOTS.len() * STRATA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
    Path,
    Audit,
    /// `Path` on even strata, `Audit` on odd ones.
    Third,
}

/// The operations of block `block`: `n` of the full block's `(slot,
/// stratum)` pairs, evenly strided and rotated by a slot and a stratum
/// per block, so that a reduced run still visits every slot and every
/// size; each on a seeded document of its stratum, in seeded order.
fn block_ops(n: usize, block: usize, ids: usize, rng: &mut Rng) -> Vec<(Op, usize)> {
    let mut ops: Vec<(Op, usize)> = (0..n)
        .map(|j| {
            let at = (j * OPS_PER_BLOCK / n + block * (STRATA + 1)) % OPS_PER_BLOCK;
            let (op, stratum) = (SLOTS[at / STRATA], at % STRATA);
            let (from, to) = (stratum * ids / STRATA, (stratum + 1) * ids / STRATA);
            let id = from + rng.below(to - from);
            match op {
                Op::Third if stratum % 2 == 0 => (Op::Path, id),
                Op::Third => (Op::Audit, id),
                op => (op, id),
            }
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// In-process twins of the server's layers, fed the same inputs in the
/// traced run so that each layer's share of a round trip can be told.
struct Shadow {
    store: DocumentStore,
    backend: DurableBackend,
    ledger: Ledger,
    bytes_put: u64,
    path: PathQuery,
}

#[derive(Default)]
struct Layers {
    parse_mb_per_s: Vec<f64>,
    rows: Vec<f64>,
    unattributed: [Vec<f64>; 3],
}

struct Driver<'a> {
    client: Client,
    /// `bodies[id][variant]`, canonical bytes.
    bodies: Vec<[String; 2]>,
    /// Which variant each id holds.
    held: Vec<usize>,
    /// The path query's request body.
    downstream: String,
    /// `answers[id] = (path answer, audit answer)`, from the first,
    /// untimed asks.
    answers: Vec<(String, String)>,
    tally: &'a Tally,
    rec: &'a Recorder,
    shadow: Option<Shadow>,
    layers: Layers,
    ops: u64,
}

fn doc_id(id: usize) -> String {
    format!("doc-{id:03}")
}

impl Driver<'_> {
    fn op(&mut self, op: Op, id: usize, timed: &mut Timed) {
        let (tally, rec) = (self.tally, self.rec);
        self.ops += 1;
        let shadowed = rec.is_enabled() && self.ops.is_multiple_of(2);
        let name = doc_id(id);
        match op {
            Op::Put => {
                let variant = 1 - self.held[id];
                let _op = rec.op(self.ops, "op.put");
                let body = &self.bodies[id][variant];
                let (r, took) = rec.time("http.put", || service::put(&self.client, &name, body));
                if tally.check("PUT", expect_status(tally, r, 201)).is_some() {
                    self.held[id] = variant;
                    timed.sample(Kind::Write, took);
                }
                if shadowed {
                    let r = self.shadow_put(&name, id, variant, took);
                    tally.check("shadow put", r);
                }
            }
            Op::Get => {
                let guard = rec.op(self.ops, "op.get");
                let (r, took) = rec.time("http.get", || service::get(&self.client, &name));
                let r = expect_status(tally, r, 200);
                if let (true, Ok(r)) = (shadowed, &r) {
                    self.shadow_get(&name, &r.body, took);
                }
                drop(guard);
                let same = r.and_then(|r| {
                    (r.body == self.bodies[id][self.held[id]])
                        .then_some(())
                        .ok_or_else(|| format!("{name}: bytes differ from the canonical form"))
                });
                if tally.check("GET", same).is_some() {
                    timed.sample(Kind::Read, took);
                }
            }
            Op::Path | Op::Audit => {
                let audit = op == Op::Audit;
                let body = if audit {
                    LEAKAGE_AUDIT
                } else {
                    &self.downstream
                };
                let guard = rec.op(self.ops, "op.query");
                let (r, took) = rec.time("http.query", || self.client.query(&name, body));
                if shadowed {
                    let r = self.shadow_query(&name, audit, took);
                    tally.check("shadow query", r);
                }
                drop(guard);
                let (path, leaks) = &self.answers[id];
                let same = expect_status(tally, r, 200).and_then(|r| {
                    (r.body == *if audit { leaks } else { path })
                        .then_some(())
                        .ok_or_else(|| format!("{name}: answer differs from the first one"))
                });
                if tally.check("query", same).is_some() {
                    timed.sample(Kind::Query, took);
                }
            }
            Op::Third => unreachable!("resolved by block_ops"),
        }
    }

    /// The server's work for one upload, redone stage by stage in path
    /// order, then as the one call the handler makes.
    fn shadow_put(
        &mut self,
        name: &str,
        id: usize,
        variant: usize,
        roundtrip: Duration,
    ) -> Result<(), String> {
        let rec = self.rec;
        let shadow = self.shadow.as_mut().expect("traced run");
        let body = &self.bodies[id][variant];
        let _s = rec.span("shadow.put");
        let (doc, parse) = rec.time("prov_model.parse", || ProvDocument::from_json_str(body));
        let doc = doc.map_err(|e| e.to_string())?;
        self.layers
            .parse_mb_per_s
            .push(body.len() as f64 / 1e6 / parse.as_secs_f64());
        let (bytes, serialize) = rec.time("prov_model.serialize", || canonical_json(doc.clone()));
        let (r, put) = rec.time("backend.put", || shadow.backend.put(name, bytes.as_bytes()));
        r.map_err(|e| e.to_string())?;
        shadow.bytes_put += bytes.len() as u64;
        let ((), append) = rec.time("ledger.append", || {
            shadow.ledger.append(name, bytes.as_bytes());
        });
        let (index, build) = rec.time("prov_graph.index_build", || GraphIndex::build(&doc));
        drop(index);
        let on_path = parse + serialize + put + append + build;
        self.layers.unattributed[0].push(ms(roundtrip) - ms(on_path));
        let (r, _) = rec.time("store.upload", || shadow.store.upload_as_full(name, doc));
        r.map(|_| ()).map_err(|e| e.to_string())
    }

    /// The server's work for one fetch, and what a consumer that loads
    /// the fetched `body` pays on its own side afterwards.
    fn shadow_get(&mut self, name: &str, body: &str, roundtrip: Duration) {
        let rec = self.rec;
        let shadow = self.shadow.as_ref().expect("traced run");
        let _s = rec.span("shadow.get");
        let (_, read) = rec.time("store.read", || shadow.store.document_json(name));
        let _ = rec.time("backend.get", || shadow.backend.get(name));
        self.layers.unattributed[1].push(ms(roundtrip) - ms(read));
        let _ = rec.time("client.load", || ProvDocument::from_json_str(body));
    }

    fn shadow_query(&mut self, name: &str, audit: bool, roundtrip: Duration) -> Result<(), String> {
        let rec = self.rec;
        let shadow = self.shadow.as_ref().expect("traced run");
        let _s = rec.span("shadow.query");
        let err = |e: yprov_service::ServiceError| e.to_string();
        if audit {
            let (rows, took) = rec.time("store.query", || {
                let shared = shadow.store.query_view(name, &[])?;
                let report = prov_graph::audit::data_leakage(&shared.view(), None, None);
                Ok(report.leaks.len())
            });
            self.layers.rows.push(rows.map_err(err)? as f64);
            self.layers.unattributed[2].push(ms(roundtrip) - ms(took));
            return Ok(());
        }
        let shared = shadow.store.graph(name).map_err(err)?;
        let graph = shared.view();
        let (plan, _) = rec.time("prov_graph.plan", || prov_graph::plan(&graph, &shadow.path));
        let (set, _) = rec.time("prov_graph.exec", || {
            prov_graph::execute_with_plan(&graph, &shadow.path, plan)
        });
        self.layers.rows.push(set.rows.len() as f64);
        let (r, took) = rec.time("store.query", || {
            shadow.store.run_query(name, &[], &shadow.path)
        });
        r.map_err(err)?;
        self.layers.unattributed[2].push(ms(roundtrip) - ms(took));
        Ok(())
    }
}

pub fn run(cfg: &Config, rec: &Recorder) -> Result<Outcome, String> {
    let tally = Tally::default();
    let mut out = Outcome::default();
    let per_block = cfg.per_block(OPS_PER_BLOCK);

    // Set-up: bodies, node up, preload, first answers, one warm-up block.
    let mut digest = Digest::default();
    let (ids, max_nodes) = match cfg.small {
        true => (STRATA, MAX_NODES / 8),
        false => (IDS, MAX_NODES),
    };
    let bodies: Vec<[String; 2]> = log_uniform_sizes(cfg.seed, MIN_NODES, max_nodes, ids)
        .into_iter()
        .enumerate()
        .map(|(id, nodes)| {
            let pair = [0, 1].map(|v| canonical_json(ml_document(cfg.seed, 2 * id + v, nodes)));
            pair.iter().for_each(|b| digest.feed(b.as_bytes()));
            pair
        })
        .collect();
    let node_dir = cfg.data_dir.join("node");
    let (server, store) = service::single_node(&node_dir)?;
    let shadow = if cfg.trace {
        Some(Shadow {
            store: service::durable_store(&cfg.data_dir.join("shadow-store"))?,
            backend: DurableBackend::open_with_sync(
                cfg.data_dir.join("shadow-backend"),
                SyncPolicy::OnFlush,
            )
            .map_err(|e| e.to_string())?,
            ledger: Ledger::new(),
            bytes_put: 0,
            path: PathQuery::from_json_str(DOWNSTREAM_IR).map_err(|e| e.to_string())?,
        })
    } else {
        None
    };
    let mut driver = Driver {
        client: Client::new(server.addr(), policy(cfg.seed)),
        bodies,
        held: vec![0; ids],
        downstream: format!("{{\"query\":{DOWNSTREAM_IR}}}"),
        answers: Vec::new(),
        tally: &tally,
        rec,
        shadow,
        layers: Layers::default(),
        ops: 0,
    };
    for id in 0..ids {
        let (name, body) = (doc_id(id), &driver.bodies[id][0]);
        let r = service::put(&driver.client, &name, body);
        tally.check("preload", expect_status(&tally, r, 201));
        if let Some(shadow) = &driver.shadow {
            let doc = ProvDocument::from_json_str(body).map_err(|e| e.to_string())?;
            shadow
                .store
                .upload_as_full(name.as_str(), doc)
                .map_err(|e| e.to_string())?;
        }
        // The first, untimed answers: later ones must equal them, and
        // they must not be empty (rows to derive, a leak to find).
        let first = |body: &str, filled: fn(&str) -> bool| {
            let r = expect_status(&tally, driver.client.query(&name, body), 200).and_then(|r| {
                filled(&r.body)
                    .then_some(r.body)
                    .ok_or_else(|| format!("{name}: an empty answer to {body}"))
            });
            tally.check("first answer", r).unwrap_or_default()
        };
        let answers = (
            first(&driver.downstream, |b| json_u64(b, "row_count") > Some(0)),
            first(LEAKAGE_AUDIT, |b| b.contains("\"clean\":false")),
        );
        driver.answers.push(answers);
    }
    let mut order = Rng::stream(cfg.seed, "serve_docs-order");
    let mut clocks = Clocks::default();
    let mut run_block = |driver: &mut Driver, block: usize, last: bool, timed: &mut Timed| {
        let ops = block_ops(per_block, block, ids, &mut order);
        timed.begin_block();
        for (op, id) in &ops {
            driver.op(*op, *id, timed);
            timed.tick();
        }
        if last {
            // The flush policy: `SyncPolicy::OnFlush`, and one explicit
            // flush as the last operation of the timed phase.
            let (r, _) = rec.time("store.flush", || store.flush());
            tally.check("flush", r.map_err(|e| e.to_string()));
        }
        timed.end_block(ops.len() as f64);
    };
    rec.set_enabled(false);
    run_block(&mut driver, 0, false, &mut clocks.warm);
    let setup_s = cfg.started.elapsed().as_secs_f64();
    let blocks = cfg.blocks();
    for (b, block) in blocks.iter().enumerate() {
        let timed = clocks.for_block(*block, rec);
        run_block(&mut driver, b + 1, b + 1 == blocks.len(), timed);
    }
    rec.set_enabled(false);

    // Teardown: the store holds exactly the latest body of every id.
    let user_bytes: u64 = (0..ids)
        .map(|id| driver.bodies[id][driver.held[id]].len() as u64)
        .sum();
    out.note(format!(
        "inputs: {ids} ids x 2 bodies of {}..{} B, digest {}; {per_block} requests per block",
        driver.bodies[0][0].len(),
        driver.bodies[ids - 1][0].len(),
        digest.hex()
    ));
    if cfg.trace {
        let l = &driver.layers;
        let shadow = driver.shadow.as_ref().expect("traced run");
        out.set_median("prov_model.parse_mb_per_s", &l.parse_mb_per_s);
        out.set("prov_graph.rows", median(&l.rows));
        out.set_median("http.unattributed_write_ms", &l.unattributed[0]);
        out.set_median("http.unattributed_read_ms", &l.unattributed[1]);
        out.set_median("http.unattributed_query_ms", &l.unattributed[2]);
        out.set(
            "backend.write_amp",
            dir_bytes(shadow.backend.dir()) as f64 / shadow.bytes_put.max(1) as f64,
        );
        let (hits, misses) = store.graph_cache_stats();
        out.set(
            "store.graph_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set_span_medians(
            rec,
            &[
                ("prov_model.parse_ms", "prov_model.parse", 1.0),
                ("prov_model.serialize_ms", "prov_model.serialize", 1.0),
                ("prov_graph.index_build_ms", "prov_graph.index_build", 1.0),
                ("prov_graph.plan_us", "prov_graph.plan", 1e3),
                ("prov_graph.exec_ms", "prov_graph.exec", 1.0),
                ("ledger.append_us", "ledger.append", 1e3),
                ("backend.put_ms", "backend.put", 1.0),
                ("backend.get_ms", "backend.get", 1.0),
                ("store.upload_ms", "store.upload", 1.0),
                ("store.read_ms", "store.read", 1.0),
                ("store.query_ms", "store.query", 1.0),
                ("client.load_ms", "client.load", 1.0),
            ],
        );
        let roundtrips: Vec<f64> = (0..200)
            .filter_map(|_| {
                let (r, took) = rec.time("http.health", || driver.client.health());
                tally
                    .check("healthz", expect_status(&tally, r, 200))
                    .map(|_| us(took))
            })
            .collect();
        out.set_median("http.roundtrip_us", &roundtrips);
        let ticks: Vec<f64> = (0..50)
            .map(|i| {
                let registries = [&**server.registry(), &**store.registry()];
                us(rec
                    .time("ops.tick", || {
                        server.ops().tick(1e9 + i as f64, &registries)
                    })
                    .1)
            })
            .collect();
        out.set_median("ops.tick_us", &ticks);
        out.set(
            "reactor.shed_total",
            tally
                .check(
                    "scrape",
                    service::scrape(&driver.client, "server_shed_total"),
                )
                .unwrap_or(0.0),
        );
        out.client_diagnostics(&clocks.timed, &tally, &clocks.reference);
    }
    drop(driver);
    service::verify_then_restart(&tally, server, store, &node_dir, Some(ids), cfg.seed);
    if !cfg.trace {
        out.end_to_end(setup_s, &clocks, dir_bytes(&node_dir), user_bytes);
    }
    out.take_tally(&tally);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_block_has_the_stated_mix_and_every_reduced_block_every_kind() {
        let mut rng = Rng::stream(1, "t");
        let full = block_ops(OPS_PER_BLOCK, 3, IDS, &mut rng);
        let count = |ops: &[(Op, usize)], op| ops.iter().filter(|(o, _)| *o == op).count();
        assert_eq!(count(&full, Op::Put), 2 * STRATA);
        assert_eq!(count(&full, Op::Get), 5 * STRATA);
        assert_eq!(count(&full, Op::Path), 3 * STRATA / 2);
        assert_eq!(count(&full, Op::Audit), 3 * STRATA / 2);
        // Every stratum of sizes sees every slot once.
        for stratum in 0..STRATA {
            let within =
                |id: usize| (stratum * IDS / STRATA..(stratum + 1) * IDS / STRATA).contains(&id);
            assert_eq!(
                full.iter().filter(|(_, id)| within(*id)).count(),
                SLOTS.len()
            );
        }
        let fifth = block_ops(OPS_PER_BLOCK / 5, 0, IDS, &mut rng);
        assert_eq!(fifth.len(), OPS_PER_BLOCK / 5);
        for op in [Op::Put, Op::Get, Op::Path, Op::Audit] {
            assert!(count(&fifth, op) > 0, "{op:?}");
        }
        // Another seed picks other documents for the same mix.
        let other = block_ops(OPS_PER_BLOCK, 3, IDS, &mut Rng::stream(2, "t"));
        let ids_of = |ops: &[(Op, usize)]| {
            let mut ids: Vec<usize> = ops.iter().map(|(_, id)| *id).collect();
            ids.sort_unstable();
            ids
        };
        assert_ne!(ids_of(&full), ids_of(&other));
        assert_eq!(count(&other, Op::Put), count(&full, Op::Put));
    }
}
