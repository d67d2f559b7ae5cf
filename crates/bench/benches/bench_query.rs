//! Lineage-query engine benchmark: planned execution versus a naive
//! always-from-start baseline, over layered provenance graphs where the
//! two anchor sides differ by orders of magnitude in selectivity.
//!
//! Each graph is a `layers x width` derivation lattice. The measured
//! query matches *every* entity on its broad side and a single
//! identifier on its narrow side — exactly the shape where the
//! planner's side choice matters. The naive baseline runs the same IR
//! through the same executor but with the anchor side pinned to
//! `FromStart`, so the delta is the planner's decision alone, not a
//! different code path. The three ML-audit queries (leakage, GDPR,
//! fairness) ride along for end-to-end latency numbers.
//!
//! Results land in `BENCH_query.json` at the repo root.
//! `YPROV_BENCH_SMOKE=1` shrinks sizes and iterations for CI.

use json::json;
use prov_graph::audit;
use prov_graph::{execute_with_plan, plan, PlanSide, ProvGraph, QueryPlan};
use prov_model::query::{Repeat, Step, StepDirection};
use prov_model::{AttrValue, ElementFilter, PathQuery, ProvDocument, QName};
use std::time::Instant;

fn q(name: &str) -> QName {
    QName::new("ex", name)
}

/// A `layers x width` lattice: node `L/i` is derived from nodes
/// `(L-1)/i` and `(L-1)/(i+1 mod width)` — every node reaches the root
/// layer, edge count ~ `2 * layers * width`.
fn lattice_doc(layers: usize, width: usize) -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .unwrap();
    let id = |l: usize, i: usize| q(&format!("n{l}x{i}"));
    for l in 0..layers {
        for i in 0..width {
            doc.entity(id(l, i)).attr(
                QName::yprov("group"),
                AttrValue::from(if i % 3 == 0 { "a" } else { "b" }),
            );
            if l > 0 {
                doc.was_derived_from(id(l, i), id(l - 1, i));
                doc.was_derived_from(id(l, i), id(l - 1, (i + 1) % width));
            }
        }
    }
    doc
}

/// The skewed query: every entity is a start candidate; exactly one
/// root node is the target. A planner that costs both sides anchors at
/// the root and walks once; the naive baseline walks a closure from
/// every node in the graph.
fn skewed_query() -> PathQuery {
    PathQuery {
        start: ElementFilter {
            kind: Some(prov_model::ElementKind::Entity),
            ..Default::default()
        },
        steps: vec![Step {
            kinds: Vec::new(),
            direction: StepDirection::Forward,
            repeat: Repeat::plus(),
            target: ElementFilter::by_id(q("n0x0")),
        }],
        limit: None,
    }
}

/// Pins the anchor side of `planned` to `FromStart` — the baseline an
/// unplanned engine would always execute.
fn naive_plan(planned: &QueryPlan) -> QueryPlan {
    QueryPlan {
        side: PlanSide::FromStart,
        start_candidates: planned.start_candidates,
        end_candidates: planned.end_candidates,
        cost_from_start: planned.cost_from_start,
        cost_from_end: planned.cost_from_end,
        reason: "baseline: side pinned to from_start".into(),
    }
}

fn median_micros(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `iters` runs of the query under `make_plan` and returns
/// `(median_micros, rows_of_last_run)`.
fn time_query<F: Fn(&ProvGraph<'_>) -> QueryPlan>(
    graph: &ProvGraph<'_>,
    query: &PathQuery,
    iters: usize,
    make_plan: F,
) -> (u64, usize) {
    let mut samples = Vec::with_capacity(iters);
    let mut rows = 0;
    for _ in 0..iters {
        let t0 = Instant::now();
        let set = execute_with_plan(graph, query, make_plan(graph));
        samples.push(t0.elapsed().as_micros() as u64);
        rows = set.rows.len();
    }
    (median_micros(samples), rows)
}

fn run_cell(layers: usize, width: usize, iters: usize) -> json::Value {
    let doc = lattice_doc(layers, width);
    let graph = ProvGraph::new(&doc);
    let query = skewed_query();

    let chosen = plan(&graph, &query);
    let (planned_us, planned_rows) = time_query(&graph, &query, iters, |g| plan(g, &query));
    let (naive_us, naive_rows) = time_query(&graph, &query, iters, |_| naive_plan(&chosen));
    assert_eq!(
        planned_rows, naive_rows,
        "both sides must produce identical match sets"
    );

    // The audit scenarios at this size, planned path only.
    let audits = {
        let t0 = Instant::now();
        let leakage = audit::data_leakage(&graph, None, None);
        let leakage_us = t0.elapsed().as_micros() as u64;
        let top = q(&format!("n{}x0", layers - 1));
        let t1 = Instant::now();
        let gdpr = audit::gdpr_trained_on(&graph, &q("n0x0"), &top);
        let gdpr_us = t1.elapsed().as_micros() as u64;
        let t2 = Instant::now();
        let fairness = audit::group_fairness(&graph, &top, &QName::yprov("group"));
        let fairness_us = t2.elapsed().as_micros() as u64;
        json!({
            "leakage_us": leakage_us,
            "leakage_clean": leakage.is_clean(),
            "gdpr_us": gdpr_us,
            "gdpr_trained_on": gdpr.trained_on,
            "fairness_us": fairness_us,
            "fairness_groups": fairness.groups.len(),
        })
    };

    json!({
        "layers": layers,
        "width": width,
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "plan_side": match chosen.side { PlanSide::FromStart => "from_start", PlanSide::FromEnd => "from_end" },
        "plan_reason": chosen.reason,
        "rows": planned_rows,
        "planned_median_us": planned_us,
        "naive_median_us": naive_us,
        "speedup": if planned_us > 0 { naive_us as f64 / planned_us as f64 } else { 0.0 },
        "audits": audits,
    })
}

fn main() {
    let smoke = matches!(std::env::var("YPROV_BENCH_SMOKE"), Ok(v) if v != "0");
    let sizes: &[(usize, usize)] = if smoke {
        &[(8, 16), (16, 32)]
    } else {
        &[(8, 16), (16, 64), (32, 128), (64, 256)]
    };
    let iters = if smoke { 5 } else { 25 };

    let cells: Vec<json::Value> = sizes
        .iter()
        .map(|&(layers, width)| run_cell(layers, width, iters))
        .collect();

    let out = json!({
        "bench": "bench_query",
        "description": "Planned path-pattern execution vs a from-start-pinned \
                        baseline over layered derivation lattices, plus the \
                        three ML-audit queries per size.",
        // CI's bench-smoke guard greps for this: a committed file that
        // still says "pending" fails the job.
        "status": "measured",
        "smoke": smoke,
        "iterations": iters,
        "query": "every entity -> (forward, +) -> one root id",
        "cells": cells,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, format!("{out:#}\n")).unwrap();
    eprintln!("wrote {path}");
}
