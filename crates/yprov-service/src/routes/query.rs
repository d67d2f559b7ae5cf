//! `POST /api/v0/documents/{id}/query`: planned path-pattern queries
//! and the ML audits built on them.

use crate::error::ServiceError;
use crate::http::{error_body, error_response, Request, ServerState};
use crate::store::DocumentStore;
use prov_graph::{audit, ProvGraph, QueryPlan};
use prov_model::query::{ElementFilter, PathQuery};
use prov_model::{ProvDocument, QName};
use serde_json::json;
use std::time::{Duration, Instant};

/// Serves one query request.
///
/// The body is a JSON object selecting exactly one scenario:
///
/// * `{"query": <PathQuery IR>}` — a planned path-pattern query;
/// * `{"audit": "leakage", "test"?: <filter>, "training"?: <filter>}`;
/// * `{"audit": "gdpr", "sample": "pre:x", "model": "pre:y"}`;
/// * `{"audit": "fairness", "model": "pre:y", "group_key"?: "pre:k"}`;
/// * `{"audit": "join", "digest_key"?: "pre:k"}`.
///
/// Two cross-cutting keys: `"docs": [id, ...]` joins the named
/// documents into the queried view (canonical merge), and
/// `"render": "dot"` additionally returns the matched subgraph as
/// Graphviz DOT under `"dot"`.
pub(super) fn handle_query(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let store = &state.store;
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8")),
    };
    let v: serde_json::Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("body is not JSON: {e}"))),
    };
    let Some(obj) = v.as_object() else {
        return (400, error_body("body must be a JSON object"));
    };

    let extra: Option<Vec<String>> = match obj.get("docs") {
        None => Some(Vec::new()),
        Some(serde_json::Value::Array(ids)) => ids
            .iter()
            .map(|entry| entry.as_str().map(str::to_string))
            .collect(),
        Some(_) => None,
    };
    let Some(extra) = extra else {
        return (400, error_body("\"docs\" must be an array of document ids"));
    };
    let render_dot = matches!(obj.get("render").and_then(|r| r.as_str()), Some("dot"));
    let documents_json = || {
        let mut all = vec![json!(id)];
        all.extend(extra.iter().map(|e| json!(e)));
        serde_json::Value::Array(all)
    };

    match (obj.get("query"), obj.get("audit").and_then(|a| a.as_str())) {
        (Some(q), None) => {
            let query = match PathQuery::from_json(q) {
                Ok(q) => q,
                Err(e) => return (400, error_body(&e.to_string())),
            };
            let (set, shared) = match store.run_query(id, &extra, &query) {
                Ok(r) => r,
                Err(e) => return error_response(&e),
            };
            let rows: Vec<serde_json::Value> = set.rows.iter().map(row_json).collect();
            let mut out = match json!({
                "scenario": "path",
                "documents": documents_json(),
                "plan": plan_json(&set.plan),
                "rows": rows,
                "row_count": set.rows.len(),
                "truncated": set.truncated,
            }) {
                serde_json::Value::Object(o) => o,
                _ => unreachable!("json! object literal"),
            };
            if render_dot {
                let sub = prov_graph::subgraph(shared.document(), &set.node_set());
                out.insert(
                    "dot".into(),
                    json!(prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())),
                );
            }
            (200, serde_json::Value::Object(out).to_string())
        }

        (None, Some(scenario)) => handle_audit(
            store,
            id,
            &extra,
            scenario,
            obj,
            render_dot,
            documents_json(),
        ),

        _ => (
            400,
            error_body("body must contain exactly one of \"query\" or \"audit\""),
        ),
    }
}

/// JSON rendering of a planner decision.
fn plan_json(plan: &QueryPlan) -> serde_json::Value {
    let side = match plan.side {
        prov_graph::PlanSide::FromStart => "from_start",
        prov_graph::PlanSide::FromEnd => "from_end",
    };
    json!({
        "side": side,
        "start_candidates": plan.start_candidates,
        "end_candidates": plan.end_candidates,
        "cost_from_start": plan.cost_from_start,
        "cost_from_end": plan.cost_from_end,
        "reason": plan.reason,
    })
}

/// JSON rendering of one `(start, end)` match with its witness path.
fn row_json(row: &prov_graph::MatchRow) -> serde_json::Value {
    json!({
        "start": row.start.to_string(),
        "end": row.end.to_string(),
        "path": row.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
    })
}

/// Plans `query`, runs the audit built on it, and files the two
/// durations in the store's plan/execute histograms. Each audit exposes
/// the IR behind it, so the plan the service reports is exactly the
/// plan the audit executes under.
fn plan_then_run<R>(
    store: &DocumentStore,
    graph: &ProvGraph<'_>,
    query: &PathQuery,
    run: impl FnOnce() -> R,
) -> (QueryPlan, R) {
    let t0 = Instant::now();
    let plan = prov_graph::plan(graph, query);
    let planned = t0.elapsed();
    let t1 = Instant::now();
    let report = run();
    store.note_query_timing(planned, t1.elapsed());
    (plan, report)
}

/// Dispatches the `"audit"` scenarios of [`handle_query`].
fn handle_audit(
    store: &DocumentStore,
    id: &str,
    extra: &[String],
    scenario: &str,
    obj: &serde_json::Map<String, serde_json::Value>,
    render_dot: bool,
    documents: serde_json::Value,
) -> (u16, String) {
    let qname_arg = |key: &str| -> Result<Option<QName>, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => match v.as_str().map(QName::parse) {
                Some(Ok(q)) => Ok(Some(q)),
                _ => Err(format!("\"{key}\" must be a \"prefix:local\" string")),
            },
        }
    };
    let filter_arg = |key: &str| -> Result<Option<ElementFilter>, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(v) => ElementFilter::from_json(v)
                .map(Some)
                .map_err(|e| format!("\"{key}\": {e}")),
        }
    };
    macro_rules! arg {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(msg) => return (400, error_body(&msg)),
            }
        };
    }

    // The join audit builds its own merged view; every other scenario
    // runs over the (possibly joined) query view.
    if scenario == "join" {
        let digest_key = arg!(qname_arg("digest_key"));
        let mut docs = Vec::with_capacity(1 + extra.len());
        for one in std::iter::once(id).chain(extra.iter().map(String::as_str)) {
            match store.get(one) {
                Some(d) => docs.push(d),
                None => {
                    return error_response(&ServiceError::NotFound {
                        id: one.to_string(),
                    })
                }
            }
        }
        store.note_query("join");
        let refs: Vec<&ProvDocument> = docs.iter().map(|d| &**d).collect();
        let t0 = Instant::now();
        let (join, _merged) = match audit::cross_run_join(&refs, digest_key) {
            Ok(r) => r,
            Err(e) => {
                return error_response(&ServiceError::Conflict {
                    reason: format!("joining {id} + {extra:?}: {e}"),
                })
            }
        };
        // The merge + digest scan is the whole cost; there is no
        // separate planning phase to split out.
        store.note_query_timing(Duration::ZERO, t0.elapsed());
        let joined: Vec<serde_json::Value> = join
            .joined
            .iter()
            .map(|j| {
                json!({
                    "digest": j.digest,
                    "artifacts": j.artifacts.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "producers": j.producers.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "consumers": j.consumers.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "shared": j.is_shared(),
                })
            })
            .collect();
        return (
            200,
            json!({
                "scenario": "join",
                "documents": documents,
                "digest_key": join.digest_key.to_string(),
                "merged_nodes": join.merged_nodes,
                "merged_edges": join.merged_edges,
                "shared_count": join.shared().len(),
                "joined": joined,
            })
            .to_string(),
        );
    }

    let shared = match store.query_view(id, extra) {
        Ok(s) => s,
        Err(e) => return error_response(&e),
    };
    let graph = shared.view();

    let (audit_query, result): (PathQuery, _) = match scenario {
        "leakage" => {
            let test = arg!(filter_arg("test")).unwrap_or_else(audit::default_test_filter);
            let training =
                arg!(filter_arg("training")).unwrap_or_else(audit::default_training_filter);
            store.note_query("leakage");
            let query = audit::leakage_query(test.clone(), training.clone());
            let (plan, report) = plan_then_run(store, &graph, &query, || {
                audit::data_leakage(&graph, Some(test), Some(training))
            });
            let leaks: Vec<serde_json::Value> = report.leaks.iter().map(row_json).collect();
            (
                query,
                json!({
                    "scenario": "leakage",
                    "documents": documents,
                    "clean": report.is_clean(),
                    "test_artifacts": report.test_artifacts,
                    "training_activities": report.training_activities,
                    "leaks": leaks,
                    "plan": plan_json(&plan),
                }),
            )
        }
        "gdpr" => {
            let incomplete = || {
                (
                    400,
                    error_body("\"gdpr\" requires \"sample\" and \"model\" qnames"),
                )
            };
            let Some(sample) = arg!(qname_arg("sample")) else {
                return incomplete();
            };
            let Some(model) = arg!(qname_arg("model")) else {
                return incomplete();
            };
            store.note_query("gdpr");
            let query = audit::gdpr_query(&sample, &model);
            let (plan, report) = plan_then_run(store, &graph, &query, || {
                audit::gdpr_trained_on(&graph, &sample, &model)
            });
            (
                query,
                json!({
                    "scenario": "gdpr",
                    "documents": documents,
                    "sample": report.sample.to_string(),
                    "model": report.model.to_string(),
                    "trained_on": report.trained_on,
                    "path": report.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "plan": plan_json(&plan),
                }),
            )
        }
        "fairness" => {
            let Some(model) = arg!(qname_arg("model")) else {
                return (400, error_body("\"fairness\" requires a \"model\" qname"));
            };
            let group_key = arg!(qname_arg("group_key")).unwrap_or_else(|| QName::yprov("group"));
            store.note_query("fairness");
            let query = audit::fairness_query(&model, &group_key);
            let (plan, report) = plan_then_run(store, &graph, &query, || {
                audit::group_fairness(&graph, &model, &group_key)
            });
            let mut groups = serde_json::Map::new();
            for (value, count) in &report.groups {
                groups.insert(value.clone(), json!(count));
            }
            (
                query,
                json!({
                    "scenario": "fairness",
                    "documents": documents,
                    "model": report.model.to_string(),
                    "group_key": report.group_key.to_string(),
                    "groups": serde_json::Value::Object(groups),
                    "total": report.total,
                    "balance": report.balance(),
                    "plan": plan_json(&plan),
                }),
            )
        }
        other => {
            return (
                400,
                error_body(&format!(
                    "unknown audit {other:?}: expected \"leakage\", \"gdpr\", \
                     \"fairness\" or \"join\""
                )),
            )
        }
    };

    let mut out = match result {
        serde_json::Value::Object(o) => o,
        _ => unreachable!("audit responses are objects"),
    };
    if render_dot {
        // Re-run the audit's own query for its witness nodes — the
        // matched subgraph is what the explorer renders.
        let set = prov_graph::execute(&graph, &audit_query);
        let sub = prov_graph::subgraph(shared.document(), &set.node_set());
        out.insert(
            "dot".into(),
            json!(prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())),
        );
    }
    (200, serde_json::Value::Object(out).to_string())
}
