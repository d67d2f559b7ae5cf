//! `POST /api/v0/documents/{id}/query`: planned path-pattern queries
//! and the ML audits built on them.

use crate::error::ServiceError;
use crate::http::{error_body, error_response, Request, ServerState};
use crate::store::DocumentStore;
use json::JsonWriter;
use prov_graph::audit::{CrossRunJoin, FairnessReport, GdprReport, LeakageReport};
use prov_graph::{audit, MatchRow, MatchSet, ProvGraph, QueryPlan};
use prov_model::query::{ElementFilter, PathQuery};
use prov_model::{ProvDocument, QName};
use std::io::Sink;
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
/// Graphviz DOT under `"dot"`. Any other top-level key is a 400 that
/// names it.
///
/// Responses are written straight to bytes, keys in ascending order.
pub(super) fn handle_query(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let store = &state.store;
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8")),
    };
    let parsed = json::parse(text); // reads JSON
    let v = match parsed {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("body is not JSON: {e}"))),
    };
    let Some(obj) = v.as_object() else {
        return (400, error_body("body must be a JSON object"));
    };
    let scenario = obj.get("audit").and_then(|a| a.as_str());
    if obj.contains_key("query") == scenario.is_some() {
        return (
            400,
            error_body("body must contain exactly one of \"query\" or \"audit\""),
        );
    }
    if let Some(key) = unknown_key(obj, scenario) {
        return (
            400,
            error_body(&format!("unknown key {key:?} in the query body")),
        );
    }

    let extra: Option<Vec<String>> = match obj.get("docs") {
        None => Some(Vec::new()),
        Some(json::Value::Array(ids)) => ids // reads JSON
            .iter()
            .map(|entry| entry.as_str().map(str::to_string))
            .collect(),
        Some(_) => None,
    };
    let Some(extra) = extra else {
        return (400, error_body("\"docs\" must be an array of document ids"));
    };
    let render_dot = matches!(obj.get("render").and_then(|r| r.as_str()), Some("dot"));
    let documents = Documents { id, extra: &extra };

    match scenario {
        None => {
            let query = match PathQuery::from_json(&obj["query"]) {
                Ok(q) => q,
                Err(e) => return (400, error_body(&e.to_string())),
            };
            let (set, shared) = match store.run_query(id, &extra, &query) {
                Ok(r) => r,
                Err(e) => return error_response(&e),
            };
            let dot = render_dot.then(|| {
                let sub = prov_graph::subgraph(shared.document(), &set.node_set());
                prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())
            });
            (200, path_body(&documents, &set, dot.as_deref()))
        }

        Some(scenario) => handle_audit(store, &documents, scenario, obj, render_dot),
    }
}

/// The first top-level key of `obj` that `scenario` (`None`: a path
/// query) does not read. An unknown audit is refused by name later, so
/// its keys are not checked.
fn unknown_key<'a>(
    obj: &'a json::Map, // reads JSON
    scenario: Option<&str>,
) -> Option<&'a str> {
    let own: &[&str] = match scenario {
        None => &["query"],
        Some("leakage") => &["test", "training"],
        Some("gdpr") => &["sample", "model"],
        Some("fairness") => &["model", "group_key"],
        Some("join") => &["digest_key"],
        Some(_) => return None,
    };
    let known = |key: &str| ["audit", "docs", "render"].contains(&key) || own.contains(&key);
    obj.keys().map(String::as_str).find(|key| !known(key))
}

/// The documents a request queries: its own, then the `"docs"` it
/// joins, as every response lists them under `"documents"`.
struct Documents<'a> {
    id: &'a str,
    extra: &'a [String],
}

/// `"documents"`, then `"dot"` when the subgraph was rendered: no key
/// of any response sorts between the two.
fn write_documents(w: &mut JsonWriter<Sink>, documents: &Documents<'_>, dot: Option<&str>) {
    w.key("documents");
    w.array(|w| {
        w.str(documents.id);
        documents.extra.iter().for_each(|e| w.str(e));
    });
    if let Some(dot) = dot {
        w.key("dot");
        w.str(dot);
    }
}

/// A planner decision.
fn write_plan(w: &mut JsonWriter<Sink>, plan: &QueryPlan) {
    let side = match plan.side {
        prov_graph::PlanSide::FromStart => "from_start",
        prov_graph::PlanSide::FromEnd => "from_end",
    };
    w.key("plan");
    w.object(|w| {
        w.key("cost_from_end");
        w.f64(plan.cost_from_end);
        w.key("cost_from_start");
        w.f64(plan.cost_from_start);
        w.key("end_candidates");
        w.u64(plan.end_candidates as u64);
        w.key("reason");
        w.str(&plan.reason);
        w.key("side");
        w.str(side);
        w.key("start_candidates");
        w.u64(plan.start_candidates as u64);
    });
}

fn write_names(w: &mut JsonWriter<Sink>, names: &[QName]) {
    w.array(|w| names.iter().for_each(|q| w.str_parts(&q.parts())));
}

/// `(start, end)` matches with their witness paths.
fn write_rows(w: &mut JsonWriter<Sink>, rows: &[MatchRow]) {
    w.array(|w| {
        for row in rows {
            w.object(|w| {
                w.key("end");
                w.str_parts(&row.end.parts());
                w.key("path");
                write_names(w, &row.path);
                w.key("start");
                w.str_parts(&row.start.parts());
            });
        }
    });
}

fn path_body(documents: &Documents<'_>, set: &MatchSet, dot: Option<&str>) -> String {
    json::to_string(|w| {
        w.object(|w| {
            write_documents(w, documents, dot);
            write_plan(w, &set.plan);
            w.key("row_count");
            w.u64(set.rows.len() as u64);
            w.key("rows");
            write_rows(w, &set.rows);
            w.key("scenario");
            w.str("path");
            w.key("truncated");
            w.bool(set.truncated);
        })
    })
}

/// What one of the planned audits found.
enum Report {
    Leakage(LeakageReport),
    Gdpr(GdprReport),
    Fairness(FairnessReport),
}

fn audit_body(
    documents: &Documents<'_>,
    plan: &QueryPlan,
    report: &Report,
    dot: Option<&str>,
) -> String {
    json::to_string(|w| {
        w.object(|w| match report {
            Report::Leakage(r) => {
                w.key("clean");
                w.bool(r.is_clean());
                write_documents(w, documents, dot);
                w.key("leaks");
                write_rows(w, &r.leaks);
                write_plan(w, plan);
                w.key("scenario");
                w.str("leakage");
                w.key("test_artifacts");
                w.u64(r.test_artifacts as u64);
                w.key("training_activities");
                w.u64(r.training_activities as u64);
            }
            Report::Gdpr(r) => {
                write_documents(w, documents, dot);
                w.key("model");
                w.str_parts(&r.model.parts());
                w.key("path");
                write_names(w, &r.path);
                write_plan(w, plan);
                w.key("sample");
                w.str_parts(&r.sample.parts());
                w.key("scenario");
                w.str("gdpr");
                w.key("trained_on");
                w.bool(r.trained_on);
            }
            Report::Fairness(r) => {
                w.key("balance");
                w.f64(r.balance());
                write_documents(w, documents, dot);
                w.key("group_key");
                w.str_parts(&r.group_key.parts());
                w.key("groups");
                w.object(|w| {
                    for (value, count) in &r.groups {
                        w.key(value);
                        w.u64(*count as u64);
                    }
                });
                w.key("model");
                w.str_parts(&r.model.parts());
                write_plan(w, plan);
                w.key("scenario");
                w.str("fairness");
                w.key("total");
                w.u64(r.total as u64);
            }
        })
    })
}

fn join_body(documents: &Documents<'_>, join: &CrossRunJoin) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("digest_key");
            w.str_parts(&join.digest_key.parts());
            write_documents(w, documents, None);
            w.key("joined");
            w.array(|w| {
                for j in &join.joined {
                    w.object(|w| {
                        w.key("artifacts");
                        write_names(w, &j.artifacts);
                        w.key("consumers");
                        write_names(w, &j.consumers);
                        w.key("digest");
                        w.str(&j.digest);
                        w.key("producers");
                        write_names(w, &j.producers);
                        w.key("shared");
                        w.bool(j.is_shared());
                    });
                }
            });
            w.key("merged_edges");
            w.u64(join.merged_edges as u64);
            w.key("merged_nodes");
            w.u64(join.merged_nodes as u64);
            w.key("scenario");
            w.str("join");
            w.key("shared_count");
            w.u64(join.shared().len() as u64);
        })
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
    documents: &Documents<'_>,
    scenario: &str,
    obj: &json::Map, // reads JSON
    render_dot: bool,
) -> (u16, String) {
    let (id, extra) = (documents.id, documents.extra);
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
        return (200, join_body(documents, &join));
    }

    let shared = match store.query_view(id, extra) {
        Ok(s) => s,
        Err(e) => return error_response(&e),
    };
    let graph = shared.view();

    let (audit_query, plan, report) = match scenario {
        "leakage" => {
            let test = arg!(filter_arg("test")).unwrap_or_else(audit::default_test_filter);
            let training =
                arg!(filter_arg("training")).unwrap_or_else(audit::default_training_filter);
            store.note_query("leakage");
            let query = audit::leakage_query(test.clone(), training.clone());
            let (plan, report) = plan_then_run(store, &graph, &query, || {
                audit::data_leakage(&graph, Some(test), Some(training))
            });
            (query, plan, Report::Leakage(report))
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
            (query, plan, Report::Gdpr(report))
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
            (query, plan, Report::Fairness(report))
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

    // Re-run the audit's own query for its witness nodes — the matched
    // subgraph is what the explorer renders.
    let dot = render_dot.then(|| {
        let set = prov_graph::execute(&graph, &audit_query);
        let sub = prov_graph::subgraph(shared.document(), &set.node_set());
        prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())
    });
    (200, audit_body(documents, &plan, &report, dot.as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::{json, Value};
    use prov_graph::audit::JoinedArtifact;
    use prov_graph::PlanSide;

    /// The `json!` trees these bodies were printed from: the reference
    /// each body is held to.
    mod reference {
        use super::*;

        pub(super) fn documents(d: &Documents<'_>) -> Value {
            let mut all = vec![json!(d.id)];
            all.extend(d.extra.iter().map(|e| json!(e)));
            Value::Array(all)
        }

        pub(super) fn plan(plan: &QueryPlan) -> Value {
            let side = match plan.side {
                PlanSide::FromStart => "from_start",
                PlanSide::FromEnd => "from_end",
            };
            json!({
                "side": side,
                "start_candidates": plan.start_candidates,
                "end_candidates": plan.end_candidates,
                "cost_from_start": plan.cost_from_start,
                "cost_from_end": plan.cost_from_end,
                "reason": &plan.reason,
            })
        }

        pub(super) fn row(row: &MatchRow) -> Value {
            json!({
                "start": row.start.to_string(),
                "end": row.end.to_string(),
                "path": row.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
            })
        }

        fn with_dot(body: Value, dot: Option<&str>) -> String {
            let Value::Object(mut out) = body else {
                unreachable!("json! object literal")
            };
            if let Some(dot) = dot {
                out.insert("dot".into(), json!(dot));
            }
            Value::Object(out).to_string()
        }

        pub(super) fn path(d: &Documents<'_>, set: &MatchSet, dot: Option<&str>) -> String {
            let rows: Vec<Value> = set.rows.iter().map(row).collect();
            let body = json!({
                "scenario": "path",
                "documents": documents(d),
                "plan": plan(&set.plan),
                "rows": rows,
                "row_count": set.rows.len(),
                "truncated": set.truncated,
            });
            with_dot(body, dot)
        }

        pub(super) fn audit(
            d: &Documents<'_>,
            p: &QueryPlan,
            report: &Report,
            dot: Option<&str>,
        ) -> String {
            let body = match report {
                Report::Leakage(report) => {
                    let leaks: Vec<Value> = report.leaks.iter().map(row).collect();
                    json!({
                        "scenario": "leakage",
                        "documents": documents(d),
                        "clean": report.is_clean(),
                        "test_artifacts": report.test_artifacts,
                        "training_activities": report.training_activities,
                        "leaks": leaks,
                        "plan": plan(p),
                    })
                }
                Report::Gdpr(report) => json!({
                    "scenario": "gdpr",
                    "documents": documents(d),
                    "sample": report.sample.to_string(),
                    "model": report.model.to_string(),
                    "trained_on": report.trained_on,
                    "path": report.path.iter().map(|q| q.to_string()).collect::<Vec<String>>(),
                    "plan": plan(p),
                }),
                Report::Fairness(report) => {
                    let mut groups = json::Map::new();
                    for (value, count) in &report.groups {
                        groups.insert(value.clone(), json!(*count));
                    }
                    json!({
                        "scenario": "fairness",
                        "documents": documents(d),
                        "model": report.model.to_string(),
                        "group_key": report.group_key.to_string(),
                        "groups": Value::Object(groups),
                        "total": report.total,
                        "balance": report.balance(),
                        "plan": plan(p),
                    })
                }
            };
            with_dot(body, dot)
        }

        pub(super) fn join(d: &Documents<'_>, join: &CrossRunJoin) -> String {
            let names = |qs: &[QName]| qs.iter().map(|q| q.to_string()).collect::<Vec<String>>();
            let joined: Vec<Value> = join
                .joined
                .iter()
                .map(|j| {
                    json!({
                        "digest": &j.digest,
                        "artifacts": names(&j.artifacts),
                        "producers": names(&j.producers),
                        "consumers": names(&j.consumers),
                        "shared": j.is_shared(),
                    })
                })
                .collect();
            json!({
                "scenario": "join",
                "documents": documents(d),
                "digest_key": join.digest_key.to_string(),
                "merged_nodes": join.merged_nodes,
                "merged_edges": join.merged_edges,
                "shared_count": join.shared().len(),
                "joined": joined,
            })
            .to_string()
        }
    }

    fn names(n: usize) -> Vec<QName> {
        ["x", "q\"t", "tab\there", "é"]
            .iter()
            .flat_map(|local| ["ex", "ex2", "yprov4ml"].map(|p| QName::new(p, local)))
            .take(n)
            .collect()
    }

    fn rows(n: usize) -> Vec<MatchRow> {
        (0..n)
            .map(|i| MatchRow {
                start: names(12)[i % 12].clone(),
                end: names(12)[(i * 5) % 12].clone(),
                path: names(i % 5),
            })
            .collect()
    }

    fn plans() -> Vec<QueryPlan> {
        [
            (PlanSide::FromStart, 0, 0, 0.0, 0.0, String::new()),
            (
                PlanSide::FromEnd,
                40,
                2,
                1e21,
                0.1,
                "3 end anchor(s) \"x\"\n".into(),
            ),
            (
                PlanSide::FromStart,
                1,
                1,
                f64::NAN,
                f64::INFINITY,
                "tab\t".into(),
            ),
        ]
        .into_iter()
        .map(
            |(side, start, end, cost_from_start, cost_from_end, reason)| QueryPlan {
                side,
                start_candidates: start,
                end_candidates: end,
                cost_from_start,
                cost_from_end,
                reason,
            },
        )
        .collect()
    }

    /// Each body over every combination of documents, dot and plan.
    fn cases(mut check: impl FnMut(&Documents<'_>, Option<&str>, &QueryPlan, usize)) {
        let extra: Vec<String> = ["b", "c\"d", "\u{1}é"].map(String::from).to_vec();
        let dots = [
            None,
            Some(""),
            Some("digraph {\n  \"ex:a\" -> \"ex:b\";\n}\n"),
        ];
        for n in 0..=extra.len() {
            let documents = Documents {
                id: "run \"1\"",
                extra: &extra[..n],
            };
            for (i, dot) in dots.iter().enumerate() {
                for plan in plans() {
                    check(&documents, *dot, &plan, n * 3 + i);
                }
            }
        }
    }

    #[test]
    fn path_body_matches_its_tree() {
        cases(|documents, dot, plan, n| {
            let set = MatchSet {
                plan: plan.clone(),
                rows: rows(n),
                truncated: n % 2 == 1,
            };
            assert_eq!(
                path_body(documents, &set, dot),
                reference::path(documents, &set, dot)
            );
        });
    }

    #[test]
    fn leakage_body_matches_its_tree() {
        cases(|documents, dot, plan, n| {
            let report = Report::Leakage(LeakageReport {
                leaks: rows(n % 4),
                test_artifacts: n,
                training_activities: n * 7,
            });
            assert_eq!(
                audit_body(documents, plan, &report, dot),
                reference::audit(documents, plan, &report, dot)
            );
        });
    }

    #[test]
    fn gdpr_body_matches_its_tree() {
        cases(|documents, dot, plan, n| {
            let report = Report::Gdpr(GdprReport {
                sample: names(12)[n % 12].clone(),
                model: names(12)[(n + 5) % 12].clone(),
                trained_on: n % 2 == 0,
                path: names(n % 6),
            });
            assert_eq!(
                audit_body(documents, plan, &report, dot),
                reference::audit(documents, plan, &report, dot)
            );
        });
    }

    #[test]
    fn fairness_body_matches_its_tree() {
        cases(|documents, dot, plan, n| {
            let groups = ["", "a", "b\"", "\n", "é", "Z"]
                .iter()
                .take(n % 7)
                .enumerate()
                .map(|(i, g)| (g.to_string(), i * n))
                .collect();
            let report = Report::Fairness(FairnessReport {
                model: names(12)[n % 12].clone(),
                group_key: QName::yprov("group"),
                groups,
                total: n * 3,
            });
            assert_eq!(
                audit_body(documents, plan, &report, dot),
                reference::audit(documents, plan, &report, dot)
            );
        });
    }

    #[test]
    fn join_body_matches_its_tree() {
        cases(|documents, _, _, n| {
            let joined = (0..n % 4)
                .map(|i| JoinedArtifact {
                    digest: format!("sha256:{i}\"\t"),
                    artifacts: names(i + 1),
                    producers: names(i),
                    consumers: names(2 * i),
                })
                .collect();
            let join = CrossRunJoin {
                digest_key: QName::yprov("sha256"),
                joined,
                merged_nodes: n * 11,
                merged_edges: n * 13,
            };
            assert_eq!(
                join_body(documents, &join),
                reference::join(documents, &join)
            );
        });
    }
}
