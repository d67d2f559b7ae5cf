//! `POST /api/v0/documents/{id}/query`: planned path-pattern queries
//! and the ML audits built on them.

use crate::http::{error_body, error_response, Request, ServerState};
use crate::store::DocumentStore;
use json::JsonWriter;
use prov_graph::audit::{CrossRunJoin, FairnessReport, GdprReport, LeakageReport};
use prov_graph::{audit, MatchRow, MatchSet, ProvGraph, QueryPlan};
use prov_model::query::{ElementFilter, PathQuery};
use prov_model::QName;
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
/// Graphviz DOT under `"dot"` (the join renders none). Any other
/// top-level key, or any other `"render"` value, is a 400 that names it.
///
/// Every scenario but the join is one planned execution
/// ([`DocumentStore::run_query`]): a path query answers with the set,
/// an audit folds the set its IR builder's query returned, and DOT
/// renders the same set. Each answered request counts once under its
/// scenario label. Responses are written straight to bytes, keys in
/// ascending order.
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
    let render_dot = match obj.get("render") {
        None => false,
        Some(r) if r.as_str() == Some("dot") => true,
        Some(other) => {
            return (
                400,
                error_body(&format!("unknown render {other}: expected \"dot\"")),
            )
        }
    };
    let documents = Documents { id, extra: &extra };

    let planned = match scenario {
        Some("join") => {
            return match qname_arg(obj, "digest_key") {
                Ok(digest_key) => handle_join(store, &documents, digest_key),
                Err(msg) => (400, error_body(&msg)),
            }
        }
        _ => planned_query(obj, scenario),
    };
    let (query, fold) = match planned {
        Ok(p) => p,
        Err(msg) => return (400, error_body(&msg)),
    };
    let (set, shared) = match store.run_query(id, &extra, &query) {
        Ok(r) => r,
        Err(e) => return error_response(&e),
    };
    store.note_query(scenario.unwrap_or("path"));
    let dot = render_dot.then(|| {
        let sub = prov_graph::subgraph(shared.document(), &set.node_set());
        prov_graph::to_dot(&sub, &prov_graph::DotOptions::default())
    });
    let Some(fold) = fold else {
        return (200, path_body(&documents, &set, dot.as_deref()));
    };
    let plan = set.plan.clone();
    let report = fold(&shared.view(), set);
    (200, audit_body(&documents, &plan, &report, dot.as_deref()))
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

/// How a planned audit folds the [`MatchSet`] of its query, over the
/// view the query ran on.
type Fold = Box<dyn FnOnce(&ProvGraph<'_>, MatchSet) -> Report>;

/// The IR a planned scenario runs (`None`: the body's own path query)
/// and the fold its audit applies to the set, or the 400 message for a
/// malformed argument or an unknown audit.
fn planned_query(
    obj: &json::Map, // reads JSON
    scenario: Option<&str>,
) -> Result<(PathQuery, Option<Fold>), String> {
    let filter_arg = |key: &str| -> Result<Option<ElementFilter>, String> {
        obj.get(key)
            .map(|v| ElementFilter::from_json(v).map_err(|e| format!("\"{key}\": {e}")))
            .transpose()
    };
    Ok(match scenario {
        None => (
            PathQuery::from_json(&obj["query"]).map_err(|e| e.to_string())?,
            None,
        ),
        Some("leakage") => {
            let test = filter_arg("test")?.unwrap_or_else(audit::default_test_filter);
            let training = filter_arg("training")?.unwrap_or_else(audit::default_training_filter);
            let fold: Fold = Box::new(|_, set| Report::Leakage(LeakageReport::from_set(set)));
            (audit::leakage_query(test, training), Some(fold))
        }
        Some("gdpr") => {
            let incomplete = || "\"gdpr\" requires \"sample\" and \"model\" qnames".to_string();
            let sample = qname_arg(obj, "sample")?.ok_or_else(incomplete)?;
            let model = qname_arg(obj, "model")?.ok_or_else(incomplete)?;
            let query = audit::gdpr_query(&sample, &model);
            let fold: Fold =
                Box::new(move |_, set| Report::Gdpr(GdprReport::from_set(set, &sample, &model)));
            (query, Some(fold))
        }
        Some("fairness") => {
            let model = qname_arg(obj, "model")?
                .ok_or_else(|| "\"fairness\" requires a \"model\" qname".to_string())?;
            let group_key = qname_arg(obj, "group_key")?.unwrap_or_else(|| QName::yprov("group"));
            let query = audit::fairness_query(&model, &group_key);
            let fold: Fold = Box::new(move |graph, set| {
                Report::Fairness(FairnessReport::from_set(graph, set, &model, &group_key))
            });
            (query, Some(fold))
        }
        Some(other) => {
            return Err(format!(
                "unknown audit {other:?}: expected \"leakage\", \"gdpr\", \
                 \"fairness\" or \"join\""
            ))
        }
    })
}

/// The optional `"prefix:local"` argument under `key`.
fn qname_arg(
    obj: &json::Map, // reads JSON
    key: &str,
) -> Result<Option<QName>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_str().map(QName::parse) {
            Some(Ok(q)) => Ok(Some(q)),
            _ => Err(format!("\"{key}\" must be a \"prefix:local\" string")),
        },
    }
}

/// The join audit: digests over the query view, which is the cached
/// index when no `"docs"` join in and their canonical merge otherwise.
fn handle_join(
    store: &DocumentStore,
    documents: &Documents<'_>,
    digest_key: Option<QName>,
) -> (u16, String) {
    let t0 = Instant::now();
    let shared = match store.query_view(documents.id, documents.extra) {
        Ok(s) => s,
        Err(e) => return error_response(&e),
    };
    store.note_query("join");
    let join = audit::cross_run_join(&shared.view(), digest_key);
    // The view and the digest scan are the whole cost; there is no
    // separate planning phase to split out.
    store.note_query_timing(Duration::ZERO, t0.elapsed());
    (200, join_body(documents, &join))
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
