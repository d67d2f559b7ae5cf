//! `/api/v0/documents…`: upload, fetch, delete, lineage, exports, live
//! deltas and the watch long-poll.

use crate::cluster::ReplicationOutcome;
use crate::http::{error_body, error_response, one_member, Request, ServerState};
use crate::store::{Upload, WatchOutcome};
use prov_graph::GraphIndexStats;
use prov_model::document::DocumentStats;
use prov_model::{ProvDocument, QName};
use std::time::Duration;

pub(super) fn list(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, list_body(&state.store.list()))
}

fn list_body(ids: &[String]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("documents");
            w.array(|w| ids.iter().for_each(|id| w.str(id)));
        })
    })
}

pub(super) fn upload(state: &ServerState, req: &Request, _: &str) -> (u16, String) {
    match document_body(req) {
        Ok(doc) => match state.store.upload_full(doc) {
            Ok(up) => acked_response(state, &up),
            Err(e) => error_response(&e),
        },
        Err(refused) => refused,
    }
}

pub(super) fn put(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    match document_body(req) {
        Ok(doc) => match state.store.upload_as_full(id, doc) {
            Ok(up) => acked_response(state, &up),
            Err(e) => error_response(&e),
        },
        Err(refused) => refused,
    }
}

pub(super) fn get(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    match state.store.document_json(id) {
        Ok(json) => (200, json),
        Err(e) => error_response(&e),
    }
}

pub(super) fn delete(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    match state.store.delete(id) {
        Ok(true) => (200, one_member("deleted", id)),
        Ok(false) => not_found(id),
        Err(e) => error_response(&e),
    }
}

pub(super) fn stats(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    // Document and index come from one record, so "relations" and
    // "graph"."edges" describe the same version. The index statistics
    // are the node/edge/per-kind counters the query planner costs
    // anchor sides with.
    let shared = match state.store.graph(id) {
        Ok(shared) => shared,
        Err(e) => return error_response(&e),
    };
    (
        200,
        stats_body(&shared.document().stats(), &shared.index().stats()),
    )
}

fn stats_body(s: &DocumentStats, gs: &GraphIndexStats) -> String {
    let mut per_kind: Vec<(&str, usize)> = gs
        .per_kind
        .iter()
        .map(|(kind, count)| (kind.json_key(), *count))
        .collect();
    per_kind.sort_unstable_by_key(|(key, _)| *key);
    json::to_string(|w| {
        w.object(|w| {
            for (key, count) in [
                ("activities", s.activities),
                ("agents", s.agents),
                ("bundles", s.bundles),
                ("entities", s.entities),
            ] {
                w.key(key);
                w.u64(count as u64);
            }
            w.key("graph");
            w.object(|w| {
                w.key("avg_degree");
                w.f64(gs.avg_degree());
                w.key("edges");
                w.u64(gs.edges as u64);
                w.key("nodes");
                w.u64(gs.nodes as u64);
                w.key("per_kind");
                w.object(|w| {
                    for (key, count) in &per_kind {
                        w.key(key);
                        w.u64(*count as u64);
                    }
                });
            });
            w.key("relations");
            w.u64(s.relations as u64);
        })
    })
}

pub(super) fn ancestors(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let q = match focus(req) {
        Ok(q) => q,
        Err(refused) => return refused,
    };
    match state.store.ancestors(id, &q) {
        Ok(anc) => (200, ancestors_body(&q, &anc)),
        Err(e) => error_response(&e),
    }
}

fn ancestors_body(focus: &QName, ancestors: &[QName]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("ancestors");
            w.array(|w| ancestors.iter().for_each(|a| w.str_parts(&a.parts())));
            w.key("focus");
            w.str_parts(&focus.parts());
        })
    })
}

pub(super) fn subgraph(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let q = match focus(req) {
        Ok(q) => q,
        Err(refused) => return refused,
    };
    match state
        .store
        .subgraph(id, &q)
        .and_then(|sub| Ok(sub.to_json_string()?))
    {
        Ok(json) => (200, json),
        Err(e) => error_response(&e),
    }
}

pub(super) fn provn(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    export(state, id, prov_model::provn::to_provn)
}

pub(super) fn turtle(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    export(state, id, prov_model::turtle::to_turtle)
}

pub(super) fn dot(state: &ServerState, _: &Request, id: &str) -> (u16, String) {
    export(state, id, |doc| {
        prov_graph::to_dot(doc, &prov_graph::DotOptions::default())
    })
}

pub(super) fn merge_delta(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let delta = match document_body(req) {
        Ok(delta) => delta,
        Err(refused) => return refused,
    };
    match state.store.merge_delta(id, &delta) {
        Ok((up, version)) => {
            // The merged document replicates through the ordinary
            // frame path: the Upload carries the full post-merge
            // bytes, so replicas need no delta-aware logic.
            match acked_response(state, &up) {
                (201, _) => (200, merged_body(&up.id, version)),
                refused => refused,
            }
        }
        Err(e) => error_response(&e),
    }
}

pub(super) fn watch(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let num = |key: &str| req.param(key).and_then(|v| v.parse::<u64>().ok());
    let after = num("after").unwrap_or(0);
    let timeout_ms = num("timeout_ms").unwrap_or(10_000).min(30_000);
    // Long-poll: this blocks the connection's thread and holds a
    // handler turn. The idle timeout only runs while the connection
    // waits for a request, so it cannot reap a parked watch.
    let timeout = Duration::from_millis(timeout_ms);
    match state.store.wait_for_newer(id, after, timeout) {
        WatchOutcome::Gone => not_found(id),
        WatchOutcome::Unchanged(version) => (200, unchanged_body(id, version)),
        WatchOutcome::Changed(version) => match state.store.document_json(id) {
            Ok(doc_json) => (200, changed_body(id, version, &doc_json)),
            Err(e) => error_response(&e),
        },
    }
}

fn merged_body(id: &str, version: u64) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("id");
            w.str(id);
            w.key("version");
            w.u64(version);
        })
    })
}

fn unchanged_body(id: &str, version: u64) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("changed");
            w.bool(false);
            w.key("id");
            w.str(id);
            w.key("version");
            w.u64(version);
        })
    })
}

/// The stored canonical bytes embed verbatim, so the watcher receives
/// exactly what a plain GET serves. Unlike every other body, its keys
/// are not in ascending order.
fn changed_body(id: &str, version: u64, doc_json: &str) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.field("id").str(id);
            w.field("version").u64(version);
            w.field("changed").bool(true);
            w.field("document").raw(doc_json);
        })
    })
}

/// The `?focus=prefix:local` node of a lineage route, or its `400`.
fn focus(req: &Request) -> Result<QName, (u16, String)> {
    req.param("focus")
        .and_then(|raw| QName::parse(raw).ok())
        .ok_or_else(|| (400, error_body("missing or invalid ?focus=prefix:local")))
}

/// One of the text renderings of a stored document.
fn export(state: &ServerState, id: &str, render: fn(&ProvDocument) -> String) -> (u16, String) {
    match state.store.get(id) {
        Ok(doc) => (200, render(&doc)),
        Err(e) => error_response(&e),
    }
}

/// The PROV-JSON document a request carries, or the `400` that refuses
/// it (not UTF-8, not JSON, not PROV-JSON): the one place the routes
/// that read a document map a [`prov_model::ProvError`] to a response.
fn document_body(req: &Request) -> Result<ProvDocument, (u16, String)> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| (400, error_body("body is not UTF-8")))?;
    ProvDocument::from_json_str(text).map_err(|e| (400, error_body(&e.to_string())))
}

fn not_found(id: &str) -> (u16, String) {
    (404, error_body(&format!("document {id:?} not found")))
}

/// Acknowledges a committed upload. On a cluster-configured server the
/// upload is first streamed to its replica set; an under-replicated
/// write is answered 503 (the document *is* committed locally — the
/// client's retry lands on the same id, under `PUT` by name and under
/// `POST` by content, and duplicate frame delivery is idempotent on the
/// replicas).
fn acked_response(state: &ServerState, up: &Upload) -> (u16, String) {
    if let Some(r) = &state.replicator {
        let outcome = r.replicate(&state.store, up);
        if !outcome.acked() {
            return (503, under_replicated_body(&up.id, &outcome));
        }
    }
    (201, one_member("id", &up.id))
}

fn under_replicated_body(id: &str, outcome: &ReplicationOutcome) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("detail");
            w.array(|w| outcome.errors.iter().for_each(|e| w.str(e)));
            w.key("error");
            w.display(format_args!(
                "under-replicated: {}/{} replica confirmations",
                outcome.confirmed, outcome.required
            ));
            w.key("id");
            w.str(id);
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::json;
    use prov_model::RelationKind;

    /// The `json!` trees these bodies were printed from: the reference
    /// each body is held to.
    mod reference {
        use super::*;

        pub(super) fn list(ids: &[String]) -> String {
            json!({ "documents": ids.to_vec() }).to_string()
        }

        pub(super) fn deleted(id: &str) -> String {
            json!({ "deleted": id }).to_string()
        }

        pub(super) fn stats(s: &DocumentStats, gs: &GraphIndexStats) -> String {
            let mut per_kind = json::Map::new();
            for (kind, count) in &gs.per_kind {
                per_kind.insert(kind.json_key().to_string(), json!(*count));
            }
            json!({
                "entities": s.entities,
                "activities": s.activities,
                "agents": s.agents,
                "relations": s.relations,
                "bundles": s.bundles,
                "graph": {
                    "nodes": gs.nodes,
                    "edges": gs.edges,
                    "avg_degree": gs.avg_degree(),
                    "per_kind": json::Value::Object(per_kind),
                },
            })
            .to_string()
        }

        pub(super) fn ancestors(focus: &QName, anc: &[QName]) -> String {
            json!({"focus": focus.to_string(),
                   "ancestors": anc.iter().map(|a| a.to_string()).collect::<Vec<_>>()})
            .to_string()
        }

        pub(super) fn merged(id: &str, version: u64) -> String {
            json!({"id": id, "version": version}).to_string()
        }

        pub(super) fn unchanged(id: &str, version: u64) -> String {
            json!({"id": id, "version": version, "changed": false}).to_string()
        }

        pub(super) fn changed(id: &str, version: u64, doc_json: &str) -> String {
            format!(
                "{{\"id\":{},\"version\":{version},\"changed\":true,\"document\":{doc_json}}}",
                json!(id)
            )
        }

        pub(super) fn under_replicated(id: &str, outcome: &ReplicationOutcome) -> String {
            json!({
                "error": format!(
                    "under-replicated: {}/{} replica confirmations",
                    outcome.confirmed, outcome.required
                ),
                "detail": outcome.errors.clone(),
                "id": id,
            })
            .to_string()
        }

        pub(super) fn created(id: &str) -> String {
            json!({ "id": id }).to_string()
        }
    }

    /// Ids as a client may send them, percent-decoded: empty, quoted,
    /// escaped, control bytes, non-ASCII.
    fn ids() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        ["", "doc-1", "a\"b", "back\\slash", &controls, "é\u{2028}😀"]
            .map(String::from)
            .to_vec()
    }

    fn names() -> Vec<QName> {
        ["x", "q\"t", "tab\there"]
            .iter()
            .flat_map(|local| ["ex", "ex2", "yprov4ml"].map(|p| QName::new(p, local)))
            .collect()
    }

    #[test]
    fn list_body_matches_its_tree() {
        let all = ids();
        for n in 0..=all.len() {
            assert_eq!(list_body(&all[..n]), reference::list(&all[..n]));
        }
    }

    #[test]
    fn deleted_created_and_merged_bodies_match_their_trees() {
        for id in ids() {
            assert_eq!(one_member("deleted", &id), reference::deleted(&id));
            assert_eq!(one_member("id", &id), reference::created(&id));
            for version in [0, 1, u64::MAX] {
                assert_eq!(merged_body(&id, version), reference::merged(&id, version));
            }
        }
    }

    #[test]
    fn stats_body_matches_its_tree() {
        for (nodes, edges) in [(0, 0), (3, 7), (724, 1439), (usize::MAX, 1)] {
            let s = DocumentStats {
                entities: nodes / 2,
                activities: nodes / 3,
                agents: 1,
                relations: edges,
                bundles: edges % 3,
                per_relation: Default::default(),
            };
            let gs = GraphIndexStats {
                nodes,
                edges,
                per_kind: RelationKind::all()
                    .iter()
                    .enumerate()
                    .map(|(i, kind)| (*kind, i * edges))
                    .collect(),
            };
            assert_eq!(stats_body(&s, &gs), reference::stats(&s, &gs));
        }
    }

    #[test]
    fn ancestors_body_matches_its_tree() {
        let all = names();
        for n in 0..=all.len() {
            assert_eq!(
                ancestors_body(&all[n % all.len()], &all[..n]),
                reference::ancestors(&all[n % all.len()], &all[..n])
            );
        }
    }

    #[test]
    fn watch_bodies_match_their_trees() {
        for id in ids() {
            for version in [0, 7, u64::MAX] {
                assert_eq!(
                    unchanged_body(&id, version),
                    reference::unchanged(&id, version)
                );
                let doc = r#"{"entity":{"ex:a":{}}}"#;
                assert_eq!(
                    changed_body(&id, version, doc),
                    reference::changed(&id, version, doc)
                );
            }
        }
    }

    #[test]
    fn under_replicated_body_matches_its_tree() {
        for id in ids() {
            for errors in [vec![], ids(), vec!["peer \"b\": timed out\n".to_string()]] {
                let outcome = ReplicationOutcome {
                    confirmed: 1,
                    required: 2,
                    errors,
                };
                assert_eq!(
                    under_replicated_body(&id, &outcome),
                    reference::under_replicated(&id, &outcome)
                );
            }
        }
    }
}
