//! `/api/v0/documents…`: upload, fetch, delete, lineage, exports, live
//! deltas and the watch long-poll.

use crate::http::{error_body, error_response, Request, ServerState};
use crate::store::{Upload, WatchOutcome};
use prov_model::{ProvDocument, QName};
use serde_json::json;
use std::sync::atomic::Ordering;
use std::time::Duration;

pub(super) fn list(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, json!({"documents": state.store.list()}).to_string())
}

pub(super) fn upload(state: &ServerState, req: &Request, _: &str) -> (u16, String) {
    // Injected fault: pretend to be overloaded for the first
    // `chaos_fail_uploads` uploads (decrement-if-positive).
    if state
        .chaos
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
        .is_ok()
    {
        return (503, error_body("injected fault: upload unavailable"));
    }
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
        Ok(true) => (200, json!({"deleted": id}).to_string()),
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
    let s = shared.document().stats();
    let gs = shared.index().stats();
    let mut per_kind = serde_json::Map::new();
    for (kind, count) in &gs.per_kind {
        per_kind.insert(kind.json_key().to_string(), json!(count));
    }
    (
        200,
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
                "per_kind": serde_json::Value::Object(per_kind),
            },
        })
        .to_string(),
    )
}

pub(super) fn ancestors(state: &ServerState, req: &Request, id: &str) -> (u16, String) {
    let q = match focus(req) {
        Ok(q) => q,
        Err(refused) => return refused,
    };
    match state.store.ancestors(id, &q) {
        Ok(anc) => (
            200,
            json!({"focus": q.to_string(),
                   "ancestors": anc.iter().map(|a| a.to_string()).collect::<Vec<_>>()})
            .to_string(),
        ),
        Err(e) => error_response(&e),
    }
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
                (201, _) => (200, json!({"id": up.id, "version": version}).to_string()),
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
    // Long-poll: this blocks the worker thread, not the reactor. The
    // connection counts as in-flight the whole time, so the idle-reap
    // sweep leaves it alone while it is parked here.
    let timeout = Duration::from_millis(timeout_ms);
    match state.store.wait_for_newer(id, after, timeout) {
        WatchOutcome::Gone => not_found(id),
        WatchOutcome::Unchanged(version) => (
            200,
            json!({"id": id, "version": version, "changed": false}).to_string(),
        ),
        WatchOutcome::Changed(version) => match state.store.document_json(id) {
            // The stored canonical bytes embed verbatim — the watcher
            // receives exactly what a plain GET serves.
            Ok(doc_json) => (
                200,
                format!(
                    "{{\"id\":{},\"version\":{version},\"changed\":true,\"document\":{doc_json}}}",
                    json!(id)
                ),
            ),
            Err(e) => error_response(&e),
        },
    }
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
        Some(doc) => (200, render(&doc)),
        None => not_found(id),
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
/// client's retry replays idempotently under `PUT`, and duplicate
/// frame delivery is idempotent on the replicas).
fn acked_response(state: &ServerState, up: &Upload) -> (u16, String) {
    if let Some(r) = &state.replicator {
        let outcome = r.replicate(&state.store, up);
        if !outcome.acked() {
            return (
                503,
                json!({
                    "error": format!(
                        "under-replicated: {}/{} replica confirmations",
                        outcome.confirmed, outcome.required
                    ),
                    "detail": outcome.errors,
                    "id": up.id,
                })
                .to_string(),
            );
        }
    }
    (201, json!({"id": up.id}).to_string())
}
