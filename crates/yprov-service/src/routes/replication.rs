//! The ledger and the replica side of replication.

use crate::http::{error_body, Request, ServerState};
use crate::ledger::LedgerEntry;
use json::json;

pub(super) fn ledger(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    let entries: Vec<json::Value> = state
        .store
        .ledger_entries()
        .iter()
        .map(LedgerEntry::to_json)
        .collect();
    (200, json!({"entries": entries}).to_string())
}

pub(super) fn verify(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    match state.store.verify_all() {
        Ok(()) => (200, json!({"ok": true}).to_string()),
        Err(e) => (
            500,
            json!({"ok": false, "error": e.to_string()}).to_string(),
        ),
    }
}

/// 200 with the new head, 409 + `expect_index` at the first refusal
/// (see [`crate::cluster::apply_batch`]).
pub(super) fn frames(state: &ServerState, req: &Request, _: &str) -> (u16, String) {
    crate::cluster::apply_batch(&state.store, &state.registry, &req.body)
}

pub(super) fn head(state: &ServerState, req: &Request, _: &str) -> (u16, String) {
    let Some(source) = req.param("source") else {
        return (400, error_body("missing ?source=<node-id>"));
    };
    let (next, head) = state.store.replication_head(source);
    (
        200,
        json!({"source": source, "next_index": next, "head_hash": head}).to_string(),
    )
}

pub(super) fn sources(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    let sources: Vec<json::Value> = state
        .store
        .replication_sources()
        .into_iter()
        .map(|(source, entries)| json!({"source": source, "entries": entries}))
        .collect();
    (200, json!({"sources": sources}).to_string())
}
