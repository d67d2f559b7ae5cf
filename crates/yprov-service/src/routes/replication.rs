//! The ledger and the replica side of replication.

use crate::http::{error_body, Request, ServerState};
use crate::ledger::LedgerEntry;
use crate::ops::{write_check, write_sources};

pub(super) fn ledger(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, ledger_body(&state.store.ledger_entries()))
}

fn ledger_body(entries: &[LedgerEntry]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("entries");
            w.array(|w| entries.iter().for_each(|e| e.write_json(w)));
        })
    })
}

pub(super) fn verify(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    let verified = state.store.verify_all();
    let status = if verified.is_ok() { 200 } else { 500 };
    (status, json::to_string(|w| write_check(w, &verified)))
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
    (200, crate::cluster::head_body(source, next, &head))
}

pub(super) fn sources(state: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (200, sources_body(&state.store.replication_sources()))
}

fn sources_body(sources: &[(String, u64)]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("sources");
            write_sources(w, sources);
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServiceError;
    use crate::ledger::Ledger;
    use json::json;

    /// The `json!` trees these bodies were printed from: the reference
    /// each body is held to.
    mod reference {
        use super::*;

        pub(super) fn ledger(entries: &[LedgerEntry]) -> String {
            let entries: Vec<json::Value> = entries
                .iter()
                .map(crate::ledger::tests::entry_tree)
                .collect();
            json!({"entries": entries}).to_string()
        }

        pub(super) fn verify(verified: &Result<(), ServiceError>) -> String {
            match verified {
                Ok(()) => json!({"ok": true}).to_string(),
                Err(e) => json!({"ok": false, "error": e.to_string()}).to_string(),
            }
        }

        pub(super) fn sources(sources: &[(String, u64)]) -> String {
            let sources: Vec<json::Value> = sources
                .iter()
                .map(|(source, entries)| json!({"source": source, "entries": *entries}))
                .collect();
            json!({"sources": sources}).to_string()
        }
    }

    /// Strings as a body may carry them: empty, quoted, escaped,
    /// control bytes, non-ASCII.
    fn texts() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        [
            "",
            "node-a",
            "a\"b",
            "back\\slash",
            &controls,
            "é\u{2028}😀",
        ]
        .map(String::from)
        .to_vec()
    }

    #[test]
    fn ledger_verify_and_sources_bodies_match_their_trees() {
        let mut ledger = Ledger::new();
        for text in texts() {
            ledger.append(&text, text.as_bytes());
        }
        let entries = ledger.entries();
        for n in 0..=entries.len() {
            assert_eq!(ledger_body(&entries[..n]), reference::ledger(&entries[..n]));
        }
        let sources: Vec<(String, u64)> =
            texts().into_iter().zip([0, 1, 2, u64::MAX, 7, 3]).collect();
        for n in 0..=sources.len() {
            assert_eq!(
                sources_body(&sources[..n]),
                reference::sources(&sources[..n])
            );
        }
        let mut verdicts = vec![Ok(())];
        for reason in texts() {
            verdicts.push(Err(ServiceError::Conflict { reason }));
        }
        for verified in &verdicts {
            let body = json::to_string(|w| write_check(w, verified));
            assert_eq!(body, reference::verify(verified));
        }
    }
}
