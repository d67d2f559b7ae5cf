//! Storage-engine integration: the same service workload must behave
//! identically over the in-memory and durable backends, and the durable
//! backend must survive a kill at any point of an upload.

use prov_model::{ProvDocument, QName};
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig, ServiceError};

fn q(local: &str) -> QName {
    QName::new("ex", local)
}

/// A small training pipeline: data → train → model → eval → report.
fn pipeline_doc() -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(q("data"));
    doc.activity(q("train"));
    doc.entity(q("model"));
    doc.activity(q("eval"));
    doc.entity(q("report"));
    doc.used(q("train"), q("data"));
    doc.was_generated_by(q("model"), q("train"));
    doc.used(q("eval"), q("model"));
    doc.was_generated_by(q("report"), q("eval"));
    doc
}

/// The workload both backends must serve identically: upload, lineage
/// queries through the index cache, replacement, deletion, ledger
/// history, typed not-found errors. Returns the first upload's id.
fn exercise(store: &DocumentStore) -> String {
    let id = store.upload(pipeline_doc()).unwrap();
    // POST names a document by the digest its ledger entry records.
    let digest = &store.ledger_entries()[0].document_digest;
    assert_eq!(id, format!("doc-{}", &digest[..32]));

    let anc = store.ancestors(&id, &q("report")).unwrap();
    for origin in ["eval", "model", "train", "data"] {
        assert!(anc.contains(&q(origin)), "missing {origin}");
    }
    let sub = store.subgraph(&id, &q("model")).unwrap();
    assert_eq!(sub.element_count(), 5);
    // Upload built the index; both queries hit the cache.
    assert_eq!(store.graph_cache_stats(), (2, 0));

    // Replacement under an explicit id keeps the ledger append-only.
    store.upload_as(&id, pipeline_doc()).unwrap();
    assert_eq!(store.ledger_entries().len(), 2);
    assert_eq!(store.len(), 1);

    // A different document gets a different id: no silent overwrite.
    let second = store.upload(ProvDocument::new()).unwrap();
    assert_ne!(second, id);
    assert_eq!(store.len(), 2);

    assert!(store.delete(&second).unwrap());
    assert!(matches!(
        store.ancestors(&second, &q("report")),
        Err(ServiceError::NotFound { .. })
    ));
    // Deletion keeps the chain: 3 uploads happened.
    assert_eq!(store.ledger_entries().len(), 3);
    id
}

#[test]
fn workload_over_memory_backend() {
    let store = DocumentStore::new();
    assert_eq!(store.backend_name(), "memory");
    exercise(&store);
}

#[test]
fn workload_over_durable_backend() {
    let dir = std::env::temp_dir().join(format!("yint_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = DocumentStore::persistent(&dir).unwrap();
    assert_eq!(store.backend_name(), "durable");
    let id = exercise(&store);
    drop(store);
    // Everything above survives a close-and-reopen, including the
    // replaced document and the post-delete ledger history.
    let reopened = DocumentStore::persistent(&dir).unwrap();
    assert_eq!(reopened.len(), 1);
    assert_eq!(reopened.ledger_entries().len(), 3);
    reopened.ancestors(&id, &q("report")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_backend_survives_kill_during_upload() {
    let dir = std::env::temp_dir().join(format!("yint_kill_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let store = DocumentStore::persistent(&dir).unwrap();
        store.upload(pipeline_doc()).unwrap();
        store.upload(ProvDocument::new()).unwrap();
    }

    // Kill point 1 — before the rename: only tmp debris exists, under
    // the content id the interrupted document would have had.
    let mut torn_doc = ProvDocument::new();
    torn_doc
        .namespaces_mut()
        .register("ex", "http://ex/")
        .unwrap();
    torn_doc.entity(q("torn"));
    let torn = DocumentStore::new().upload(torn_doc.clone()).unwrap();
    let tmp = dir.join(format!("{torn}.json.tmp"));
    std::fs::write(&tmp, b"{\"torn\":").unwrap();

    // Kill point 2 — after the rename, before the ledger append: a
    // fully written document with no ledger entry.
    let unledgered = pipeline_doc().to_json_string().unwrap();
    std::fs::write(dir.join("doc-4.json"), unledgered).unwrap();

    // Kill point 3 — mid ledger append: a torn, unterminated line.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("ledger.txt"))
            .unwrap();
        f.write_all(b"4 doc-5 deadbeef").unwrap();
    }

    let store = DocumentStore::persistent(&dir).expect("reopen after simulated kills");
    // The torn tmp never became visible; the unledgered document did
    // (its bytes are intact, only the commitment was lost).
    assert_eq!(store.len(), 3);
    assert!(store.get("doc-4").is_ok());
    assert!(!tmp.exists(), "debris swept");
    // The surviving two-entry chain verifies, and the interrupted
    // document uploads again under its id.
    assert_eq!(store.ledger_entries().len(), 2);
    assert_eq!(store.upload(torn_doc).unwrap(), torn);
    assert_eq!(store.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_name_the_rule_refuses_is_400_on_both_backends() {
    let base = std::env::temp_dir().join(format!("yint_names_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let body = pipeline_doc().to_json_string().unwrap();
    integration::for_each_store(&base, |store, _| {
        let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default()).unwrap();
        let (status, reply) = request(
            server.addr(),
            "PUT",
            "/api/v0/documents/my%20run",
            Some(&body),
        )
        .unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("not a valid document id"), "{reply}");
        server.shutdown();
        assert!(store.is_empty());
        assert!(store.ledger_entries().is_empty());
    });
    // Nothing reached the durable directory, so it reopens.
    let reopened = DocumentStore::persistent(base.join("durable").join("store")).unwrap();
    assert!(reopened.is_empty());
    reopened.verify_all().unwrap();
    std::fs::remove_dir_all(&base).ok();
}
