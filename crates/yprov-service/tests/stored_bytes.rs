//! What the store writes is pinned to what it wrote before the codec
//! was replaced (SHA-NI digests, the direct PROV-JSON reader, one
//! streaming writer): `fixtures/parent_store/` is a data directory
//! written by [`build`] running on the commit before that change. The
//! bytes of every document, every digest and every ledger line must
//! come out the same, and the directory must reopen verified. When
//! the `fixed_run` fixture itself moves, `fixed-run.json`, `ledger.txt`
//! and the two constants below are rebuilt by the commit before that
//! move, whose store still wrote these bytes.

use std::path::{Path, PathBuf};

use prov_model::{AttrValue, ProvDocument, QName, XsdDateTime};
use yprov_service::{DocumentStore, DurableBackend, MemoryBackend, ReplicationApply};

const FIXED_RUN: &str = include_str!("../../yprov4ml/tests/fixtures/fixed_run/prov.json");

fn q(local: &str) -> QName {
    QName::new("ex", local)
}

/// A run after `epochs` epochs: every value form the writer has, an
/// escaped inline series, relations in an order that is not canonical.
fn run_after(epochs: usize) -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .unwrap();
    doc.agent(q("user")).prov_type(QName::prov("Person"));
    doc.activity(q("run"))
        .prov_type(QName::yprov("RunExecution"))
        .start_time(XsdDateTime::new(1_700_000_000, 250))
        .attr(
            q("note"),
            AttrValue::from("a \"quoted\" \\ λ 😀 \u{1} tab\t"),
        )
        .attr(
            q("title"),
            AttrValue::LangString("corsa".into(), "it".into()),
        )
        .attr(QName::yprov("epochs"), AttrValue::Int(epochs as i64));
    doc.was_associated_with(q("run"), q("user"))
        .extras
        .insert("prov:plan".into(), q("plan"));
    for e in (0..epochs).rev() {
        let metric = q(&format!("epoch_{e}/loss"));
        let series = format!(
            r#"{{"name":"loss","steps":[{e},{}],"values":[0.5,1e-7]}}"#,
            e + 1
        );
        doc.entity(metric.clone())
            .prov_type(QName::yprov("Metric"))
            .attr(QName::yprov("samples"), AttrValue::Int(2 * epochs as i64))
            .attr(
                QName::yprov("last"),
                AttrValue::Double(1.0 / (e + 3) as f64),
            )
            .attr(QName::yprov("worst"), AttrValue::Double(f64::NAN))
            .attr(QName::yprov("best"), AttrValue::Double(f64::NEG_INFINITY))
            .attr(QName::yprov("values"), AttrValue::String(series))
            .attr(
                QName::yprov("shape"),
                AttrValue::Typed("3x224".into(), q("shape")),
            );
        let generated = doc.was_generated_by(metric.clone(), q("run"));
        generated.time = Some(XsdDateTime::new(1_700_000_000 + e as i64, 0));
        if e.is_multiple_of(2) {
            generated.id = Some(q(&format!("gen_{e}")));
            generated.add_attr(QName::prov("role"), AttrValue::from("metric"));
        }
        doc.was_derived_from(q("model"), metric);
    }
    doc.entity(q("model"));
    let bundle = doc.bundle(q("meta"));
    bundle.entity(q("inner"));
    bundle.activity(q("inner-act"));
    bundle.used(q("inner-act"), q("inner"));
    doc
}

/// Fills `dir` with three documents through every write path a store
/// has: a full upload (`fixed-run`), an upload grown by two delta
/// merges (`stream`, three ledger entries) and a replicated apply
/// (`replicated`, behind a chain-only entry, on `repl-node-a.chain`).
fn build(dir: &Path) {
    let store = DocumentStore::with_backend(DurableBackend::open(dir).unwrap()).unwrap();
    let fixed = ProvDocument::from_json_str(FIXED_RUN).unwrap();
    store.upload_as_full("fixed-run", fixed).unwrap();
    store.upload_as_full("stream", run_after(1)).unwrap();
    store.merge_delta("stream", &run_after(3)).unwrap();
    store.merge_delta("stream", &run_after(6)).unwrap();

    let node_a = DocumentStore::with_backend(MemoryBackend::new()).unwrap();
    let elsewhere = node_a.upload_as_full("elsewhere", run_after(2)).unwrap();
    let replicated = node_a.upload_as_full("replicated", run_after(4)).unwrap();
    assert_eq!(
        store
            .apply_replicated("node-a", elsewhere.entry, None)
            .unwrap(),
        ReplicationApply::ChainOnly
    );
    assert_eq!(
        store
            .apply_replicated("node-a", replicated.entry, Some(&replicated.canonical_json))
            .unwrap(),
        ReplicationApply::Applied
    );
    store.flush().unwrap();
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store")
}

/// `(file name, bytes)` of everything in `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().into_string().unwrap(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("yprov-stored-bytes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn the_same_operations_write_the_directory_the_parent_wrote() {
    let dir = scratch("rebuild");
    build(&dir);
    let (ours, parents) = (files(&dir), files(&fixture()));
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&ours), names(&parents));
    assert_eq!(
        names(&ours),
        [
            "fixed-run.json",
            "ledger.txt",
            "repl-node-a.chain",
            "replicated.json",
            "stream.json"
        ]
    );
    for ((name, ours), (_, parents)) in ours.iter().zip(&parents) {
        assert!(ours == parents, "{name} differs from the parent's bytes");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_the_parent_wrote_reopens_verified_and_serves_its_bytes() {
    // A copy: opening a directory may sweep and truncate in it.
    let dir = scratch("reopen");
    for (name, bytes) in files(&fixture()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let store = DocumentStore::with_backend(DurableBackend::open(&dir).unwrap()).unwrap();
    store.verify_all().unwrap();
    for id in ["fixed-run", "replicated", "stream"] {
        let stored = std::fs::read_to_string(fixture().join(format!("{id}.json"))).unwrap();
        assert_eq!(store.document_json(id).unwrap(), stored, "{id}");
        // What was read from those bytes prints back as those bytes.
        let held = store.get(id).unwrap();
        assert_eq!(held.to_json_string().unwrap(), stored, "{id}");
    }
    let ledger: String = store
        .ledger_entries()
        .iter()
        .map(|entry| entry.to_line())
        .collect();
    assert_eq!(
        ledger,
        std::fs::read_to_string(fixture().join("ledger.txt")).unwrap()
    );
    assert_eq!(store.ledger_entries().len(), 4);
    assert_eq!(store.replication_head("node-a").0, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uploading_the_fixed_run_commits_to_the_digest_the_parent_computed() {
    let store = DocumentStore::new();
    let doc = ProvDocument::from_json_str(FIXED_RUN).unwrap();
    let upload = store.upload_as_full("fixed-run", doc).unwrap();
    assert_eq!(upload.entry.document_digest, PARENT_DIGEST);
    assert_eq!(upload.entry.to_line(), PARENT_LEDGER_LINE);
}

/// Printed by the parent commit's `DocumentStore` for the upload above.
const PARENT_DIGEST: &str = "4a2d987a89e8a118bd23dd2ea628f3b7fd2105d1bd8499456b7bbd422919cc45";
const PARENT_LEDGER_LINE: &str = "0 fixed-run 4a2d987a89e8a118bd23dd2ea628f3b7fd2105d1bd8499456b7bbd422919cc45 0000000000000000000000000000000000000000000000000000000000000000 c743acc9a95da191fc1c15d15ac48333b287c1a93a2b38e7ea5604e52ed7fb84\n";
