//! The query route's answers, byte for byte: every scenario (path,
//! leakage, gdpr, fairness, join) over one document and over a joined
//! view, with and without `"render": "dot"`, plus the refusals, the
//! unknown documents and the `/metrics` lines the mix leaves behind.
//! `fixtures/query_bytes.txt` holds one `name status body` line per
//! request, then the scraped counter lines; [`write_the_fixture`]
//! (ignored) rewrites it: run it only on the commit you mean to pin.

use prov_model::{AttrValue, ProvDocument, QName};
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

const FIXTURE: &str = "tests/fixtures/query_bytes.txt";

fn q(local: &str) -> QName {
    QName::new("ex", local)
}

fn namespaces(doc: &mut ProvDocument) {
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .unwrap();
}

/// A training run that leaks: features derived from the test split
/// feed training. Groups and digests ride on the artifacts.
fn run_doc() -> ProvDocument {
    let mut doc = ProvDocument::new();
    namespaces(&mut doc);
    let group = |g: &str| AttrValue::from(g);
    doc.entity(q("raw")).attr(QName::yprov("group"), group("a"));
    doc.entity(q("train_split"))
        .attr(QName::yprov("split"), AttrValue::from("train"))
        .attr(QName::yprov("group"), group("a"))
        .attr(QName::yprov("sha256"), AttrValue::from("d1"));
    doc.entity(q("test_split"))
        .attr(QName::yprov("split"), AttrValue::from("test"))
        .attr(QName::yprov("group"), group("b \"é\""));
    doc.entity(q("features"))
        .attr(QName::yprov("sha256"), AttrValue::from("d2"));
    doc.activity(q("training_run"))
        .prov_type(QName::yprov("Training"));
    doc.entity(q("model"))
        .attr(QName::yprov("sha256"), AttrValue::from("d3"));
    doc.was_derived_from(q("train_split"), q("raw"));
    doc.was_derived_from(q("test_split"), q("raw"));
    doc.was_derived_from(q("features"), q("test_split"));
    doc.used(q("training_run"), q("train_split"));
    doc.used(q("training_run"), q("features"));
    doc.was_generated_by(q("model"), q("training_run"));
    doc
}

/// A second run that fine-tunes the first one's model on an evaluation
/// set carrying the training split's digest: joined with [`run_doc`]
/// it adds a leak, a group and a shared digest.
fn other_doc() -> ProvDocument {
    let mut doc = ProvDocument::new();
    namespaces(&mut doc);
    doc.entity(q("eval_test"))
        .attr(QName::yprov("group"), AttrValue::from("c"))
        .attr(QName::yprov("sha256"), AttrValue::from("d1"));
    doc.activity(q("finetune_train"));
    doc.entity(q("tuned"));
    doc.used(q("finetune_train"), q("model"));
    doc.used(q("finetune_train"), q("eval_test"));
    doc.was_generated_by(q("tuned"), q("finetune_train"));
    doc
}

fn upload(server: &Server, doc: &ProvDocument) -> String {
    let body = doc.to_json_string().unwrap();
    let (status, resp) = request(server.addr(), "POST", "/api/v0/documents", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let v = json::parse(&resp).unwrap(); // reads JSON
    v["id"].as_str().unwrap().to_string()
}

/// Scenario bodies, each without its `"docs"` and `"render"` keys.
const SCENARIOS: [(&str, &str); 9] = [
    (
        "path",
        r#""query": {"start": {"id": "ex:model"}, "steps": [{"dir": "forward", "repeat": "+", "target": {"kind": "entity"}}]}"#,
    ),
    (
        "path-reversed",
        r#""query": {"start": {"kind": "entity"}, "steps": [{"dir": "backward", "repeat": "*", "target": {"id": "ex:training_run"}}], "limit": 2}"#,
    ),
    ("leakage", r#""audit": "leakage""#),
    (
        "leakage-filters",
        r#""audit": "leakage", "test": {"idContains": "test"}, "training": {"kind": "activity"}"#,
    ),
    (
        "gdpr",
        r#""audit": "gdpr", "sample": "ex:raw", "model": "ex:tuned""#,
    ),
    (
        "gdpr-absent",
        r#""audit": "gdpr", "sample": "ex:model", "model": "ex:raw""#,
    ),
    ("fairness", r#""audit": "fairness", "model": "ex:tuned""#),
    (
        "fairness-key",
        r#""audit": "fairness", "model": "ex:model", "group_key": "yprov4ml:split""#,
    ),
    ("join", r#""audit": "join""#),
];

/// Runs the fixed request mix against a fresh server and prints one
/// line per answer, then the query counters `/metrics` shows.
fn transcript() -> String {
    let server =
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
    let run = upload(&server, &run_doc());
    let other = upload(&server, &other_doc());
    let mut out = String::new();
    let mut post = |name: &str, id: &str, body: &str| {
        let path = format!("/api/v0/documents/{id}/query");
        let (status, resp) = request(server.addr(), "POST", &path, Some(body)).unwrap();
        out.push_str(&format!("{name} {status} {resp}\n"));
    };

    for (name, body) in SCENARIOS {
        let joins = [
            ("", String::new()),
            ("+other", format!(r#", "docs": ["{other}"]"#)),
        ];
        for (suffix, docs) in &joins {
            post(
                &format!("{name}{suffix}"),
                &run,
                &format!("{{{body}{docs}}}"),
            );
            if !name.starts_with("join") {
                post(
                    &format!("{name}{suffix}+dot"),
                    &run,
                    &format!(r#"{{{body}{docs}, "render": "dot"}}"#),
                );
            }
        }
    }
    for (name, id, body) in [
        (
            "path-ghost",
            "ghost",
            r#"{"query": {"start": {}, "steps": []}}"#,
        ),
        (
            "join-ghost",
            run.as_str(),
            r#"{"audit": "join", "docs": ["ghost"]}"#,
        ),
        (
            "bad-filter",
            run.as_str(),
            r#"{"audit": "leakage", "test": {"knid": 1}}"#,
        ),
        (
            "bad-gdpr",
            run.as_str(),
            r#"{"audit": "gdpr", "sample": "ex:raw"}"#,
        ),
        ("bad-audit", run.as_str(), r#"{"audit": "lekage"}"#),
        (
            "bad-key",
            run.as_str(),
            r#"{"audit": "join", "digestKey": "ex:k"}"#,
        ),
    ] {
        post(name, id, body);
    }

    let (status, scrape) = request(server.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for line in scrape.lines() {
        if line.starts_with("query_requests_total")
            || line.starts_with("query_plan_seconds_count")
            || line.starts_with("query_exec_seconds_count")
        {
            out.push_str(line);
            out.push('\n');
        }
    }
    server.shutdown();
    out
}

#[test]
fn query_answers_match_the_fixture() {
    let want = std::fs::read_to_string(FIXTURE).unwrap();
    let got = transcript();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {FIXTURE}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{got}");
}

#[test]
#[ignore = "rewrites the fixture; run only on the commit to pin"]
fn write_the_fixture() {
    std::fs::write(FIXTURE, transcript()).unwrap();
}
