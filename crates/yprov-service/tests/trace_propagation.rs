//! W3C trace-context propagation across the wire: the client stamps a
//! `traceparent` header derived from its open request span, the server
//! adopts it before opening the handler span, and both spans end up in
//! one trace — asserted on the real TCP path, not a mock.
//!
//! Lives in its own integration-test file so it owns the process-global
//! tracer without racing other tests.

use std::time::Duration;

use yprov_service::{Client, DocumentStore, RetryPolicy, Server, ServerConfig};

fn sample_doc_json() -> String {
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(prov_model::QName::new("ex", "data"));
    doc.to_json_string().unwrap()
}

#[test]
fn server_handler_span_shares_the_clients_trace_id() {
    obs::trace::set_enabled(true);
    obs::trace::drain();

    let server =
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap();
    let client = Client::new(
        server.addr(),
        RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 1,
        },
    );
    let resp = client.upload_document(&sample_doc_json()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    server.shutdown();

    let spans = obs::trace::drain();
    obs::trace::set_enabled(false);

    let request = spans
        .iter()
        .find(|s| s.name == "http_request")
        .expect("client records a request span");
    let handler = spans
        .iter()
        .find(|s| s.name == "handle_request")
        .expect("server records a handler span");
    assert_eq!(
        handler.trace_id, request.trace_id,
        "handler joined the client's trace"
    );
    assert_eq!(
        handler.parent, request.id,
        "handler span is parented to the request span"
    );
    assert_ne!(
        handler.track, request.track,
        "recorded on different threads"
    );
    assert!(handler
        .args
        .iter()
        .any(|(k, v)| k == "path" && v == "/api/v0/documents"));
}
