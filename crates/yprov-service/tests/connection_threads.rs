//! Connection threads are reused: the tracer keeps one span ring per
//! thread that records a span, so a thread per connection would grow
//! that registry with every connection while tracing is on.
//!
//! Lives in its own integration-test file so it owns the process-global
//! tracer: `trace_propagation.rs` drains it and takes the first
//! `handle_request` span it finds.

use std::collections::BTreeSet;
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

#[test]
fn sequential_connections_record_on_at_most_two_connection_threads() {
    obs::trace::set_enabled(true);
    obs::trace::drain();
    let server = Server::bind(
        "127.0.0.1:0",
        DocumentStore::new(),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    for i in 0..200 {
        let (status, body) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "request {i}: {body}");
    }
    server.shutdown();
    let spans = obs::trace::drain();
    obs::trace::set_enabled(false);

    let handled: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "handle_request")
        .collect();
    assert_eq!(handled.len(), 200);
    let tracks: BTreeSet<&str> = handled.iter().map(|s| s.track.as_str()).collect();
    assert!(
        tracks.iter().all(|t| t.starts_with("yprov-conn-")),
        "{tracks:?}"
    );
    // One admitted connection at a time, but the next may be accepted
    // before the thread that served the last is free again.
    assert!(tracks.len() <= 2, "{} tracks: {tracks:?}", tracks.len());
}
