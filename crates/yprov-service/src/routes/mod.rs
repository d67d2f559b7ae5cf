//! The route set, written down once.
//!
//! [`ROUTES`] has one row per route. A request is looked up once
//! ([`lookup`]); what serves it, the route label its metrics and
//! slowlog entries are filed under and the `Content-Type` of its 200
//! all come from the row it matched, so they cannot disagree. The route
//! table in [`crate::http`]'s module docs is held to this one by a
//! test.

mod documents;
mod obs;
mod query;
mod replication;

use crate::http::{error_body, percent_decode, Request, ServerState};

/// The `Content-Type` of every response that is not a row's 200.
pub(crate) const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";
const HTML: &str = "text/html; charset=utf-8";
const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Serves one matched request: the server's shared state, the request
/// and the percent-decoded `{id}` segment (empty when the pattern
/// captures none). Returns `(status, body)`.
type Handler = fn(&ServerState, &Request, &str) -> (u16, String);

pub(crate) struct Route {
    method: &'static str,
    /// `/`-separated literal segments; `{id}` captures any one segment.
    pattern: &'static str,
    /// What `route="…"` metric labels and slowlog rings say: the
    /// pattern, so requests aggregate per route rather than per id.
    pub(crate) label: &'static str,
    /// `Content-Type` of a 200; every other status carries [`JSON`].
    pub(crate) content_type: &'static str,
    pub(crate) handler: Handler,
}

const fn row(
    method: &'static str,
    pattern: &'static str,
    content_type: &'static str,
    handler: Handler,
) -> Route {
    Route {
        method,
        pattern,
        label: pattern,
        content_type,
        handler,
    }
}

#[rustfmt::skip] // one row per line
pub(crate) static ROUTES: [Route; 28] = [
    row("GET", "/healthz", JSON, obs::healthz),
    row("GET", "/metrics", PROMETHEUS, obs::metrics),
    // Both spellings of the explorer page count as one route.
    Route { label: "/explorer", ..row("GET", "/", HTML, obs::explorer) },
    row("GET", "/explorer", HTML, obs::explorer),
    row("GET", "/api/v0/documents", JSON, documents::list),
    row("POST", "/api/v0/documents", JSON, documents::upload),
    row("PUT", "/api/v0/documents/{id}", JSON, documents::put),
    row("GET", "/api/v0/documents/{id}", JSON, documents::get),
    row("DELETE", "/api/v0/documents/{id}", JSON, documents::delete),
    row("GET", "/api/v0/documents/{id}/stats", JSON, documents::stats),
    row("GET", "/api/v0/documents/{id}/ancestors", JSON, documents::ancestors),
    row("GET", "/api/v0/documents/{id}/subgraph", JSON, documents::subgraph),
    row("GET", "/api/v0/documents/{id}/provn", TEXT, documents::provn),
    row("GET", "/api/v0/documents/{id}/turtle", TEXT, documents::turtle),
    row("GET", "/api/v0/documents/{id}/dot", TEXT, documents::dot),
    row("POST", "/api/v0/documents/{id}/deltas", JSON, documents::merge_delta),
    row("GET", "/api/v0/documents/{id}/watch", JSON, documents::watch),
    row("POST", "/api/v0/documents/{id}/query", JSON, query::handle_query),
    row("GET", "/api/v0/ledger", JSON, replication::ledger),
    row("GET", "/api/v0/ledger/verify", JSON, replication::verify),
    row("POST", "/api/v0/replication/frames", JSON, replication::frames),
    row("GET", "/api/v0/replication/head", JSON, replication::head),
    row("GET", "/api/v0/replication/sources", JSON, replication::sources),
    row("GET", "/api/v0/obs/health", JSON, obs::health),
    row("GET", "/api/v0/obs/timeseries", JSON, obs::timeseries),
    row("GET", "/api/v0/obs/slowlog", JSON, obs::slowlog),
    row("GET", "/api/v0/obs/alerts", JSON, obs::alerts),
    row("GET", "/api/v0/obs/cluster", JSON, obs::cluster),
];

fn no_such_route(_: &ServerState, _: &Request, _: &str) -> (u16, String) {
    (404, error_body("no such route"))
}

/// Stands in for a row when a request matches none.
static UNMATCHED: Route = Route {
    label: "unmatched",
    ..row("", "", JSON, no_such_route)
};

/// The row serving `method` on `path`, with the `{id}` it captured.
pub(crate) fn lookup(method: &str, path: &str) -> (&'static Route, String) {
    // Path segments are percent-decoded individually so encoded
    // document ids round-trip; '/' produced by %2F stays inside its
    // segment and cannot change the route shape.
    let segments: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect();
    ROUTES
        .iter()
        .filter(|route| route.method == method)
        .find_map(|route| Some((route, capture(route.pattern, &segments)?.to_string())))
        .unwrap_or((&UNMATCHED, String::new()))
}

/// `Some(id)` when `segments` fit `pattern` (`""` when it has no `{id}`).
fn capture<'a>(pattern: &str, segments: &'a [String]) -> Option<&'a str> {
    let mut id = "";
    let mut want = pattern.split('/').filter(|s| !s.is_empty());
    let mut have = segments.iter();
    loop {
        match (want.next(), have.next()) {
            (None, None) => return Some(id),
            (Some("{id}"), Some(segment)) => id = segment,
            (Some(literal), Some(segment)) if literal == segment => {}
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Server, ServerConfig};
    use crate::store::DocumentStore;
    use std::io::{Read, Write};

    const DOC: &str = r#"{"prefix":{"ex":"http://ex/"},"entity":{"ex:model":{}}}"#;
    const NO_SUCH_ROUTE: &str = r#"{"error":"no such route"}"#;

    fn start() -> Server {
        Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap()
    }

    /// One request; `(status, Content-Type, body)` of the response.
    fn send(server: &Server, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let len = body.len();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        let content_type = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Type: "))
            .unwrap();
        (status, content_type.to_string(), body.to_string())
    }

    /// What to send a row — query string and body — and the status that
    /// answers it: 200 wherever a request can reach one.
    fn sample(route: &Route) -> (&'static str, &'static str, u16) {
        match (route.method, route.pattern.rsplit('/').next().unwrap()) {
            ("POST", "documents") | ("PUT", "{id}") => ("", DOC, 201),
            ("POST", "deltas") => ("", DOC, 200),
            ("POST", "query") => ("", r#"{"audit":"leakage"}"#, 200),
            ("POST", "frames") => ("", "", 400), // an empty batch
            (_, "ancestors" | "subgraph") => ("?focus=ex:model", "", 200),
            (_, "head") => ("?source=peer", "", 200),
            (_, "timeseries") => ("?metric=up", "", 200),
            _ => ("", "", 200),
        }
    }

    #[test]
    fn every_row_is_served_counted_and_typed_as_the_table_says() {
        let server = start();
        for route in &ROUTES {
            // `{id}` names a stored document, whatever earlier rows did.
            send(&server, "PUT", "/api/v0/documents/sample", DOC);
            let (query, body, expect) = sample(route);
            let path = route.pattern.replace("{id}", "sample") + query;
            let (status, content_type, response) = send(&server, route.method, &path, body);
            let row = format!("{} {}", route.method, route.pattern);
            assert_ne!(response, NO_SUCH_ROUTE, "{row}");
            assert_eq!(status, expect, "{row}: {response}");
            let typed = if status == 200 {
                route.content_type
            } else {
                JSON
            };
            assert_eq!(content_type, typed, "{row}");
            let counted = format!(
                "http_requests_total{{method=\"{}\",route=\"{}\",status=\"{status}\"}}",
                route.method, route.label
            );
            let (_, _, scrape) = send(&server, "GET", "/metrics", "");
            assert!(scrape.contains(&counted), "{row}: no {counted}");
        }
        server.shutdown();
    }

    #[test]
    fn no_two_rows_match_the_same_request_and_a_pattern_has_one_label() {
        for (i, a) in ROUTES.iter().enumerate() {
            for b in &ROUTES[i + 1..] {
                assert!(
                    (a.method, a.pattern) != (b.method, b.pattern),
                    "{} {} is listed twice",
                    a.method,
                    a.pattern
                );
                if a.pattern == b.pattern {
                    assert_eq!(a.label, b.label, "{}", a.pattern);
                }
            }
        }
    }

    #[test]
    fn the_module_doc_route_table_lists_exactly_the_rows() {
        let documented: Vec<(&str, &str)> = include_str!("../http.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | ")?.split_once(" | `"))
            .map(|(method, rest)| (method, rest.split_once('`').unwrap().0))
            .collect();
        let listed: Vec<(&str, &str)> = ROUTES.iter().map(|r| (r.method, r.pattern)).collect();
        assert_eq!(documented, listed);
    }

    #[test]
    fn a_document_named_like_an_export_is_still_served_as_json() {
        let server = start();
        for id in ["provn", "turtle", "dot"] {
            let path = format!("/api/v0/documents/{id}");
            assert_eq!(send(&server, "PUT", &path, DOC).0, 201);
            for method in ["GET", "DELETE"] {
                let (status, content_type, _) = send(&server, method, &path, "");
                assert_eq!(
                    (status, content_type.as_str()),
                    (200, JSON),
                    "{method} {path}"
                );
            }
        }
        send(&server, "PUT", "/api/v0/documents/x", DOC);
        let (status, content_type, _) = send(&server, "GET", "/api/v0/documents/x/provn", "");
        assert_eq!((status, content_type.as_str()), (200, TEXT));
        server.shutdown();
    }

    #[test]
    fn the_label_is_the_matched_rows_and_unmatched_otherwise() {
        let server = start();
        // A percent-encoded spelling is served by, and counted under,
        // the row it decodes to.
        assert_eq!(send(&server, "GET", "/%68ealthz", "").0, 200);
        // No row: an unknown path, and an unknown method on a known one.
        for (method, path) in [("GET", "/api/v0/nope"), ("DELETE", "/healthz")] {
            let (status, content_type, body) = send(&server, method, path, "");
            assert_eq!(
                (status, body.as_str()),
                (404, NO_SUCH_ROUTE),
                "{method} {path}"
            );
            assert_eq!(content_type, JSON);
        }
        let (_, _, scrape) = send(&server, "GET", "/metrics", "");
        for counted in [
            r#"http_requests_total{method="GET",route="/healthz",status="200"} 1"#,
            r#"http_requests_total{method="GET",route="unmatched",status="404"} 1"#,
            r#"http_requests_total{method="DELETE",route="unmatched",status="404"} 1"#,
        ] {
            assert!(scrape.contains(counted), "no {counted} in\n{scrape}");
        }
        server.shutdown();
    }
}
