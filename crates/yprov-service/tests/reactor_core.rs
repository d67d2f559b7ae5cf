//! The event loop's behaviors: keep-alive reuse, pipelined ordering,
//! adversarial clients (slowloris, half-close), graceful drain,
//! watermark shedding, and the `server_*` metrics.
//!
//! The 431/501/503 bodies and error strings are pinned byte for byte
//! by `http_robustness.rs`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

fn start(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", DocumentStore::new(), config).unwrap()
}

/// Connects with generous socket timeouts so a server bug fails the
/// test instead of hanging it.
fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Reads one `Content-Length`-framed response; returns
/// `(status, head, body)`. Panics on a closed or reset connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let start = head.len();
        let n = reader.read_line(&mut head).unwrap();
        assert!(n > 0, "connection closed mid-head; got {head:?}");
        if head[start..].trim_end().is_empty() {
            break;
        }
    }
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse::<usize>().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, head, String::from_utf8_lossy(&body).into_owned())
}

fn header(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        if n.eq_ignore_ascii_case(name) {
            Some(v.trim().to_string())
        } else {
            None
        }
    })
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start(ServerConfig::default());
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    for i in 0..5 {
        reader
            .get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}: {body}");
        assert_eq!(
            header(&head, "connection").as_deref(),
            Some("keep-alive"),
            "request {i} should keep the connection open: {head}"
        );
    }
    // Without the opt-in header the server answers and closes, which is
    // what a one-shot read-to-EOF client expects.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(header(&head, "connection").as_deref(), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes may follow the final response");
    server.shutdown();
}

#[test]
fn pipelined_burst_is_answered_in_order() {
    let server = start(ServerConfig::default());
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    // Three requests in a single write; responses must come back in
    // request order even though handlers run on a worker pool.
    reader
        .get_mut()
        .write_all(
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
              GET /api/v0/documents HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
              GET /metrics HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
        )
        .unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("ok"), "healthz first: {body}");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("documents"), "document list second: {body}");
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        header(&head, "content-type").is_some_and(|ct| ct.starts_with("text/plain")),
        "metrics third: {head}"
    );
    // The second and third requests were parsed from bytes already
    // buffered when the first response was queued, so the pipelining
    // counter must have moved.
    let pipelined = body
        .lines()
        .find_map(|l| l.strip_prefix("server_requests_pipelined_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(pipelined >= 1, "pipelined counter missing:\n{body}");
    server.shutdown();
}

#[test]
fn pipelined_burst_beyond_the_pipeline_cap_fully_drains() {
    // 100 requests in one write. The whole burst lands in the reactor's
    // first read, so the socket never turns readable again: each request
    // left in the buffer must be parsed once the response before it is
    // written, not stranded until the read timeout rejects it.
    let server = start(ServerConfig::default());
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    let burst: String = (0..100)
        .map(|_| "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .collect();
    reader.get_mut().write_all(burst.as_bytes()).unwrap();
    for i in 0..100 {
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}: {body}");
    }
    server.shutdown();
}

#[test]
fn parse_error_waits_its_turn_behind_pipelined_responses() {
    // A good request and a malformed one arrive in one burst. The 400
    // answers the *second* request, so it must come back second — a
    // pipelining client correlates responses strictly by order.
    let server = start(ServerConfig::default());
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
              BOGUS /nope\r\n\r\n",
        )
        .unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "the good request answers first: {body}");
    assert!(body.contains("ok"), "{body}");
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 400, "then the rejection: {body}");
    assert!(body.contains("missing version"), "{body}");
    assert_eq!(header(&head, "connection").as_deref(), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "nothing may follow the rejection: {rest:?}"
    );
    server.shutdown();
}

/// The value of an unlabelled series in a `/metrics` exposition.
fn series_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{metrics}"))
}

#[test]
fn a_pipelining_peer_that_reads_nothing_holds_one_response() {
    // Client A sends 64 keep-alive GETs of a ~1.5 MB document in one
    // write and never reads. Were every response queued, A alone would
    // hold more than the 64 MiB queued-bytes watermark and every other
    // client would be shed with 503 until A's write timeout. A's next
    // request is parsed only once its previous response is written, so
    // A holds one response and client B is served.
    let store = DocumentStore::new();
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    let blob = "x".repeat(16 * 1024);
    for i in 0..96 {
        doc.entity(prov_model::QName::new("ex", format!("e{i}")))
            .attr(
                prov_model::QName::new("ex", "blob"),
                prov_model::AttrValue::from(blob.as_str()),
            );
    }
    let id = store.upload(doc).unwrap();
    let response = store.document_json(&id).unwrap().len() as u64;
    assert!(64 * response > 64 << 20, "{response} bytes is too small");
    let server = Server::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();

    let mut a = connect(&server);
    let burst: String = (0..64)
        .map(|_| format!("GET /api/v0/documents/{id} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"))
        .collect();
    a.write_all(burst.as_bytes()).unwrap();

    // Settled once two scrapes in a row see the same bytes queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(8);
    let mut last = None;
    let (queued, metrics) = loop {
        std::thread::sleep(Duration::from_millis(200));
        let (status, metrics) = request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200, "B shed because A does not read: {metrics}");
        let queued = series_value(&metrics, "server_queued_bytes");
        if queued > 0 && last == Some(queued) {
            break (queued, metrics);
        }
        last = Some(queued);
        assert!(
            std::time::Instant::now() < deadline,
            "queued bytes never settled:\n{metrics}"
        );
    };
    assert!(
        queued < response + 64 * 1024,
        "{queued} bytes queued for a peer that reads nothing; one response is {response}"
    );
    assert!(
        !metrics.contains("server_shed_total{reason=\"queued_bytes\"}"),
        "{metrics}"
    );
    drop(a);
    server.shutdown();
}

#[test]
fn a_request_sent_while_another_is_with_a_worker_waits_its_turn() {
    // The second request arrives while the first, a long-poll watch, is
    // parked with a worker: its bytes wait unread in the socket, and it
    // is answered after the watch.
    let store = DocumentStore::new();
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(prov_model::QName::new("ex", "data"));
    let id = store.upload(doc).unwrap();
    let server = Server::bind("127.0.0.1:0", store, ServerConfig::default()).unwrap();

    let mut reader = BufReader::new(connect(&server));
    reader
        .get_mut()
        .write_all(
            format!(
                "GET /api/v0/documents/{id}/watch?after=1&timeout_ms=500 HTTP/1.1\r\n\
                 Connection: keep-alive\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the watch park
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"changed\":false"),
        "the watch first: {body}"
    );
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("ok"), "then the health check: {body}");
    server.shutdown();
}

#[test]
fn slowloris_times_out_without_pinning_the_worker() {
    let server = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    // A peer that sends a request head one fragment at a time and then
    // stalls forever.
    let mut slow = connect(&server);
    slow.write_all(b"GET /slow HTTP/1.1\r\nX-Dribble: 1\r\n")
        .unwrap();
    // The single worker must keep serving other clients meanwhile.
    for _ in 0..5 {
        let (status, body) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "worker pinned by slowloris: {body}");
    }
    // The stalled connection is rejected once the read timeout lapses.
    let mut answer = String::new();
    slow.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("timed out"), "{answer}");
    server.shutdown();
}

#[test]
fn half_close_mid_body_is_rejected_as_short_body() {
    let server = start(ServerConfig::default());
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /api/v0/documents HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tru")
        .unwrap();
    // FIN our write side: the server sees EOF with 95 body bytes
    // outstanding and must answer (the response direction is open).
    stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("short body"), "{answer}");
    server.shutdown();
}

#[test]
fn graceful_stop_drains_a_mid_flight_response_without_reset() {
    // A document big enough that its response cannot hide in socket
    // buffers: the drain has to keep streaming it after stop().
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    for i in 0..20_000 {
        doc.entity(prov_model::QName::new("ex", format!("entity-{i:05}")));
    }
    let server = start(ServerConfig::default());
    let (status, upload) = request(
        server.addr(),
        "POST",
        "/api/v0/documents",
        Some(&doc.to_json_string().unwrap()),
    )
    .unwrap();
    assert_eq!(status, 201, "{upload}");
    let id: json::Value = json::parse(&upload).unwrap();
    let id = id["id"].as_str().unwrap().to_string();

    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(
            format!("GET /api/v0/documents/{id} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    // Let the reactor parse and dispatch the request, then stop the
    // server while the (unread) response is still in flight.
    std::thread::sleep(Duration::from_millis(300));
    let stopper = std::thread::spawn(move || server.shutdown());
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        body.contains("entity-19999"),
        "response truncated by shutdown: {} bytes",
        body.len()
    );
    // A clean FIN, not an RST: further reads see EOF, not an error.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    stopper.join().unwrap();
}

#[test]
fn connection_watermark_sheds_with_503_and_counts_it() {
    let server = start(ServerConfig {
        workers: 1,
        queue_depth: 0, // admission watermark: exactly one connection
        ..ServerConfig::default()
    });
    let parked = connect(&server);
    std::thread::sleep(Duration::from_millis(100)); // let the accept land
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&head, "retry-after").as_deref(), Some("1"));
    assert_eq!(header(&head, "connection").as_deref(), Some("close"));
    assert!(body.contains("overloaded"), "{body}");
    drop(parked);
    std::thread::sleep(Duration::from_millis(200)); // let the close land
    let (status, metrics) = request(server.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for needle in [
        "# HELP server_connections_open ",
        "# HELP server_connections_accepted_total ",
        "# HELP server_requests_pipelined_total ",
        "# HELP server_shed_total ",
        "server_shed_total{reason=\"connections\"} 1",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    server.shutdown();
}

#[test]
fn shed_at_accept_answers_503_to_a_client_that_wrote_first() {
    // The client sends its whole request before it reads, as every HTTP
    // client does. Whether those bytes reach the server before or after
    // it sheds the connection, the client must read the 503: a server
    // that closes while they sit unread, or before they arrive, answers
    // them with a reset.
    let server = start(ServerConfig {
        workers: 1,
        queue_depth: 0, // admission watermark: exactly one connection
        ..ServerConfig::default()
    });
    let parked = connect(&server);
    let mut parked_reader = BufReader::new(parked.try_clone().unwrap());
    let mut on_parked = |path: &str| {
        (&parked)
            .write_all(format!("GET {path} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").as_bytes())
            .unwrap();
        read_response(&mut parked_reader)
    };
    assert_eq!(on_parked("/healthz").0, 200); // the accept has landed

    let body = vec![b'x'; 64 * 1024];
    let mut stream = connect(&server);
    stream
        .write_all(
            format!(
                "PUT /api/v0/documents/d HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    stream.write_all(&body).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&head, "retry-after").as_deref(), Some("1"));
    // Then a clean end of stream: the server shut its write half.
    assert_eq!(reader.read_to_end(&mut Vec::new()).unwrap(), 0);
    drop(reader);

    // The client's close ends the linger and frees the slot.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, metrics) = on_parked("/metrics");
        if metrics.contains("\nserver_connections_open 1\n") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shed connection still open:\n{metrics}"
        );
    }
    server.shutdown();
}

#[test]
fn reactor_loop_metrics_surface_in_the_scrape() {
    let server = start(ServerConfig::default());
    // A few served requests guarantee a queue-depth level was recorded.
    for _ in 0..3 {
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    }
    let (status, metrics) = request(server.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for needle in [
        "# HELP server_queued_jobs ",
        "# TYPE server_queued_jobs gauge",
        "# HELP server_queued_bytes ",
        "# TYPE server_queued_bytes gauge",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    // Nothing is in flight at scrape time, so the gauge reads a level
    // (zero), not garbage.
    assert!(
        metrics.contains("server_queued_jobs 0") || metrics.contains("server_queued_jobs 1"),
        "queued-jobs gauge missing or implausible:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_reaped() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    // Served once, then silent: the server closes without a response
    // (reading just sees EOF) once the idle timeout lapses.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle reap must be silent: {rest:?}");
    server.shutdown();
}

#[test]
fn parked_watch_outlives_the_idle_reaper() {
    // A long-poll watch parks far longer than the idle timeout. The
    // sweep must not reap it while parked (it is in flight, not idle),
    // and after the response lands the idle clock must restart — a
    // regression guard for the sweep judging quiet time from the last
    // *read* instead of the last activity.
    let store = DocumentStore::new();
    let server = Server::bind(
        "127.0.0.1:0",
        store,
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.entity(prov_model::QName::new("ex", "data"));
    let (status, upload) = request(
        server.addr(),
        "POST",
        "/api/v0/documents",
        Some(&doc.to_json_string().unwrap()),
    )
    .unwrap();
    assert_eq!(status, 201, "{upload}");
    let id: json::Value = json::parse(&upload).unwrap();
    let id = id["id"].as_str().unwrap().to_string();

    let stream = connect(&server);
    let mut reader = BufReader::new(stream);
    // Serve once so the connection is reap-eligible, then park a watch
    // for up to 2 s — ten times the idle timeout.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    reader
        .get_mut()
        .write_all(
            format!(
                "GET /api/v0/documents/{id}/watch?after=1&timeout_ms=2000 HTTP/1.1\r\n\
                 Connection: keep-alive\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();

    // Stay parked well past the idle timeout, then merge a delta.
    std::thread::sleep(Duration::from_millis(600));
    let mut delta = prov_model::ProvDocument::new();
    delta.namespaces_mut().register("ex", "http://ex/").unwrap();
    delta.entity(prov_model::QName::new("ex", "extra"));
    let (status, merged) = request(
        server.addr(),
        "POST",
        &format!("/api/v0/documents/{id}/deltas"),
        Some(&delta.to_json_string().unwrap()),
    )
    .unwrap();
    assert_eq!(status, 200, "{merged}");

    // The parked watch gets its event instead of a silent reap.
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"changed\":true"), "{body}");
    assert!(body.contains("\"version\":2"), "{body}");

    // The idle clock restarted at the response: after a pause shorter
    // than the timeout (but long enough for a sweep tick), the
    // connection still serves.
    std::thread::sleep(Duration::from_millis(120));
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200, "connection reaped despite fresh activity");
    server.shutdown();
}

#[test]
fn two_workers_serve_two_slow_requests_at_once() {
    // Two long-poll watches on a two-worker server, released from this
    // thread through the store: each can only answer `changed` if its
    // handler was running while the other's was still parked. A job
    // queue that serialised handlers would leave the second watch
    // queued until the first timed out, and one of them would answer
    // `changed:false`.
    let store = DocumentStore::new();
    let doc = |name: &str| {
        let mut doc = prov_model::ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(prov_model::QName::new("ex", name));
        doc
    };
    let first = store.upload(doc("first")).unwrap();
    let second = store.upload(doc("second")).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        store.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let watch = |id: &str| {
        let mut reader = BufReader::new(connect(&server));
        let path = format!("/api/v0/documents/{id}/watch?after=1&timeout_ms=3000");
        reader
            .get_mut()
            .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        reader
    };
    let mut on_first = watch(&first);
    let mut on_second = watch(&second);

    // The later arrival is released first.
    for (id, reader) in [(&second, &mut on_second), (&first, &mut on_first)] {
        store.merge_delta(id, &doc("extra")).unwrap();
        let (status, _, body) = read_response(reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"changed\":true"), "{body}");
    }
    server.shutdown();
}

#[test]
fn a_peer_that_stops_reading_is_closed_after_the_write_timeout() {
    // One admission slot, held by a peer that asks for a ~32 MB
    // document and never reads it. Once the response fills both socket
    // buffers the server's write makes no progress; after
    // `write_timeout` the connection is closed and the slot is free.
    let store = DocumentStore::new();
    let mut doc = prov_model::ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    let blob = "x".repeat(16 * 1024);
    for i in 0..2_048 {
        doc.entity(prov_model::QName::new("ex", format!("e{i}")))
            .attr(
                prov_model::QName::new("ex", "blob"),
                prov_model::AttrValue::from(blob.as_str()),
            );
    }
    let id = store.upload(doc).unwrap();
    let response = store.document_json(&id).unwrap().len();
    assert!(response > 32 << 20, "{response} bytes is too small");
    let server = Server::bind(
        "127.0.0.1:0",
        store,
        ServerConfig {
            workers: 1,
            queue_depth: 0,
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stalled = connect(&server);
    stalled
        .write_all(
            format!("GET /api/v0/documents/{id} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();

    // The slot frees once the write times out; until then a new client
    // is shed at accept.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (status, body) = request(server.addr(), "GET", "/healthz", None).unwrap();
        if status == 200 {
            break;
        }
        assert_eq!(status, 503, "{body}");
        assert!(
            std::time::Instant::now() < deadline,
            "the stalled peer still holds the only slot"
        );
    }

    // The stalled peer gets what the socket buffers held, never the
    // whole response.
    let mut got = 0usize;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => got += n,
        }
    }
    assert!(got < response, "read {got} of {response} bytes");
    server.shutdown();
}

#[test]
fn shutdown_closes_an_idle_keep_alive_connection_with_a_fin() {
    let server = start(ServerConfig::default());
    let mut reader = BufReader::new(connect(&server));
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    let started = std::time::Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    // End of stream, not a reset.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "{rest:?}");
}
