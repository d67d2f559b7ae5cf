//! Robustness of the hand-rolled HTTP server: malformed requests,
//! garbage bytes and abrupt disconnects must never take the service
//! down — after every abuse, a well-formed request still succeeds.

use std::io::Write as _;
use std::net::TcpStream;
use yprov_service::http::request;
use yprov_service::{DocumentStore, Server, ServerConfig};

fn start() -> Server {
    Server::bind("127.0.0.1:0", DocumentStore::new(), ServerConfig::default()).unwrap()
}

fn assert_alive(server: &Server) {
    let (status, body) = request(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "server died: {body}");
}

#[test]
fn survives_malformed_request_lines() {
    let server = start();
    for garbage in [
        "",
        "\r\n",
        "GET\r\n\r\n",
        "GET /healthz\r\n\r\n",
        "GET /healthz SPDY/99\r\n\r\n",
        "POST /api/v0/documents HTTP/1.1\r\nContent-Length: notanumber\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", // body shorter than declared
    ] {
        if let Ok(mut s) = TcpStream::connect(server.addr()) {
            let _ = s.write_all(garbage.as_bytes());
            // Drop without reading the response.
        }
        assert_alive(&server);
    }
    server.shutdown();
}

#[test]
fn survives_binary_garbage() {
    let server = start();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..20 {
        let blob: Vec<u8> = (0..200)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 40) as u8
            })
            .collect();
        if let Ok(mut s) = TcpStream::connect(server.addr()) {
            let _ = s.write_all(&blob);
        }
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn rejects_oversized_bodies_without_dying() {
    let server = Server::bind(
        "127.0.0.1:0",
        DocumentStore::new(),
        ServerConfig {
            workers: 2,
            max_body: 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let big = "x".repeat(10_000);
    // The server refuses before reading the body, so the client may see
    // either a clean 400 or a connection reset mid-upload — both are
    // acceptable refusals; crashing the server is not.
    match request(server.addr(), "POST", "/api/v0/documents", Some(&big)) {
        Ok((status, _)) => assert_eq!(status, 400),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error: {e}"
        ),
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn survives_abrupt_disconnect_mid_body() {
    let server = start();
    for _ in 0..5 {
        if let Ok(mut s) = TcpStream::connect(server.addr()) {
            // Declare a big body, send a fragment, hang up.
            let _ = s.write_all(
                b"POST /api/v0/documents HTTP/1.1\r\nContent-Length: 100000\r\n\r\n{\"pre",
            );
            drop(s);
        }
    }
    // Workers blocked on the dead sockets time out; the pool recovers.
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn many_sequential_clients_do_not_exhaust_the_pool() {
    let server = start();
    for i in 0..100 {
        let (status, _) = request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "request {i}");
    }
    server.shutdown();
}

#[test]
fn ambiguous_framing_is_answered_400_and_closed() {
    // Each request frames its body in a way RFC 9112 requires a server
    // to refuse. The body is itself a request: a server that misreads
    // the framing answers it as a second one.
    let server = start();
    let smuggled = "GET /api/v0/documents HTTP/1.1\r\n\r\n";
    for (framing, error) in [
        (
            format!("Content-Length : {}", smuggled.len()),
            "whitespace between a header field name and its colon",
        ),
        (
            format!("Content-Length: {}\r\nContent-Length: 0", smuggled.len()),
            "conflicting content-length values",
        ),
        (
            format!("Content-Length: +{}", smuggled.len()),
            "bad content-length",
        ),
    ] {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        s.write_all(
            format!(
                "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n{framing}\r\n\r\n{smuggled}"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut answer = Vec::new();
        std::io::Read::read_to_end(&mut s, &mut answer).unwrap();
        let body = format!("{{\"error\":\"{error}\"}}");
        let want = format!(
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(String::from_utf8_lossy(&answer), want, "{framing}");
    }
    assert_alive(&server);
    server.shutdown();
}
