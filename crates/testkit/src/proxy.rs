//! [`FaultProxy`]: a loopback HTTP/1.1 proxy that injects faults on the
//! wire, so a test drives a server's real failure paths and the server
//! carries no fault-injection code of its own.
//!
//! The proxy holds its listener from [`FaultProxy::bind`] until it is
//! dropped, so its address can be handed out before the server behind
//! it exists: bind the proxies, give their addresses to the servers as
//! peers, bind the servers on port 0, then point each proxy at its
//! server with [`FaultProxy::forward_to`]. No port is ever released and
//! bound again.
//!
//! It speaks what the workspace's server and client speak: requests and
//! responses framed by `Content-Length`, keep-alive on both sides. Each
//! downstream connection gets an upstream connection of its own, and
//! bytes pass through verbatim. A connection closes when the response
//! through it does not say `Connection: keep-alive` or when either side
//! closes it; dropping the proxy closes its listener.
//!
//! [`FaultProxy::fault`] arms a [`Fault`] for the next `times` requests
//! whose method and path (query string ignored) match. Every armed fault
//! that matches a request acts on it and uses up one of its times, in
//! the order delay, drop or status, tear, duplicate. Nothing is random.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to a request an armed fault matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Close the downstream connection and forward nothing.
    Drop,
    /// Answer this status with a JSON error body and
    /// `Connection: close`, and forward nothing.
    Status(u16),
    /// Keep the body's first line, cut the rest to half at a char
    /// boundary, fix `Content-Length` and forward that.
    Tear,
    /// Forward the request twice and answer with the first response.
    Duplicate,
    /// Wait this long, then forward.
    Delay(Duration),
}

/// A fault waiting for the requests it matches.
struct Armed {
    method: String,
    path: String,
    fault: Fault,
    times: usize,
}

#[derive(Default)]
struct Shared {
    upstream: Mutex<Option<SocketAddr>>,
    armed: Mutex<Vec<Armed>>,
    stopping: AtomicBool,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// The faults armed for `method path`, each using up one time.
    fn take(&self, method: &str, path: &str) -> Vec<Fault> {
        let mut armed = lock(&self.armed);
        let hits = armed
            .iter_mut()
            .filter(|a| a.times > 0 && a.method == method && a.path == path)
            .map(|a| {
                a.times -= 1;
                a.fault
            })
            .collect();
        armed.retain(|a| a.times > 0);
        hits
    }
}

/// A fault-injecting HTTP/1.1 proxy on a loopback port (module docs).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds `127.0.0.1:0` and holds the listener until the proxy
    /// drops. Until [`Self::forward_to`] is called a request is
    /// answered by closing its connection, as a dead peer would.
    pub fn bind() -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("a bound listener's address");
        let shared = Arc::new(Shared::default());
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept(listener, shared))
        };
        FaultProxy {
            addr,
            shared,
            acceptor: Some(acceptor),
        }
    }

    /// Where clients reach the proxy.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Forwards from now on to `upstream`; may be called again to move
    /// the proxy to another server.
    pub fn forward_to(&self, upstream: SocketAddr) {
        *lock(&self.shared.upstream) = Some(upstream);
    }

    /// Arms `fault` for the next `times` requests whose method is
    /// `method` and whose path, without its query string, is `path`.
    pub fn fault(&self, method: &str, path: &str, fault: Fault, times: usize) {
        lock(&self.shared.armed).push(Armed {
            method: method.to_string(),
            path: path.to_string(),
            fault,
            times,
        });
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wakes the acceptor out of `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn accept(listener: TcpListener, shared: Arc<Shared>) {
    for downstream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(downstream) = downstream else {
            continue;
        };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || serve(downstream, &shared));
    }
}

/// Relays one downstream connection's requests until it closes;
/// returning drops, and so closes, both of its sockets.
fn serve(downstream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut requests = BufReader::new(downstream.try_clone()?);
    let mut downstream = downstream;
    let mut upstream: Option<(SocketAddr, BufReader<TcpStream>)> = None;
    while let Some(request) = Message::read(&mut requests)? {
        let (method, path) = request.method_and_path();
        let faults = shared.take(&method, &path);
        for fault in &faults {
            if let Fault::Delay(wait) = fault {
                std::thread::sleep(*wait);
            }
        }
        if faults.contains(&Fault::Drop) {
            return Ok(());
        }
        let status = faults.iter().find_map(|f| match f {
            Fault::Status(code) => Some(*code),
            _ => None,
        });
        if let Some(code) = status {
            let body = format!("{{\"error\":\"injected fault: HTTP {code}\"}}");
            let response = format!(
                "HTTP/1.1 {code} Injected Fault\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            return downstream.write_all(response.as_bytes());
        }
        let request = match faults.contains(&Fault::Tear) {
            true => request.torn(),
            false => request,
        };
        let response = exchange(shared, &mut upstream, &request)?;
        if faults.contains(&Fault::Duplicate) {
            exchange(shared, &mut upstream, &request)?;
        }
        downstream.write_all(&response.bytes())?;
        if !response.keep_alive() {
            return Ok(());
        }
    }
    Ok(())
}

/// Sends `request` upstream on the connection's upstream socket,
/// opening one first if there is none (or it leads elsewhere), and
/// reads the response. A response that does not keep the connection
/// alive closes it.
fn exchange(
    shared: &Shared,
    upstream: &mut Option<(SocketAddr, BufReader<TcpStream>)>,
    request: &Message,
) -> io::Result<Message> {
    let target = *lock(&shared.upstream);
    let target =
        target.ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no upstream"))?;
    if upstream.as_ref().map(|(addr, _)| *addr) != Some(target) {
        *upstream = Some((target, BufReader::new(TcpStream::connect(target)?)));
    }
    let (_, socket) = upstream.as_mut().expect("connected above");
    socket.get_mut().write_all(&request.bytes())?;
    let response = Message::read(socket)?;
    let response = response.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "upstream closed unanswered")
    })?;
    if !response.keep_alive() {
        *upstream = None;
    }
    Ok(response)
}

/// One request or response: its header section, verbatim, and its
/// `Content-Length` body.
struct Message {
    head: String,
    body: Vec<u8>,
}

impl Message {
    /// The next message on `reader`; `None` when the peer closed
    /// between messages.
    fn read(reader: &mut impl BufRead) -> io::Result<Option<Message>> {
        let mut head = String::new();
        loop {
            let start = head.len();
            if reader.read_line(&mut head)? == 0 {
                return match head.is_empty() {
                    true => Ok(None),
                    false => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed inside a header section",
                    )),
                };
            }
            if head[start..].trim_end().is_empty() {
                break;
            }
        }
        let mut message = Message {
            head,
            body: Vec::new(),
        };
        let length = message.header("content-length").unwrap_or("0");
        let length: usize = length
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        message.body = vec![0; length];
        reader.read_exact(&mut message.body)?;
        Ok(Some(message))
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }

    fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }

    /// A request line's method and its target without the query string.
    fn method_and_path(&self) -> (String, String) {
        let mut words = self.head.split_whitespace();
        let method = words.next().unwrap_or_default();
        let target = words.next().unwrap_or_default();
        let path = target.split_once('?').map_or(target, |(path, _)| path);
        (method.to_string(), path.to_string())
    }

    /// This message with its body's first line kept, the rest cut to
    /// half by [`tear`], and `Content-Length` to match.
    fn torn(self) -> Message {
        let first_line = self.body.iter().position(|b| *b == b'\n');
        let keep = first_line.map_or(self.body.len(), |at| at + 1);
        let keep = keep + tear(&self.body[keep..]).len();
        let mut head = String::with_capacity(self.head.len());
        for line in self.head.split_inclusive('\n') {
            match line.split_once(':') {
                Some((key, _)) if key.eq_ignore_ascii_case("content-length") => {
                    head.push_str(&format!("{key}: {keep}\r\n"));
                }
                _ => head.push_str(line),
            }
        }
        let mut body = self.body;
        body.truncate(keep);
        Message { head, body }
    }

    fn bytes(&self) -> Vec<u8> {
        [self.head.as_bytes(), &self.body].concat()
    }
}

/// Roughly the first half of `s`, cut back to a char boundary when `s`
/// is UTF-8.
fn tear(s: &[u8]) -> &[u8] {
    let mut cut = s.len() / 2;
    while cut > 0 && s[cut] & 0xC0 == 0x80 {
        cut -= 1;
    }
    &s[..cut]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn tear_respects_char_boundaries() {
        assert_eq!(tear(b"abcdef"), b"abc");
        assert_eq!(tear(b""), b"");
        let s = "aé€b"; // multi-byte chars around the midpoint
        let cut = tear(s.as_bytes());
        assert!(s.as_bytes().starts_with(cut));
        assert!(std::str::from_utf8(cut).is_ok());
    }

    /// A keep-alive upstream that answers each request with
    /// `<method> <target> <body length>:<body>` and counts the requests
    /// it saw.
    fn echo_server() -> (SocketAddr, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&seen);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    while let Ok(Some(request)) = Message::read(&mut reader) {
                        counter.fetch_add(1, Ordering::SeqCst);
                        let line = request.head.lines().next().unwrap_or_default();
                        let target = line.split_whitespace().take(2).collect::<Vec<_>>();
                        let body = format!(
                            "{} {}:{}",
                            target.join(" "),
                            request.body.len(),
                            String::from_utf8_lossy(&request.body)
                        );
                        let response =
                            format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
                            body.len(),
                            if request.keep_alive() { "keep-alive" } else { "close" }
                        );
                        if stream.write_all(response.as_bytes()).is_err() || !request.keep_alive() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, seen)
    }

    /// Sends one keep-alive request on `stream` and reads the response;
    /// `None` when the proxy closed the connection instead.
    fn send(
        stream: &mut BufReader<TcpStream>,
        method: &str,
        target: &str,
        body: &str,
    ) -> Option<Message> {
        let request = format!(
            "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        stream.get_mut().write_all(request.as_bytes()).ok()?;
        Message::read(stream).ok().flatten()
    }

    fn connect(proxy: &FaultProxy) -> BufReader<TcpStream> {
        BufReader::new(TcpStream::connect(proxy.addr()).unwrap())
    }

    fn text(response: &Message) -> String {
        String::from_utf8(response.body.clone()).unwrap()
    }

    #[test]
    fn forwards_verbatim_on_one_connection_and_follows_forward_to() {
        let (first, first_seen) = echo_server();
        let (second, second_seen) = echo_server();
        let proxy = FaultProxy::bind();
        // Not yet forwarding: the connection closes unanswered.
        assert!(send(&mut connect(&proxy), "GET", "/a", "").is_none());
        proxy.forward_to(first);
        let mut conn = connect(&proxy);
        let response = send(&mut conn, "POST", "/a?x=1", "héllo").unwrap();
        assert_eq!(text(&response), "POST /a?x=1 6:héllo");
        let response = send(&mut conn, "GET", "/b", "").unwrap();
        assert_eq!(text(&response), "GET /b 0:");
        assert_eq!(first_seen.load(Ordering::SeqCst), 2);
        proxy.forward_to(second);
        let response = send(&mut conn, "GET", "/c", "").unwrap();
        assert_eq!(text(&response), "GET /c 0:");
        assert_eq!(second_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_status_fault_answers_for_its_times_then_forwards() {
        let (upstream, seen) = echo_server();
        let proxy = FaultProxy::bind();
        proxy.forward_to(upstream);
        proxy.fault("POST", "/up", Fault::Status(503), 2);
        // Another method or path is not matched; a query string is
        // ignored.
        let mut conn = connect(&proxy);
        assert_eq!(
            text(&send(&mut conn, "GET", "/up", "").unwrap()),
            "GET /up 0:"
        );
        assert_eq!(
            text(&send(&mut conn, "POST", "/upx", "").unwrap()),
            "POST /upx 0:"
        );
        for target in ["/up?retry=1", "/up"] {
            let response = send(&mut conn, "POST", target, "body").unwrap();
            assert!(
                response.head.starts_with("HTTP/1.1 503 "),
                "{}",
                response.head
            );
            assert!(!response.keep_alive());
            assert!(text(&response).contains("injected"));
            // The proxy closed the connection after answering.
            assert!(send(&mut conn, "GET", "/", "").is_none());
            conn = connect(&proxy);
        }
        let response = send(&mut conn, "POST", "/up", "body").unwrap();
        assert_eq!(text(&response), "POST /up 4:body");
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn drop_tear_duplicate_and_delay_act_on_the_wire() {
        let (upstream, seen) = echo_server();
        let proxy = FaultProxy::bind();
        proxy.forward_to(upstream);
        let path = "/frames";

        proxy.fault("POST", path, Fault::Drop, 1);
        assert!(send(&mut connect(&proxy), "POST", path, "x").is_none());
        assert_eq!(seen.load(Ordering::SeqCst), 0);

        // The header line stays; the rest is cut to half.
        proxy.fault("POST", path, Fault::Tear, 1);
        let mut conn = connect(&proxy);
        let response = send(&mut conn, "POST", path, "head\nabcdef").unwrap();
        assert_eq!(text(&response), "POST /frames 8:head\nabc");

        proxy.fault("POST", path, Fault::Duplicate, 1);
        proxy.fault("POST", path, Fault::Delay(Duration::from_millis(30)), 1);
        let started = std::time::Instant::now();
        let response = send(&mut conn, "POST", path, "twice").unwrap();
        assert_eq!(text(&response), "POST /frames 5:twice");
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }
}
