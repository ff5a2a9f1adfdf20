//! The response head of every shape the server emits, byte for byte.
//!
//! Each request goes over a raw socket and the head is compared with
//! the exact bytes Swala has always sent — status line, header order,
//! spelling and `Content-Length` — with only the `Date` value masked,
//! since it is the one field that changes from run to run.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::NodeId;
use swala_cgi::{CgiOutput, CgiRequest, Program, ProgramRegistry, SimulatedProgram, WorkKind};

/// A program that always fails: its requests are answered 500.
struct Broken;

impl Program for Broken {
    fn run(&self, _req: &CgiRequest) -> io::Result<CgiOutput> {
        Err(io::Error::other("broken on purpose"))
    }

    fn name(&self) -> &str {
        "broken"
    }
}

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r.register(Arc::new(Broken));
    r
}

/// Send `request` on a fresh connection and return the response head
/// (through the blank line) with the `Date` value replaced by `*`.
fn head_of(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    while !got.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).unwrap(),
            1,
            "head cut short: {got:?}"
        );
        got.push(byte[0]);
    }
    let head = String::from_utf8(got).unwrap();
    head.split_inclusive("\r\n")
        .map(|line| match line.strip_prefix("Date: ") {
            Some(date) => {
                assert_eq!(date.len(), 31, "an RFC 1123 date: {date:?}");
                assert!(date.ends_with(" GMT\r\n"), "{date:?}");
                "Date: *\r\n"
            }
            None => line,
        })
        .collect()
}

fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
}

/// The head of a `200` dynamic answer of `len` bytes tagged `tag`.
fn dynamic_ok(tag: &str, len: usize, connection: &str) -> String {
    format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nX-Swala-Cache: {tag}\r\n\
         Server: Swala/0.1\r\nDate: *\r\nConnection: {connection}\r\n\
         Content-Length: {len}\r\n\r\n"
    )
}

fn error_page(status: &str, len: usize) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/html\r\nServer: Swala/0.1\r\n\
         Date: *\r\nConnection: keep-alive\r\nContent-Length: {len}\r\n\r\n"
    )
}

#[test]
fn every_response_shape_keeps_its_head_byte_for_byte() {
    let nodes = swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 4,
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap();
    let (a, b) = (nodes[0].http_addr(), nodes[1].http_addr());
    let key = "/cgi-bin/adl?id=1&ms=0&bytes=300";

    // miss, then local hit, `Connection: close` and HEAD on the same key
    // (HEAD is not cacheable: it executes and advertises the length).
    assert_eq!(head_of(a, &get(key)), dynamic_ok("miss", 300, "keep-alive"));
    assert_eq!(
        head_of(a, &get(key)),
        dynamic_ok("local-hit", 300, "keep-alive")
    );
    assert_eq!(
        head_of(
            a,
            &format!("HEAD {key} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        ),
        dynamic_ok("uncacheable", 300, "keep-alive")
    );
    let close = format!("GET {key} HTTP/1.1\r\nHost: n\r\nConnection: close\r\n\r\n");
    assert_eq!(
        head_of(a, &close),
        dynamic_ok("local-hit", 300, "close").replace("HTTP/1.0 200", "HTTP/1.1 200")
    );

    // remote hit: node 1 fetches node 0's entry once it has heard of it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[1].manager().directory().len(NodeId(0)) == 0 {
        assert!(Instant::now() < deadline, "node 0's insert never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        head_of(b, &get(key)),
        dynamic_ok("remote-hit", 300, "keep-alive")
    );

    // coalesced: a second identical request while the first executes.
    let slow = "/cgi-bin/adl?id=2&ms=400&bytes=200";
    let misses = nodes[0].cache_stats().misses;
    let leader = std::thread::spawn(move || head_of(a, &get(slow)));
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[0].cache_stats().misses == misses {
        assert!(Instant::now() < deadline, "the leader never looked up");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        head_of(a, &get(slow)),
        dynamic_ok("coalesced-hit", 200, "keep-alive")
    );
    assert_eq!(
        leader.join().unwrap(),
        dynamic_ok("miss", 200, "keep-alive")
    );

    // 404 (no docroot) and 500 (a failing program).
    assert_eq!(
        head_of(a, &get("/index.html")),
        error_page("404 Not Found", 110)
    );
    assert_eq!(
        head_of(a, &get("/cgi-bin/broken?x=1")),
        error_page("500 Internal Server Error", 134)
    );

    // The client API agrees on what it parsed.
    let resp = HttpClient::new(a).get(key).unwrap();
    assert_eq!(resp.headers.get("X-Swala-Cache"), Some("local-hit"));
    for node in nodes {
        node.shutdown();
    }
}
