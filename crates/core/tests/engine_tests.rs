//! Connection-layer behaviour of the request pool: the slow-client
//! regressions PR 5 pinned down, and what parking idle keep-alive
//! connections on the pool's epoll adds — idle clients never stall a
//! live request, a hot connection never meets epoll, a request that has
//! begun is never parked.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cgi::{null_cgi, ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::{Response, StatusCode};

/// The pool's keep-alive limit and read tick (`pool.rs`).
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
const READ_TICK: Duration = Duration::from_millis(100);

const KEEP_ALIVE_GET: &[u8] = b"GET /cgi-bin/nullcgi HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(null_cgi()));
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Spin,
    )));
    r
}

fn start_pool(pool_size: usize) -> SwalaServer {
    let options = ServerOptions {
        pool_size,
        ..Default::default()
    };
    SwalaServer::start_single(options, registry()).unwrap()
}

fn start() -> SwalaServer {
    start_pool(4)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One keep-alive request and its response on a raw connection.
fn round_trip(s: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    s.write_all(KEEP_ALIVE_GET).unwrap();
    let resp = Response::read_from(reader).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
}

fn connect(server: &SwalaServer) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(server.http_addr()).unwrap();
    let reader = BufReader::new(s.try_clone().unwrap());
    (s, reader)
}

/// PR 5 regression: a client that sends the request line, stalls past
/// the server's read tick, then sends the headers must get a clean parse
/// — the buffered request line must not be lost.
#[test]
fn split_request_line_then_headers_parses() {
    let server = start();
    let mut s = TcpStream::connect(server.http_addr()).unwrap();
    s.write_all(b"GET /cgi-bin/nullcgi HTTP/1.0\r\n").unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    s.write_all(b"Host: slowpoke\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
    server.shutdown();
}

/// PR 5 regression: bytes dribbling in a few at a time resume the parse
/// rather than restarting it.
#[test]
fn dribbled_request_parses() {
    let server = start();
    let mut s = TcpStream::connect(server.http_addr()).unwrap();
    let wire = b"GET /cgi-bin/nullcgi HTTP/1.0\r\nHost: dribble\r\n\r\n";
    for chunk in wire.chunks(7) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
    server.shutdown();
}

/// PR 5 regression: a request started and then abandoned is answered 408
/// after `KEEP_ALIVE_IDLE` — not silently dropped, not corrupted. On a
/// pool with no thread to spare, too: a request that has begun is never
/// parked, so once its first half is read the park count stands still.
#[test]
fn stalled_partial_request_gets_408_and_is_never_parked() {
    for pool_size in [4, 1] {
        let server = start_pool(pool_size);
        let (mut s, mut reader) = connect(&server);
        round_trip(&mut s, &mut reader);
        s.write_all(b"GET /cgi-bin/nullcgi HTTP/1.1\r\nHost: wed")
            .unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(500));
        let parks = server.engine_stats().parks();
        let mut out = String::new();
        reader.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 408"), "pool {pool_size}: {out}");
        assert!(out.contains("Request Timeout"), "pool {pool_size}: {out}");
        assert!(out.contains("\r\nDate: "), "pool {pool_size}: {out}");
        assert_eq!(server.engine_stats().parks(), parks, "pool {pool_size}");
        server.shutdown();
    }
}

/// An idle keep-alive connection that never sends a byte is closed
/// silently (EOF, no 408) once the idle limit passes.
#[test]
fn idle_connection_closed_silently() {
    let server = start();
    let mut s = TcpStream::connect(server.http_addr()).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    assert!(out.is_empty(), "idle close must send nothing");
    server.shutdown();
}

/// The TCP_NODELAY satellite: pipelined small keep-alive responses must
/// not pick up Nagle / delayed-ACK stalls. Forty sequential round trips
/// of a tiny CGI response complete far under the ~40 ms-per-stall budget
/// a missing `set_nodelay` would cost on loopback.
#[test]
fn small_responses_incur_no_nagle_delays() {
    const ROUNDS: u32 = 40;
    let server = start();
    let mut client = HttpClient::new(server.http_addr());
    // Warm up: connection established, program resolved.
    assert_eq!(
        client.get("/cgi-bin/nullcgi").unwrap().status,
        StatusCode::OK
    );
    let begin = Instant::now();
    for _ in 0..ROUNDS {
        let resp = client.get("/cgi-bin/nullcgi").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    let elapsed = begin.elapsed();
    // A single Nagle+delayed-ACK interaction stalls ~40 ms; forty of
    // them would take >1.6 s. Allow a generous 25 ms average for slow
    // CI machines — still far below one stall per round.
    assert!(
        elapsed < Duration::from_millis(25 * ROUNDS as u64),
        "{ROUNDS} round trips took {elapsed:?}"
    );
    server.shutdown();
}

/// The pool's gauges and its park counter surface on the admin endpoints.
#[test]
fn engine_gauges_surface_on_admin_endpoints() {
    let server = start();
    let mut client = HttpClient::new(server.http_addr());
    let metrics = String::from_utf8(client.get("/swala-metrics").unwrap().body.into_vec()).unwrap();
    for name in [
        "swala_engine_open_connections",
        "swala_engine_idle_connections",
        "swala_engine_parks",
        "swala_http_accept_errors",
    ] {
        assert!(metrics.contains(name), "missing {name}");
    }
    // The scraping connection itself is open (and not idle: it is
    // mid-request while the gauge is read).
    assert!(
        metrics.contains("swala_engine_open_connections 1\n"),
        "scrape connection not counted:\n{metrics}"
    );
    let status = String::from_utf8(client.get("/swala-status").unwrap().body.into_vec()).unwrap();
    assert!(
        status.contains("open_connections=1 idle_connections=0 parks=0"),
        "{status}"
    );
    assert!(!status.contains("engine="), "{status}");
    server.shutdown();
}

/// Keep-alive holds one server-side connection across requests, and
/// `Connection: close` is honored with an EOF afterwards.
#[test]
fn keep_alive_reuse_and_close() {
    let server = start();
    let (mut s, mut reader) = connect(&server);
    for _ in 0..3 {
        round_trip(&mut s, &mut reader);
    }
    s.write_all(b"GET /cgi-bin/nullcgi HTTP/1.0\r\n\r\n")
        .unwrap();
    let resp = Response::read_from(&mut reader).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection must close after Connection: close"
    );
    // All four requests rode one connection.
    assert_eq!(server.request_stats().requests, 4);
    assert_eq!(server.request_stats().connections, 1);
    server.shutdown();
}

/// A client that asks for a body larger than both socket buffers and
/// then never reads cannot hold a thread for long: a blocked send waits
/// half of `KEEP_ALIVE_IDLE`, and one that moves nothing in that time
/// closes the connection. (The kernel still grows the send buffer a
/// little during the first waits, so it takes two or three of them.)
#[test]
fn a_stalled_response_write_is_bounded() {
    let server = start_pool(1);
    let mut s = TcpStream::connect(server.http_addr()).unwrap();
    s.write_all(b"GET /cgi-bin/adl?id=big&ms=0&bytes=16777216 HTTP/1.0\r\n\r\n")
        .unwrap();
    let stats = server.engine_stats();
    wait_until("the request to be taken", || {
        stats.open_connections.get() == 1
    });
    let begin = Instant::now();
    while stats.open_connections.get() != 0 {
        assert!(
            begin.elapsed() < 2 * KEEP_ALIVE_IDLE,
            "the pool's only thread is still writing to a client that does not read"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(begin.elapsed() >= KEEP_ALIVE_IDLE / 2);
    // The thread is free again.
    let resp = HttpClient::new(server.http_addr())
        .get("/cgi-bin/nullcgi")
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    drop(s);
    server.shutdown();
}

/// Idle browsers are not a denial of service: with four times as many
/// idle keep-alive connections as the pool has threads, a new
/// connection's request is answered at once (a thread per idle
/// connection made it wait out a ≈ 5 s keep-alive timeout).
#[test]
fn idle_connections_do_not_stall_a_live_request() {
    let server = start();
    let idle: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(server.http_addr()).unwrap())
        .collect();
    let stats = server.engine_stats();
    wait_until("the idle connections to be accepted", || {
        stats.open_connections.get() == 16
    });
    let begin = Instant::now();
    let resp = HttpClient::new(server.http_addr())
        .get("/cgi-bin/nullcgi")
        .unwrap();
    let elapsed = begin.elapsed();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(
        elapsed < Duration::from_millis(250),
        "live request took {elapsed:?} behind 16 idle connections"
    );
    wait_until("all sixteen to count as idle again", || {
        stats.idle_connections.get() == 16
    });
    drop(idle);
    server.shutdown();
}

/// A connection that pauses between requests while no thread is free to
/// wait with it is parked, and served again on the same server-side
/// connection when its next request arrives.
#[test]
fn a_paused_connection_is_parked_and_served_again() {
    let server = start_pool(1);
    let (mut s, mut reader) = connect(&server);
    round_trip(&mut s, &mut reader);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(server.engine_stats().idle_connections.get(), 1);
    round_trip(&mut s, &mut reader);
    assert_eq!(server.request_stats().connections, 1);
    assert_eq!(server.request_stats().requests, 2);
    assert!(server.engine_stats().parks() >= 1);
    server.shutdown();
}

/// The hot path never meets epoll: with idle threads available, back-to-
/// back keep-alive requests are never parked and cost one read each.
#[test]
fn a_hot_connection_is_never_parked_and_costs_one_read_per_request() {
    const REQUESTS: u64 = 1000;
    let server = start();
    let (mut s, mut reader) = connect(&server);
    let begin = Instant::now();
    for _ in 0..REQUESTS {
        round_trip(&mut s, &mut reader);
    }
    // One read per request, plus the one the thread may already be
    // blocked in for the next. A client that a loaded machine held up for
    // a whole read tick costs that tick's timed-out read; in a run of a
    // few tens of milliseconds there is none.
    let ticks = (begin.elapsed().as_millis() / READ_TICK.as_millis()) as u64;
    let reads = server.request_stats().read_calls;
    assert!(
        (REQUESTS..=REQUESTS + 1 + ticks).contains(&reads),
        "{reads} reads for {REQUESTS} requests ({ticks} ticks)"
    );
    assert_eq!(server.engine_stats().parks(), 0);
    server.shutdown();
}

/// A parked connection keeps the keep-alive limit: closed silently within
/// two ticks of it, measured from its last byte.
#[test]
fn a_parked_connection_expires_on_the_keep_alive_limit() {
    let server = start_pool(1);
    let (mut s, mut reader) = connect(&server);
    round_trip(&mut s, &mut reader);
    let begin = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    let elapsed = begin.elapsed();
    assert!(rest.is_empty(), "expiry must send nothing");
    assert!(server.engine_stats().parks() >= 1);
    // Half a second of slack for a loaded machine.
    let slack = Duration::from_millis(500);
    assert!(
        elapsed >= KEEP_ALIVE_IDLE - READ_TICK
            && elapsed <= KEEP_ALIVE_IDLE + 2 * READ_TICK + slack,
        "closed after {elapsed:?}"
    );
    wait_until("the expired connection's slot to be freed", || {
        server.engine_stats().open_connections.get() == 0
    });
    server.shutdown();
}

/// A peer that hangs up while parked frees its slot at once, not at the
/// deadline.
#[test]
fn a_hangup_while_parked_frees_the_slot() {
    let server = start_pool(1);
    let mut clients: Vec<_> = (0..3).map(|_| connect(&server)).collect();
    for (s, reader) in &mut clients {
        round_trip(s, reader);
    }
    let stats = server.engine_stats();
    wait_until("all three to be parked", || {
        stats.idle_connections.get() == 3
    });
    assert!(stats.parks() >= 3);
    let begin = Instant::now();
    drop(clients);
    wait_until("the slots to be freed", || {
        stats.open_connections.get() == 0
    });
    assert!(begin.elapsed() < Duration::from_secs(1));
    assert_eq!(stats.idle_connections.get(), 0);
    server.shutdown();
}

/// More keep-alive clients than threads, taking turns: nobody waits for
/// somebody else to hang up. (With a thread per connection the third
/// client's first request waited ≈ 5 s for the first two to be timed out.)
#[test]
fn more_clients_than_threads_take_turns() {
    let server = start_pool(2);
    let mut clients: Vec<_> = (0..6).map(|_| connect(&server)).collect();
    let begin = Instant::now();
    for _ in 0..200 {
        for (s, reader) in &mut clients {
            round_trip(s, reader);
        }
    }
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "1200 turns took {elapsed:?}"
    );
    assert_eq!(server.request_stats().connections, 6);
    server.shutdown();
}

/// More hot keep-alive clients than threads, all at once: every client is
/// served all along. Shares are not equal — a thread may stay with one
/// client while the other thread has a moment to spare, and that client
/// then runs ahead — but nobody starves: with a thread per connection the
/// first two clients finished before the other four were served at all.
#[test]
fn more_hot_clients_than_threads_all_make_progress() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 2000;
    let server = start_pool(2);
    let addr = server.http_addr();
    let progress: Arc<Vec<AtomicUsize>> =
        Arc::new((0..CLIENTS).map(|_| AtomicUsize::new(0)).collect());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|me| {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(s.try_clone().unwrap());
                for _ in 0..REQUESTS {
                    round_trip(&mut s, &mut reader);
                    progress[me].fetch_add(1, Ordering::Relaxed);
                }
                // How far the slowest client had got when this one finished.
                progress
                    .iter()
                    .map(|p| p.load(Ordering::Relaxed))
                    .min()
                    .unwrap()
            })
        })
        .collect();
    for (me, h) in handles.into_iter().enumerate() {
        let slowest = h.join().unwrap();
        assert!(
            slowest >= REQUESTS / 50,
            "client {me} finished while another had done {slowest} of {REQUESTS}"
        );
    }
    assert_eq!(server.request_stats().requests, (CLIENTS * REQUESTS) as u64);
    server.shutdown();
}

/// Shutdown does not wait on parked connections: a thousand of them are
/// closed in well under a second, and every client reads EOF.
#[test]
fn shutdown_closes_a_thousand_parked_connections_at_once() {
    const PARKED: usize = 1000;
    // Starting the pool raises this process's descriptor limit, which
    // both ends of the thousand connections need.
    let server = start();
    let mut clients = Vec::with_capacity(PARKED);
    for i in 0..PARKED {
        clients.push(TcpStream::connect(server.http_addr()).unwrap());
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = Arc::clone(server.engine_stats());
    wait_until("the herd to be accepted and idle", || {
        stats.idle_connections.get() == PARKED as i64
    });
    let begin = Instant::now();
    server.shutdown();
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?}"
    );
    assert_eq!(stats.open_connections.get(), 0);
    for mut s in clients {
        s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "client must read EOF");
    }
}
