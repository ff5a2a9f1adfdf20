//! What a parked keep-alive connection costs, in a test binary of its
//! own because it reads the process-wide `/proc/self/status`.
//!
//! A parked connection is an entry on its port's pool epoll, not a
//! thread: parking as many idle connections as the pool has threads, 4 ×
//! as many and 256 spawns no thread, and at 256 each costs under 16 KiB of
//! RSS — on the HTTP port and on the cache port alike. With ten thousand
//! parked, a live request still answers within 250 ms.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cgi::{null_cgi, ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;
use swala_proto::DEFAULT_POOL_SIZE;

/// Idle connections the C10K case parks, where the fd limit allows.
const C10K: usize = 10_000;
/// The longest a live request may take with the C10K herd parked.
const C10K_BOUND: Duration = Duration::from_millis(250);

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r.register(Arc::new(null_cgi()));
    r
}

/// A field from `/proc/self/status`: `VmRSS` (KiB) or `Threads`.
fn proc_status(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = text.lines().find(|l| l.starts_with(field)).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn wait_until(what: &str, within: Duration, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + within;
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Open `count` connections to `addr` and send nothing on them.
fn connect_idle(addr: SocketAddr, count: usize) -> Vec<TcpStream> {
    (0..count)
        .map(|i| {
            // Let the accept loop drain the backlog now and then: a
            // dropped SYN costs a one-second retransmit.
            if i % 64 == 63 {
                std::thread::sleep(Duration::from_millis(1));
            }
            TcpStream::connect(addr).unwrap()
        })
        .collect()
}

#[test]
fn parked_connections_spawn_no_threads_and_cost_little_memory() {
    // Both ends of every connection live in this process.
    let nofile = swala::raise_nofile_limit().unwrap();
    let options = ServerOptions::default();
    let pool_size = options.pool_size;
    let server = SwalaServer::start_single(options, registry()).unwrap();
    let addr = server.http_addr();
    let open = || series(&server, "swala_engine_open_connections");
    HttpClient::new(addr)
        .get("/cgi-bin/adl?id=idle&ms=0")
        .unwrap();
    park_idle_connections(addr, pool_size, open);
    server.shutdown();

    // A node's cache port, in a pair: a thread for its peer's notice
    // link, one per fetch connection the peer may open, and a spare.
    let nodes = swala::start_cluster(2, |_| (ServerOptions::default(), registry())).unwrap();
    let threads = 1 + DEFAULT_POOL_SIZE + 1;
    let open = || series(&nodes[0], "swala_cache_port_open_connections");
    park_idle_connections(nodes[0].cache_addr(), threads, open);
    drop(nodes);

    // C10K: with ten thousand idle connections parked on a default-options
    // node, a live request still answers within the bound.
    let conns = C10K.min((nofile.saturating_sub(1000) / 2) as usize);
    if conns < C10K {
        eprintln!("c10k: RLIMIT_NOFILE {nofile} caps the herd at {conns} connections");
    }
    let server = SwalaServer::start_single(ServerOptions::default(), registry()).unwrap();
    let addr = server.http_addr();
    let started = Instant::now();
    let parked = connect_idle(addr, conns);
    let connected = started.elapsed();
    // A bounded moment for the pool to drain the accept backlog.
    wait_until(
        "the pool accepted the C10K herd",
        Duration::from_secs(2),
        || series(&server, "swala_engine_open_connections") >= conns as u64,
    );
    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(10));
    let started = Instant::now();
    let resp = client.get("/cgi-bin/nullcgi").unwrap();
    let live = started.elapsed();
    assert_eq!(resp.status, StatusCode::OK);
    eprintln!(
        "c10k: parked {conns} idle connections in {connected:.1?} ({} parks); live request {live:.2?}",
        series(&server, "swala_engine_parks")
    );
    assert!(
        live <= C10K_BOUND,
        "with {conns} idle connections parked a live request took {live:?}, bound {C10K_BOUND:?}"
    );
    drop(parked);
    server.shutdown();
}

/// Series `name` of the node's metrics registry.
fn series(server: &SwalaServer, name: &str) -> u64 {
    swala_obs::lookup(&server.telemetry().registry().snapshot(), name, None).unwrap()
}

/// Open `threads`, 4 × `threads` and 256 idle connections to `addr`, once
/// `open` says every earlier one is closed: none may spawn a thread, and
/// at 256 each must cost under 16 KiB of RSS.
fn park_idle_connections(addr: SocketAddr, threads: usize, open: impl Fn() -> u64) {
    for idle in [threads, 4 * threads, 256] {
        wait_until(
            "earlier connections closed",
            Duration::from_secs(10),
            || open() == 0,
        );
        let rss_before = proc_status("VmRSS");
        let threads_before = proc_status("Threads");
        let parked = connect_idle(addr, idle);
        wait_until(
            "the pool accepted every connection",
            Duration::from_secs(10),
            || open() >= idle as u64,
        );
        let rss_per_conn = proc_status("VmRSS").saturating_sub(rss_before) * 1024 / idle as u64;
        assert_eq!(
            proc_status("Threads"),
            threads_before,
            "parking {idle} connections on {addr} spawned threads"
        );
        if idle >= 256 {
            assert!(
                rss_per_conn < 16 * 1024,
                "{idle} parked connections on {addr} cost {rss_per_conn} bytes of RSS each"
            );
        }
        drop(parked);
    }
}
