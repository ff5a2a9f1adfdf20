//! What a parked keep-alive connection costs, in a test binary of its
//! own because it reads the process-wide `/proc/self/status`.
//!
//! A parked connection is an entry on its port's pool epoll, not a
//! thread: parking as many idle connections as the pool has threads, 4 ×
//! as many and 256 spawns no thread, and at 256 each costs under 16 KiB of
//! RSS — on the HTTP port and on the cache port alike.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_proto::DEFAULT_REQUEST_THREADS;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

/// A field from `/proc/self/status`: `VmRSS` (KiB) or `Threads`.
fn proc_status(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = text.lines().find(|l| l.starts_with(field)).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn parked_connections_spawn_no_threads_and_cost_little_memory() {
    // Both ends of every connection live in this process.
    swala::raise_nofile_limit().unwrap();
    let options = ServerOptions::default();
    let pool_size = options.pool_size;
    let server = SwalaServer::start_single(options, registry()).unwrap();
    let addr = server.http_addr();
    let open = || server.engine_stats().open_connections.get();
    HttpClient::new(addr)
        .get("/cgi-bin/adl?id=idle&ms=0")
        .unwrap();
    park_idle_connections(addr, pool_size, open);
    server.shutdown();

    // A node's cache port, in a pair: a thread for its peer's notice
    // link, one per request thread the peer may fetch with, and a spare.
    let nodes = swala::start_cluster(2, |_| (ServerOptions::default(), registry())).unwrap();
    let threads = 1 + DEFAULT_REQUEST_THREADS + 1;
    let open = || nodes[0].cache_port_stats().open_connections.get();
    park_idle_connections(nodes[0].cache_addr(), threads, open);
}

/// Open `threads`, 4 × `threads` and 256 idle connections to `addr`, once
/// `open` says every earlier one is closed: none may spawn a thread, and
/// at 256 each must cost under 16 KiB of RSS.
fn park_idle_connections(addr: SocketAddr, threads: usize, open: impl Fn() -> i64) {
    for idle in [threads, 4 * threads, 256] {
        wait_until("earlier connections closed", || open() == 0);
        let rss_before = proc_status("VmRSS");
        let threads_before = proc_status("Threads");
        let parked: Vec<TcpStream> = (0..idle)
            .map(|i| {
                // Let the accept loop drain the backlog now and then: a
                // dropped SYN costs a one-second retransmit.
                if i % 64 == 63 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                TcpStream::connect(addr).unwrap()
            })
            .collect();
        wait_until("the pool accepted every connection", || {
            open() >= idle as i64
        });
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
