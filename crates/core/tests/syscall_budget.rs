//! Write-syscall budget of the request path, in a test binary of its own
//! because it reads the kernel's per-thread I/O counters of the whole
//! process (`syscw` in `/proc/self/task/<tid>/io`).
//!
//! Each count is the floor its path cannot go under: a warm local hit
//! writes its response (one `writev`); a remote hit also writes the
//! fetch request, and the owner writes its reply; an evicting miss
//! writes its response, its record (one `pwritev`) and its victim's
//! `Free` marker (one `pwrite`). No layout or bookkeeping change can
//! move these, so a path that starts writing more fails here.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::NodeId;
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;

fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    registry
}

/// Two request threads, as in production, so a connection is never
/// parked between its requests.
fn options() -> ServerOptions {
    ServerOptions {
        pool_size: 2,
        ..Default::default()
    }
}

/// Write syscalls so far of every live thread whose name starts with
/// `role`, summed.
fn syscw(role: &str) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let named =
            std::fs::read_to_string(dir.join("comm")).is_ok_and(|name| name.starts_with(role));
        let Ok(io) = std::fs::read_to_string(dir.join("io")) else {
            continue;
        };
        if named {
            total += io
                .lines()
                .find_map(|line| line.strip_prefix("syscw:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("a syscw line");
        }
    }
    total
}

/// Write syscalls per request on the request threads and the cache-port
/// threads, after warm-up requests have opened every pooled connection.
fn per_request(mut request: impl FnMut()) -> (f64, f64) {
    const REQUESTS: u64 = 2_000;
    for _ in 0..REQUESTS {
        request();
    }
    let before = (syscw("swala-request"), syscw("swala-cacher"));
    for _ in 0..REQUESTS {
        request();
    }
    let after = (syscw("swala-request"), syscw("swala-cacher"));
    let per = |from: u64, to: u64| (to - from) as f64 / REQUESTS as f64;
    (per(before.0, after.0), per(before.1, after.1))
}

/// `got` is `want` writes per request, give or take a stray timer write
/// in a thousand.
fn assert_writes(what: &str, got: f64, want: f64) {
    println!("write syscalls per {what}: {got:.3}");
    assert!(
        (got - want).abs() < 0.01,
        "{what}: {got:.3}, the floor is {want}"
    );
}

#[test]
fn each_request_path_makes_exactly_its_floor_of_write_syscalls() {
    // A warm local hit: the response.
    let server = SwalaServer::start_single(options(), registry()).unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let (hit, _) = per_request(|| {
        let resp = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    });
    assert_eq!(
        client
            .get("/cgi-bin/adl?id=1&ms=0")
            .unwrap()
            .headers
            .get("X-Swala-Cache"),
        Some("local-hit")
    );
    assert_writes("warm local hit", hit, 1.0);
    server.shutdown();

    // A remote hit: the fetch request and the response on the
    // requester, the reply on the owner's cache port.
    let nodes = swala::start_cluster(2, |_| (options(), registry())).unwrap();
    let target = "/cgi-bin/adl?id=2&ms=0";
    HttpClient::new(nodes[1].http_addr()).get(target).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[0].manager().directory().len(NodeId(1)) == 0 {
        assert!(Instant::now() < deadline, "node 1's insert never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut client = HttpClient::new(nodes[0].http_addr());
    let (requester, owner) = per_request(|| {
        let resp = client.get(target).unwrap();
        assert_eq!(resp.headers.get("X-Swala-Cache"), Some("remote-hit"));
    });
    assert_writes("remote hit on the requester", requester, 2.0);
    assert_writes("remote hit on the owner's cache port", owner, 1.0);
    for node in nodes {
        node.shutdown();
    }

    // An evicting miss: the response, the record and the victim's
    // `Free` marker. The warm-up misses fill the cache to capacity.
    let base = std::env::temp_dir().join(format!("swala-syscw-miss-{}", std::process::id()));
    let nodes = swala::start_cluster(2, |node| {
        let options = ServerOptions {
            cache_dir: Some(base.join(format!("node{}", node.0))),
            fsync: false,
            ..options()
        };
        (options, registry())
    })
    .unwrap();
    let mut client = HttpClient::new(nodes[0].http_addr());
    let mut id = 0u64;
    let (miss, _) = per_request(|| {
        id += 1;
        let resp = client
            .get(&format!("/cgi-bin/adl?id={id}&ms=0&bytes=4096"))
            .unwrap();
        assert_eq!(resp.headers.get("X-Swala-Cache"), Some("miss"));
    });
    let stats = nodes[0].manager().stats().snapshot();
    assert!(stats.evictions >= 2_000, "{stats:?}");
    assert_writes("evicting miss", miss, 3.0);
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
}
