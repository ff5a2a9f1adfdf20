//! End-to-end tests for the zero-copy hit path: the in-memory body
//! tier (warm local hits without store reads), the persistent fetch
//! pool (a burst of remote hits over few connections), and the
//! counters both expose on the status page.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{DirectoryKind, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;
use swala_proto::DEFAULT_POOL_SIZE;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

/// The keys the two-node tests warm on node 0 are homed at node 1 on the
/// partitioned ring, so under either directory node 1 hears of them.
fn two_node_cluster(directory: DirectoryKind) -> Vec<SwalaServer> {
    swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 4,
            directory,
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap()
}

fn wait_for_remote_entry(server: &SwalaServer, owner: NodeId, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.manager().directory().len(owner) < n {
        assert!(Instant::now() < deadline, "directory never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn warm_local_hits_never_touch_the_store() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());

    let miss = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(miss.headers.get("X-Swala-Cache"), Some("miss"));
    let after_insert = server.cache_stats();
    assert_eq!(
        server.manager().bodies().mem_bytes(),
        0,
        "an insert holds no memory"
    );

    // The first hit reads the store once and promotes the body.
    let first = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(first.headers.get("X-Swala-Cache"), Some("local-hit"));
    let after_first = server.cache_stats();
    assert_eq!(after_first.store_reads, after_insert.store_reads + 1);
    assert_eq!(after_first.mem_hits, 0);
    assert!(
        server.manager().bodies().mem_bytes() > 0,
        "tier holds the cached body"
    );

    let second = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    let third = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(second.headers.get("X-Swala-Cache"), Some("local-hit"));
    assert_eq!(third.headers.get("X-Swala-Cache"), Some("local-hit"));
    assert_eq!(first.body, second.body);
    assert_eq!(second.body, third.body);

    let warm = server.cache_stats();
    assert_eq!(
        warm.mem_hits, 2,
        "both warm hits served from the memory tier"
    );
    assert_eq!(
        warm.store_reads, after_first.store_reads,
        "warm hits must not read the store"
    );
}

#[test]
fn disabled_mem_tier_still_serves_local_hits() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            mem_cache_bytes: 0,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    let hit = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));
    let stats = server.cache_stats();
    assert_eq!(stats.mem_hits, 0);
    assert_eq!(server.manager().bodies().mem_bytes(), 0);
    assert!(stats.store_reads >= 1, "every hit reads the store");
}

#[test]
fn remote_hit_burst_reuses_pooled_connections() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);

        let mut client = HttpClient::new(nodes[1].http_addr());
        for _ in 0..12 {
            let r = client.get("/cgi-bin/adl?id=31&ms=0").unwrap();
            assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
        }
        let pool = nodes[1].fetch_pool().stats();
        assert!(
            pool.connects_opened <= DEFAULT_POOL_SIZE as u64,
            "burst over one client must reuse, opened {}",
            pool.connects_opened
        );
        assert!(
            pool.reuses >= 10,
            "most fetches ride warm connections, reused {}",
            pool.reuses
        );
        for n in nodes {
            n.shutdown();
        }
    }
}

/// The cache port's `swala_engine_parks` staying flat: back-to-back
/// remote hits ride a warm fetch connection its owner's thread lingers
/// on, so the owner's cache port parks nothing.
#[test]
fn back_to_back_remote_hits_never_park_on_the_owners_cache_port() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);

        let mut client = HttpClient::new(nodes[1].http_addr());
        for _ in 0..1000 {
            let r = client.get("/cgi-bin/adl?id=31&ms=0").unwrap();
            assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
        }
        assert_eq!(nodes[0].cache_port_stats().parks(), 0, "{directory:?}");
        for n in nodes {
            n.shutdown();
        }
    }
}

#[test]
fn status_page_shows_hot_path_counters() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=5&ms=0").unwrap();
        warm.get("/cgi-bin/adl?id=5&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);
        let mut client = HttpClient::new(nodes[1].http_addr());
        client.get("/cgi-bin/adl?id=5&ms=0").unwrap();

        let page = client.get("/swala-status").unwrap();
        assert_eq!(page.status, StatusCode::OK);
        let html = String::from_utf8(page.body.into_vec()).unwrap();
        assert!(html.contains("Fetch pool"), "{html}");
        assert!(html.contains("connects=1"), "{html}");

        // Node 0 served one local hit, which read the store and promoted
        // the body, then node 1's fetch from the memory tier.
        let page = warm.get("/swala-status").unwrap();
        let html = String::from_utf8(page.body.into_vec()).unwrap();
        assert!(html.contains("mem_hits=1 "), "{html}");
        assert!(html.contains("store_reads=1 "), "{html}");
        for n in nodes {
            n.shutdown();
        }
    }
}

#[test]
fn responses_carry_a_cached_date_header() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let r = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    let date = r.headers.get("Date").expect("Date header present");
    assert!(date.ends_with(" GMT"), "RFC 1123 format: {date}");
}
