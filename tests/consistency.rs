//! Cross-crate consistency tests: TTL expiry propagating through the
//! purge daemon and delete broadcasts, the §4.2 anomaly paths end to
//! end, and concurrent multi-node load with invariant checks.

use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::{CacheRules, NodeId};
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn ttl_expiry_propagates_cluster_wide() {
    // 1-second TTL, 100 ms purge interval.
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        work: WorkKind::Sleep,
        node: ServerOptions {
            rules: CacheRules::parse("cache * ttl=1\n").unwrap(),
            purge_interval: Duration::from_millis(100),
            // Seed-faithful §4.2 semantics: the deletion must reach every
            // replica, which only the replicated directory keeps.
            directory: swala_cache::DirectoryKind::Replicated,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    c0.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    wait_until("insert visible at node 1", || {
        cluster.node(1).manager().directory().len(NodeId(0)) == 1
    });

    // After the TTL, the purge daemon expires it locally and broadcasts
    // the deletion; node 1's replica table must empty out too.
    wait_until("expiry at owner", || {
        cluster.node(0).manager().directory().len(NodeId(0)) == 0
    });
    wait_until("delete notice at node 1", || {
        cluster.node(1).manager().directory().len(NodeId(0)) == 0
    });
    assert_eq!(cluster.node(0).cache_stats().expirations, 1);

    // A new request after expiry re-executes and is a clean miss.
    let r = c0.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    assert_eq!(r.headers.get("X-Swala-Cache"), Some("miss"));
    cluster.shutdown();
}

#[test]
fn false_hit_path_live_end_to_end() {
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        work: WorkKind::Sleep,
        node: ServerOptions {
            // The §4.2 race needs node 1 to hold a replica of node 0's
            // insert; pin the paper's replicated directory explicitly.
            directory: swala_cache::DirectoryKind::Replicated,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    c0.get("/cgi-bin/adl?id=7&ms=1").unwrap();
    wait_until("replication", || {
        cluster.node(1).manager().directory().len(NodeId(0)) == 1
    });

    // Delete at the owner *without* a broadcast — exactly the §4.2 race.
    let key = swala_cache::CacheKey::new("/cgi-bin/adl?id=7&ms=1");
    cluster.node(0).manager().remove_local(&key).unwrap();

    let r = c1.get("/cgi-bin/adl?id=7&ms=1").unwrap();
    assert!(r.status.is_success(), "client still gets a correct answer");
    assert_eq!(r.headers.get("X-Swala-Cache"), Some("false-hit-fallback"));
    assert_eq!(cluster.node(1).cache_stats().false_hits, 1);

    // Node 1 now owns its own copy; the next request is a local hit.
    let r2 = c1.get("/cgi-bin/adl?id=7&ms=1").unwrap();
    assert_eq!(r2.headers.get("X-Swala-Cache"), Some("local-hit"));
    assert_eq!(r.body, r2.body);
    cluster.shutdown();
}

#[test]
fn concurrent_same_key_burst_counts_false_misses_not_errors() {
    // Many clients request the same slow, uncached key at once: with
    // coalescing off, Swala re-executes rather than blocking (§4.2,
    // false-miss scenario 1) — the paper-faithful mode.
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 1,
        work: WorkKind::Sleep,
        node: ServerOptions {
            coalesce: false,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();
    let addr = cluster.node(0).http_addr();
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(move || {
                let mut c = HttpClient::new(addr);
                let r = c.get("/cgi-bin/adl?id=55&ms=150").unwrap();
                assert!(r.status.is_success());
            });
        }
    });
    let stats = cluster.node(0).cache_stats();
    assert_eq!(stats.lookups, 6);
    assert!(
        stats.false_misses >= 1,
        "concurrent identical requests overlap"
    );
    assert_eq!(stats.hits() + stats.misses, 6);
    // Afterwards the result is cached exactly once.
    assert_eq!(cluster.node(0).manager().directory().len(NodeId(0)), 1);
    cluster.shutdown();
}

#[test]
fn coalesced_burst_executes_once_and_serves_everyone() {
    // The same flash-crowd burst with single-flight coalescing on (the
    // default): the CGI runs exactly once and every other request is
    // served the leader's body.
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 1,
        work: WorkKind::Sleep,
        ..Default::default()
    })
    .unwrap();
    let addr = cluster.node(0).http_addr();
    let bodies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let mut c = HttpClient::new(addr);
                    let r = c.get("/cgi-bin/adl?id=66&ms=150").unwrap();
                    assert!(r.status.is_success());
                    r.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "coalesced bodies identical");
    }
    let stats = cluster.node(0).cache_stats();
    assert_eq!(stats.lookups, 6);
    assert_eq!(stats.false_misses, 0, "no §4.2 scenario-1 re-runs");
    assert_eq!(stats.inserts, 1, "the CGI ran exactly once");
    assert!(stats.coalesce_waits >= 1, "burst actually overlapped");
    assert_eq!(stats.coalesce_fallbacks, 0);
    assert_eq!(cluster.node(0).manager().directory().len(NodeId(0)), 1);
    cluster.shutdown();
}

#[test]
fn node_crash_degrades_gracefully() {
    // Take a 3-node cluster, kill the entry owner, and verify surviving
    // nodes fall back to local execution (remote-unreachable path).
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 3,
        work: WorkKind::Sleep,
        node: ServerOptions {
            // Node 2 must know node 0's entry without asking a home node:
            // replicated-directory behaviour.
            directory: swala_cache::DirectoryKind::Replicated,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    c0.get("/cgi-bin/adl?id=9&ms=1").unwrap();
    wait_until("replication", || {
        cluster.node(2).manager().directory().len(NodeId(0)) == 1
    });

    // "Crash" node 0 by shutting only it down: dismantle the cluster
    // into servers.
    let mut nodes: Vec<_> = {
        let c = cluster;
        // SwalaCluster has no partial shutdown; recreate the scenario by
        // consuming it.
        let http2 = c.node(2).http_addr();
        let owner_manager_entries = c.node(0).manager().directory().len(NodeId(0));
        assert_eq!(owner_manager_entries, 1);
        // Shut down node 0 only.
        let mut servers: Vec<_> = Vec::new();
        let mut iter = c.into_nodes().into_iter();
        let node0 = iter.next().unwrap();
        node0.shutdown();
        for s in iter {
            servers.push(s);
        }
        let mut c2 = HttpClient::new(http2);
        let r = c2.get("/cgi-bin/adl?id=9&ms=1").unwrap();
        assert!(r.status.is_success(), "survivor answers despite dead owner");
        assert_eq!(
            r.headers.get("X-Swala-Cache"),
            Some("remote-unreachable-fallback")
        );
        servers
    };
    for s in nodes.drain(..) {
        s.shutdown();
    }
}
