//! Directory-mode parametrized regression: the behaviour both directory
//! families must share — cooperative remote hits, deletion propagation,
//! application-driven invalidation from any node, §4.2 false-hit repair
//! — plus the partitioned-only degradation path (unreachable home).
//!
//! Replicated stays the paper-faithful default; these tests run every
//! scenario under both `DirectoryKind`s explicitly, so the default does
//! not decide what is covered.

use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::{CacheKey, DirectoryKind, NodeId};
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};

fn start(nodes: usize, directory: DirectoryKind) -> SwalaCluster {
    SwalaCluster::start(&ClusterConfig {
        nodes,
        work: WorkKind::Sleep,
        node: ServerOptions {
            directory,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn tag(resp: &swala_http::Response) -> String {
    resp.headers
        .get("X-Swala-Cache")
        .unwrap_or("<none>")
        .to_string()
}

/// Percent-encode a request target for use as a `?key=` value.
fn enc(target: &str) -> String {
    target
        .replace('%', "%25")
        .replace('/', "%2F")
        .replace('?', "%3F")
        .replace('=', "%3D")
        .replace('&', "%26")
}

#[test]
fn remote_hit_works_under_both_directory_modes() {
    for directory in DirectoryKind::ALL {
        let cluster = start(2, directory);
        let mut c0 = HttpClient::new(cluster.node(0).http_addr());
        let mut c1 = HttpClient::new(cluster.node(1).http_addr());

        let first = c0.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        assert_eq!(tag(&first), "miss", "{directory:?}");
        assert!(
            cluster.wait_for_directory_convergence(1, Duration::from_secs(10)),
            "{directory:?}"
        );

        let remote = c1.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        assert_eq!(tag(&remote), "remote-hit", "{directory:?}");
        assert_eq!(remote.body, first.body, "{directory:?}");
        assert_eq!(
            cluster.total_cache_stat(|s| s.remote_hits),
            1,
            "{directory:?}"
        );
        // Hit/miss accounting must look identical across modes: one
        // miss (the first execution) plus one remote hit, two lookups.
        assert_eq!(cluster.total_cache_stat(|s| s.lookups), 2, "{directory:?}");
        assert_eq!(cluster.total_cache_stat(|s| s.misses), 1, "{directory:?}");
        cluster.shutdown();
    }
}

#[test]
fn ttl_deletion_propagates_under_both_directory_modes() {
    for directory in DirectoryKind::ALL {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            work: WorkKind::Sleep,
            node: ServerOptions {
                rules: swala_cache::CacheRules::parse("cache * ttl=1\n").unwrap(),
                purge_interval: Duration::from_millis(100),
                directory,
                ..ClusterConfig::default().node
            },
            ..Default::default()
        })
        .unwrap();
        let mut c0 = HttpClient::new(cluster.node(0).http_addr());
        c0.get("/cgi-bin/adl?id=32&ms=0").unwrap();
        assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));

        // After the TTL the purge daemon deletes the entry and announces
        // the deletion the mode's way; every table must forget it. The
        // purge leaves the directory before it deletes the body and only
        // then counts the expiration, so wait for the counter too.
        wait_until("cluster-wide expiry", || {
            cluster.node(0).cache_stats().expirations >= 1
                && cluster
                    .nodes()
                    .iter()
                    .all(|s| s.manager().directory().total_len() == 0)
        });
        assert_eq!(
            cluster.node(0).cache_stats().expirations,
            1,
            "{directory:?}"
        );
        let again = c0.get("/cgi-bin/adl?id=32&ms=0").unwrap();
        assert_eq!(tag(&again), "miss", "{directory:?}");
        cluster.shutdown();
    }
}

#[test]
fn invalidate_from_non_owner_works_under_both_directory_modes() {
    for directory in DirectoryKind::ALL {
        let cluster = start(2, directory);
        let target = "/cgi-bin/adl?id=33&ms=0";
        let mut c0 = HttpClient::new(cluster.node(0).http_addr());
        let mut c1 = HttpClient::new(cluster.node(1).http_addr());
        c0.get(target).unwrap();
        assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));

        // Node 1 does not own the entry. Replicated classifies it Remote
        // from the local replica; partitioned may have to ask the home
        // first. Both must end with the owner deleting the entry.
        let resp = c1
            .get(&format!("/swala-admin/invalidate?key={}", enc(target)))
            .unwrap();
        assert!(resp.status.is_success(), "{directory:?}");
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(
            text.contains("forwarded to owner") || text.contains("invalidated local entry"),
            "{directory:?}: {text}"
        );
        wait_until("invalidation emptied every table", || {
            cluster
                .nodes()
                .iter()
                .all(|s| s.manager().directory().total_len() == 0)
        });
        let again = c0.get(target).unwrap();
        assert_eq!(tag(&again), "miss", "{directory:?}");
        cluster.shutdown();
    }
}

#[test]
fn false_hit_repairs_under_both_directory_modes() {
    // Pick a key whose partitioned home is node 1, the *reader*: when
    // the home is the owner itself, deleting at the owner also updates
    // the authoritative table and the §4.2 race cannot happen at all —
    // a genuine (and desirable) semantic difference. With the home on
    // the reader's side, both modes consult a stale record and must
    // take the same false-hit repair path.
    let ring =
        swala_cache::HashRing::with_members([NodeId(0), NodeId(1)], swala_cache::DEFAULT_VNODES);
    let target = (0..10_000)
        .map(|i| format!("/cgi-bin/adl?id=f{i}&ms=0"))
        .find(|t| ring.home(&CacheKey::new(t)) == NodeId(1))
        .expect("some key is homed at node 1");
    let target = target.as_str();
    for directory in DirectoryKind::ALL {
        let cluster = start(2, directory);
        let mut c0 = HttpClient::new(cluster.node(0).http_addr());
        let mut c1 = HttpClient::new(cluster.node(1).http_addr());
        c0.get(target).unwrap();
        assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));

        // Delete at the owner *without* any announcement — the §4.2 race
        // window. Whatever table the reader consults (its own replica or
        // the key's home) still names node 0 as owner.
        let key = CacheKey::new(target);
        cluster.node(0).manager().remove_local(&key).unwrap();

        let r = c1.get(target).unwrap();
        assert!(r.status.is_success(), "{directory:?}");
        assert_eq!(tag(&r), "false-hit-fallback", "{directory:?}");
        assert_eq!(cluster.node(1).cache_stats().false_hits, 1, "{directory:?}");
        // The stale record was repaired: a fresh read from node 1 is a
        // local hit on its fallback copy, not another false hit.
        let r2 = c1.get(target).unwrap();
        assert_eq!(tag(&r2), "local-hit", "{directory:?}");
        assert_eq!(cluster.node(1).cache_stats().false_hits, 1, "{directory:?}");
        cluster.shutdown();
    }
}

#[test]
fn unreachable_home_degrades_to_local_execution() {
    // Partitioned-only degradation drill: when a key's home node is
    // dead, a miss on another node must still answer the client, via
    // the home-unreachable fallback (replicated-style local execution).
    let cluster = start(2, DirectoryKind::Partitioned);
    let manager = cluster.node(0).manager().clone();
    // Find a key whose home is node 1 (the node we are about to kill).
    let target = (0..10_000)
        .map(|i| format!("/cgi-bin/adl?id=h{i}&ms=0"))
        .find(|t| manager.placement().homes(&CacheKey::new(t)) == [NodeId(1)])
        .expect("some key is homed at node 1");

    let mut nodes = cluster.into_nodes().into_iter();
    let node0 = nodes.next().unwrap();
    for dead in nodes {
        dead.shutdown();
    }

    let mut c0 = HttpClient::new(node0.http_addr());
    let r = c0.get(&target).unwrap();
    assert!(r.status.is_success());
    assert_eq!(tag(&r), "home-unreachable-fallback");
    // The answer was cached locally; the retry is a plain local hit and
    // never touches the dead home again on the read path.
    let r2 = c0.get(&target).unwrap();
    assert_eq!(tag(&r2), "local-hit");
    node0.shutdown();
}
