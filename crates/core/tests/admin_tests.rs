//! End-to-end tests for the extension features: the status page,
//! application-driven invalidation, conditional GET, source monitoring
//! and join-time directory sync.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::monitor::MonitorRule;
use swala::{BoundSwala, HttpClient, ServerOptions, SwalaServer};
use swala_cache::{DirectoryKind, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::{Method, Request, StatusCode};
use swala_proto::{FaultAction, FaultInjector, FaultRule};

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The keys the two-node tests warm on node 0 are homed at node 1 on the
/// partitioned ring, so under either directory node 1 hears of them.
fn two_node_cluster(directory: DirectoryKind) -> Vec<SwalaServer> {
    two_node_cluster_with(ServerOptions {
        directory,
        ..Default::default()
    })
}

fn two_node_cluster_with(base: ServerOptions) -> Vec<SwalaServer> {
    swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 4,
            ..base.clone()
        };
        (options, registry())
    })
    .unwrap()
}

#[test]
fn status_page_reports_stats() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            capacity: 1,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    // A second key at capacity 1 evicts the first.
    client.get("/cgi-bin/adl?id=2&ms=1").unwrap();

    let page = client.get("/swala-status").unwrap();
    assert_eq!(page.status, StatusCode::OK);
    let html = String::from_utf8(page.body.into_vec()).unwrap();
    assert!(html.contains("Swala node node0"), "{html}");
    assert!(html.contains("hits=1"), "cache hit visible: {html}");
    assert!(html.contains("this node"));
    // "Why is insert slow on this host" is answerable from the endpoints:
    // which digest implementation runs, and what an eviction examines.
    let digest = swala_cache::DigestImpl::active().as_str();
    assert!(html.contains(&format!(" digest={digest} ")), "{html}");
    let metrics = client.get("/swala-metrics").unwrap();
    let metrics = String::from_utf8(metrics.body.into_vec()).unwrap();
    assert!(metrics.contains("swala_cache_evictions 1\n"), "{metrics}");
    // The hit left the first key's snapshot stale: one repair, one pick.
    assert!(
        metrics.contains("swala_cache_evict_examined 2\n"),
        "{metrics}"
    );
    server.shutdown();
}

/// The syscall floor is checkable on a running node: over a keep-alive
/// session the request pool issues one socket read per request — no
/// peek, no second read for the head — visible on both metrics
/// endpoints and the status page.
#[test]
fn keep_alive_requests_cost_one_read_each() {
    // One directory organization: reads per request do not depend on
    // how the directory is shared.
    let servers = two_node_cluster(DirectoryKind::Replicated);
    let mut client = HttpClient::new(servers[0].http_addr());
    for i in 0..200 {
        let resp = client
            .get(&format!("/cgi-bin/adl?id={}&ms=0", i % 4))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    let metrics = client.get("/swala-metrics").unwrap();
    let metrics = String::from_utf8(metrics.body.into_vec()).unwrap();
    let value = |name: &str| -> f64 {
        let line = metrics
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("{name} missing: {metrics}"));
        line[name.len()..].trim().parse().unwrap()
    };
    // Both counters include the scrape's own request.
    let (reads, requests) = (value("swala_http_read_calls"), value("swala_http_requests"));
    assert!(requests >= 201.0, "{requests}");
    assert!(
        reads >= requests && reads <= requests * 1.05,
        "{reads} reads for {requests} requests"
    );
    let cluster = client.get("/swala-cluster-metrics").unwrap();
    let cluster = String::from_utf8(cluster.body.into_vec()).unwrap();
    for node in ["0", "1"] {
        assert!(
            cluster.contains(&format!("swala_http_read_calls{{node=\"{node}\"}}")),
            "read calls federate from node {node}: {cluster}"
        );
    }
    let page = client.get("/swala-status").unwrap();
    let html = String::from_utf8(page.body.into_vec()).unwrap();
    assert!(html.contains(" read_calls=20"), "{html}");
    assert!(html.contains(" reads_per_request=1.0"), "{html}");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn status_page_reports_per_link_broadcast_counters() {
    for directory in DirectoryKind::ALL {
        let servers = two_node_cluster(directory);
        let mut c0 = HttpClient::new(servers[0].http_addr());
        c0.get("/cgi-bin/adl?id=77&ms=1").unwrap();
        wait_until("notice delivered to node 1", || {
            servers[1].manager().directory().len(NodeId(0)) == 1
        });

        let page = c0.get("/swala-status").unwrap();
        let html = String::from_utf8(page.body.into_vec()).unwrap();
        assert!(html.contains("Broadcast links"), "{html}");
        // One row for the single peer, with the insert notice counted sent
        // and nothing dropped.
        assert!(html.contains("<td>node1</td>"), "{html}");
        assert!(html.contains("(1 sent, 0 dropped)"), "{html}");
        // The pacing columns: that one notice found the link idle and went
        // out at once, as its own frame, followed by the base hold.
        assert!(html.contains("<th>notices/frame</th>"), "{html}");
        assert!(html.contains("<th>hold (&micro;s)</th>"), "{html}");
        assert!(
            html.contains("<td>1</td><td>1</td><td>1.0</td><td>500</td><td>1</td><td>0</td>"),
            "sent, frames, notices/frame, hold, immediate, after hold: {html}"
        );
        // The same from the metrics endpoints — this node's, and the
        // federated view built from every node's StatsSnapshot.
        let metrics = c0.get("/swala-metrics").unwrap();
        let metrics = String::from_utf8(metrics.body.into_vec()).unwrap();
        assert!(metrics.contains("swala_broadcast_frames 1\n"), "{metrics}");
        assert!(
            metrics.contains("swala_notice_delay_microseconds_count 1\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("swala_notice_hold_microseconds 500\n"),
            "{metrics}"
        );
        let cluster = c0.get("/swala-cluster-metrics").unwrap();
        let cluster = String::from_utf8(cluster.body.into_vec()).unwrap();
        for family in [
            "swala_broadcast_frames",
            "swala_notice_delay_microseconds_bucket",
        ] {
            assert!(cluster.contains(family), "{family} federates: {cluster}");
        }
        for s in servers {
            s.shutdown();
        }
    }
}

/// `/swala-threads` is served by a live node and names the roles of the
/// threads it runs. (Other tests' nodes share this process and come and
/// go, so counts and sums are pinned in `binary_tests.rs`, against a node
/// process of its own.)
#[test]
fn threads_page_lists_thread_roles() {
    // Pinned: a replicated directory is what makes any miss send node 1
    // a notice.
    let servers = two_node_cluster_with(ServerOptions {
        directory: DirectoryKind::Replicated,
        ..Default::default()
    });
    let mut client = HttpClient::new(servers[0].http_addr());
    // A miss sends a notice, so every role below exists by the scrape.
    client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    wait_until("notice delivered to node 1", || {
        servers[1].manager().directory().len(NodeId(0)) == 1
    });
    let page = client.get("/swala-threads").unwrap();
    assert_eq!(page.status, StatusCode::OK);
    let text = String::from_utf8(page.body.into_vec()).unwrap();
    let samples = swala_obs::parse_exposition(&text).expect("well-formed exposition");
    let threads = |role: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == "swala_threads" && s.labels[0].1 == role)
            .map(|s| s.value)
            .sum()
    };
    // Both nodes live in this process: 2 × pool_size request threads, a
    // writer per link, a reader per accepted peer connection.
    assert!(threads("swala-request") >= 8.0, "{text}");
    assert!(threads("swala-notice-writer") >= 2.0, "{text}");
    for role in [
        "swala-cache-conn",
        "swala-cache-accept",
        "swala-cache-purge",
    ] {
        assert!(threads(role) >= 1.0, "{role}: {text}");
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn invalidate_local_entry_over_http() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=5&ms=1").unwrap();
    assert_eq!(server.manager().directory().len(NodeId(0)), 1);

    // Invalidate via the admin endpoint (key percent-encoded).
    let resp = client
        .get("/swala-admin/invalidate?key=%2Fcgi-bin%2Fadl%3Fid%3D5%26ms%3D1")
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(String::from_utf8(resp.body.into_vec())
        .unwrap()
        .contains("invalidated local entry"));
    assert_eq!(server.manager().directory().len(NodeId(0)), 0);

    // Next request re-executes.
    let r = client.get("/cgi-bin/adl?id=5&ms=1").unwrap();
    assert_eq!(r.headers.get("X-Swala-Cache"), Some("miss"));
    server.shutdown();
}

#[test]
fn invalidate_forwards_to_remote_owner() {
    for directory in DirectoryKind::ALL {
        let servers = two_node_cluster(directory);
        let mut c0 = HttpClient::new(servers[0].http_addr());
        c0.get("/cgi-bin/adl?id=9&ms=1").unwrap();
        wait_until("notice at node 1", || {
            servers[1].manager().directory().len(NodeId(0)) == 1
        });

        // Ask node 1 (non-owner) to invalidate: it forwards to node 0,
        // which deletes and announces; eventually both directories are
        // clean.
        let mut c1 = HttpClient::new(servers[1].http_addr());
        let resp = c1
            .get("/swala-admin/invalidate?key=%2Fcgi-bin%2Fadl%3Fid%3D9%26ms%3D1")
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{directory:?}");
        assert!(String::from_utf8(resp.body.into_vec())
            .unwrap()
            .contains("forwarded to owner node0"));
        wait_until("owner dropped entry", || {
            servers[0].manager().directory().len(NodeId(0)) == 0
        });
        wait_until("delete notice applied", || {
            servers[1].manager().directory().len(NodeId(0)) == 0
        });
        for s in servers {
            s.shutdown();
        }
    }
}

/// A forwarded invalidation is a cluster-plane exchange like a fetch: it
/// dials through the node's dialer (so faults apply), and a failure
/// counts against the owner's health. With node 0's dials to node 1
/// dropped, node 0 cannot reach the owner — it must say so, and the
/// entry must survive.
#[test]
fn forwarded_invalidate_goes_through_the_nodes_dialer() {
    let faults = FaultInjector::seeded(42);
    let servers = two_node_cluster_with(ServerOptions {
        faults: Some(Arc::clone(&faults)),
        ..Default::default()
    });
    let mut c1 = HttpClient::new(servers[1].http_addr());
    c1.get("/cgi-bin/adl?id=12&ms=1").unwrap();
    wait_until("notice at node 0", || {
        servers[0].manager().directory().len(NodeId(1)) == 1
    });

    faults.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop));
    let dials = faults.attempt_count(NodeId(0), NodeId(1));
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let resp = c0
        .get("/swala-admin/invalidate?key=%2Fcgi-bin%2Fadl%3Fid%3D12%26ms%3D1")
        .unwrap();
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
    assert_eq!(servers[1].manager().directory().len(NodeId(1)), 1);
    assert_eq!(faults.attempt_count(NodeId(0), NodeId(1)), dials + 1);
    let owner = servers[0]
        .peer_health()
        .into_iter()
        .find(|h| h.peer == NodeId(1))
        .expect("node 1 tracked");
    assert_eq!(owner.total_failures, 1, "{owner:?}");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn invalidate_requires_key_param_and_handles_absent_keys() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let resp = client.get("/swala-admin/invalidate").unwrap();
    assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    let resp = client
        .get("/swala-admin/invalidate?key=%2Fnothing")
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(String::from_utf8(resp.body.into_vec())
        .unwrap()
        .contains("no cached entry"));
    // Unknown admin path.
    let resp = client.get("/swala-admin/frobnicate").unwrap();
    assert_eq!(resp.status, StatusCode::NOT_FOUND);
    server.shutdown();
}

#[test]
fn conditional_get_over_http() {
    let root = std::env::temp_dir().join(format!("swala-ims-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("doc.html"), "<p>doc</p>").unwrap();
    let server = SwalaServer::start_single(
        ServerOptions {
            docroot: Some(root.clone()),
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());

    let first = client.get("/doc.html").unwrap();
    assert_eq!(first.status, StatusCode::OK);
    let validator = first.headers.get("Last-Modified").unwrap().to_string();

    let mut revalidate = Request::new(Method::Get, "/doc.html").unwrap();
    revalidate.headers.set("If-Modified-Since", &validator);
    revalidate.headers.set("Connection", "keep-alive");
    let second = client.request(&revalidate).unwrap();
    assert_eq!(second.status.as_u16(), 304);
    assert!(second.body.is_empty());
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn source_monitor_invalidates_through_live_server() {
    let dir = std::env::temp_dir().join(format!("swala-srvmon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("index.db");
    std::fs::write(&source, "v1").unwrap();

    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            monitors: vec![MonitorRule {
                key_prefix: "/cgi-bin/adl".to_string(),
                source: source.clone(),
            }],
            monitor_interval: Duration::from_millis(40),
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=3&ms=1").unwrap();
    let hit = client.get("/cgi-bin/adl?id=3&ms=1").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));

    std::thread::sleep(Duration::from_millis(60));
    std::fs::write(&source, "v2: reindexed").unwrap();
    wait_until("monitor invalidates", || {
        server.source_monitor().unwrap().invalidations() == 1
    });
    let after = client.get("/cgi-bin/adl?id=3&ms=1").unwrap();
    assert_eq!(after.headers.get("X-Swala-Cache"), Some("miss"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn late_joiner_syncs_directory() {
    for directory in DirectoryKind::ALL {
        // Node 0 starts alone (in a 2-slot cluster) and caches entries.
        // Wired by hand: node 1 does not exist yet.
        let b0 = BoundSwala::bind(
            ServerOptions {
                node: NodeId(0),
                num_nodes: 2,
                pool_size: 2,
                directory,
                ..Default::default()
            },
            registry(),
        )
        .unwrap();
        let addr0 = b0.cache_addr();
        let s0 = b0.start(vec![Some(addr0), None]).unwrap();
        let mut c0 = HttpClient::new(s0.http_addr());
        for i in 0..4 {
            c0.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
        }

        // Node 1 joins later with sync_on_join: it learns all 4 entries
        // at startup instead of waiting for future notices.
        let b1 = BoundSwala::bind(
            ServerOptions {
                node: NodeId(1),
                num_nodes: 2,
                pool_size: 2,
                sync_on_join: true,
                directory,
                ..Default::default()
            },
            registry(),
        )
        .unwrap();
        let addr1 = b1.cache_addr();
        let s1 = b1.start(vec![Some(addr0), Some(addr1)]).unwrap();
        assert_eq!(
            s1.manager().directory().len(NodeId(0)),
            4,
            "synced at join ({directory:?})"
        );
        s0.set_peer_cache_addr(NodeId(1), addr1);

        // And it can serve those entries as remote hits immediately.
        let mut c1 = HttpClient::new(s1.http_addr());
        let r = c1.get("/cgi-bin/adl?id=0&ms=1").unwrap();
        assert_eq!(
            r.headers.get("X-Swala-Cache"),
            Some("remote-hit"),
            "{directory:?}"
        );
        s0.shutdown();
        s1.shutdown();
    }
}
