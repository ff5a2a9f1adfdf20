//! End-to-end tests for the extension features: the status page,
//! application-driven invalidation, conditional GET, source monitoring
//! and join-time directory sync.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::monitor::{MonitorRule, MONITOR_INTERVAL};
use swala::{BoundSwala, HttpClient, ServerOptions, SwalaServer};
use swala_cache::{DirectoryKind, ManualClock, NodeId};
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

/// Series `name` of the node's metrics registry, the one labelled `label`.
fn series(server: &SwalaServer, name: &str, label: Option<&str>) -> u64 {
    swala_obs::lookup(&server.telemetry().registry().snapshot(), name, label).unwrap()
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

    assert_eq!(
        series(&server, "swala_cache_local_hits", None),
        1,
        "cache hit"
    );
    // The directory table: this node owns the one entry left.
    assert_eq!(series(&server, "swala_cache_dir_entries", Some("0")), 1);
    // "Why is insert slow on this host" is answerable from the registry:
    // what the store holds, and what an eviction examines.
    assert_eq!(series(&server, "swala_store_info", Some("mem")), 1);
    assert_eq!(series(&server, "swala_store_file_bytes", None), 0);
    assert_eq!(series(&server, "swala_cache_evictions", None), 1);
    // The hit left the first key's snapshot stale: one repair, one pick.
    assert_eq!(series(&server, "swala_cache_evict_examined", None), 2);
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
    assert!(metrics.contains("swala_http_read_calls "), "{metrics}");
    // Both counters include the scrape's own request.
    let reads = series(&servers[0], "swala_http_read_calls", None);
    let requests = series(&servers[0], "swala_http_requests", None);
    assert!(requests >= 201, "{requests}");
    assert!(
        reads >= requests && reads <= requests + requests / 20,
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
    // What the status page showed: 20x reads, and 1.0x per request.
    assert!((200..210).contains(&reads), "{reads}");
    assert_eq!(format!("{:.1}", reads as f64 / requests as f64), "1.0");
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

        // The node's totals: the insert notice counted sent and nothing
        // dropped.
        let node0 = &servers[0];
        assert_eq!(series(node0, "swala_broadcast_sent", None), 1);
        assert_eq!(series(node0, "swala_broadcast_dropped", None), 0);
        // The link to the single peer: that one notice found the link idle
        // and went out at once, as its own frame, followed by the base
        // hold.
        let link = ["sent", "frames", "hold_microseconds", "sent_immediate"]
            .map(|f| series(node0, &format!("swala_broadcast_link_{f}"), Some("1")));
        assert_eq!(link, [1, 1, 500, 1], "sent, frames, hold, immediate");
        let link = ["sent_after_hold", "dropped", "queued"]
            .map(|f| series(node0, &format!("swala_broadcast_link_{f}"), Some("1")));
        assert_eq!(link, [0, 0, 0], "after hold, dropped, queued");
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

/// `swala_broadcast_sent` counts notices written to a socket, not
/// notices handed to a link: to a peer that refuses connections, the
/// first notice is dropped and the ones after it queue behind the
/// reconnect backoff, which a manual clock never ends.
#[test]
fn broadcast_sent_counts_only_notices_written() {
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap();
    drop(dead);
    let time = ManualClock::new();
    let options = ServerOptions {
        num_nodes: 2,
        pool_size: 2,
        clock: time.clock(),
        ..Default::default()
    };
    let server = BoundSwala::bind(options, registry())
        .unwrap()
        .start(vec![None, Some(dead_addr)])
        .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=0&ms=0").unwrap();
    wait_until("the first notice dropped", || {
        series(&server, "swala_broadcast_link_dropped", Some("1")) == 1
    });
    for i in 1..=3 {
        client.get(&format!("/cgi-bin/adl?id={i}&ms=0")).unwrap();
    }
    assert_eq!(series(&server, "swala_broadcast_link_queued", Some("1")), 3);
    assert_eq!(series(&server, "swala_broadcast_sent", None), 0);
    assert_eq!(series(&server, "swala_broadcast_link_sent", Some("1")), 0);
    server.shutdown();
}

/// The cells of every table row with `<td>` cells in `html`.
fn rows(html: &str) -> Vec<Vec<&str>> {
    html.split("<tr>")
        .skip(1)
        .map(|row| {
            let row = &row[..row.find("</tr>").unwrap_or(row.len())];
            row.split("<td>")
                .skip(1)
                .map(|cell| &cell[..cell.find("</td>").unwrap()])
                .collect()
        })
        .filter(|cells: &Vec<&str>| !cells.is_empty())
        .collect()
}

/// The exposition name of a histogram series' count: `name{..}` becomes
/// `name_count{..}`.
fn count_of(series: &str) -> String {
    let at = series.find('{').unwrap_or(series.len());
    format!("{}_count{}", &series[..at], &series[at..])
}

/// A node's `/swala-metrics` samples, keyed as the pages name series.
fn scrape(client: &mut HttpClient) -> std::collections::HashMap<String, f64> {
    let text = String::from_utf8(client.get("/swala-metrics").unwrap().body.into_vec()).unwrap();
    let samples = swala_obs::parse_exposition(&text).unwrap();
    let key = |s: &swala_obs::Sample| match &s.labels[..] {
        [] => s.name.clone(),
        [(k, v)] => format!("{}{{{k}=\"{v}\"}}", s.name),
        _ => String::new(),
    };
    samples.iter().map(|s| (key(s), s.value)).collect()
}

/// The status pages show the registry and nothing else. Every number on
/// `/swala-status` is a sample of `/swala-metrics` with the same name,
/// label and value (a histogram by its count), read between a scrape
/// before the page and one after it; every ratio is the quotient of two
/// rows the page shows; every series is on the page. Node 0's
/// `/swala-cluster-status` shows node 1's per-peer series with node 1's
/// values.
#[test]
fn status_pages_show_exactly_the_registry() {
    for directory in DirectoryKind::ALL {
        let servers = two_node_cluster(directory);
        let mut c0 = HttpClient::new(servers[0].http_addr());
        let mut c1 = HttpClient::new(servers[1].http_addr());
        for i in 0..4 {
            c0.get(&format!("/cgi-bin/adl?id={i}&ms=0")).unwrap();
            c1.get(&format!("/cgi-bin/adl?id=1{i}&ms=0")).unwrap();
        }
        for s in &servers {
            assert!(s.flush_broadcasts(Duration::from_secs(5)));
        }

        let before = scrape(&mut c0);
        let page = String::from_utf8(c0.get("/swala-status").unwrap().body.into_vec()).unwrap();
        let after = scrape(&mut c0);
        let mut shown = std::collections::HashMap::new();
        for cells in rows(&page) {
            let (series, value) = match cells[..] {
                [series, value] => (series.to_string(), value),
                [series, count, _, _, _] => (count_of(series), count),
                [_, _, _] => continue,
                _ => panic!("unexpected row {cells:?}"),
            };
            let value: f64 = value.parse().unwrap();
            let scraped = |samples: &std::collections::HashMap<String, f64>| {
                *samples
                    .get(&series)
                    .unwrap_or_else(|| panic!("{series} not scraped"))
            };
            let (b, a) = (scraped(&before), scraped(&after));
            assert!(
                b.min(a) <= value && value <= b.max(a),
                "{directory:?}: {series} shows {value}, scraped {b} then {a}"
            );
            shown.insert(series.clone(), value);
        }
        for cells in rows(&page).into_iter().filter(|c| c.len() == 3) {
            let (part, whole) = cells[1].split_once(" &divide; ").unwrap();
            let ratio = shown[part] / shown[whole].max(1.0);
            assert_eq!(cells[2], format!("{ratio:.2}"), "{directory:?}: {cells:?}");
        }
        let uptime = shown["swala_uptime_seconds"];
        assert!(page.contains(&format!(" up {uptime}s")), "{page}");
        for m in servers[0].telemetry().registry().snapshot() {
            let series = match &m.label {
                Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", m.name),
                None => m.name.clone(),
            };
            let series = match m.value {
                swala_obs::MetricValue::Histogram(_) => count_of(&series),
                _ => series,
            };
            assert!(
                shown.contains_key(&series),
                "{directory:?}: {series} not shown"
            );
        }

        // Node 0's cluster page draws node 1 from node 1's own snapshot.
        let cluster =
            String::from_utf8(c0.get("/swala-cluster-status").unwrap().body.into_vec()).unwrap();
        let node1 = cluster
            .split("<h2>node1</h2>")
            .nth(1)
            .expect("node 1 drawn");
        let node1 = &node1[..node1.find("<h2>").unwrap()];
        let node1_rows = rows(node1);
        for name in [
            "swala_peer_state",
            "swala_peer_failures",
            "swala_broadcast_link_sent",
            "swala_broadcast_link_sent_bytes",
            "swala_broadcast_link_connected",
        ] {
            let shown = format!("{name}{{peer=\"0\"}}");
            let row = node1_rows
                .iter()
                .find(|cells| cells[0] == shown)
                .unwrap_or_else(|| panic!("{directory:?}: {shown} not on node 1's page"));
            let value = series(&servers[1], name, Some("0"));
            assert_eq!(row[1], value.to_string(), "{directory:?}: {shown}");
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
/// A hot key is a request target, written by any client: the cluster
/// page shows it as text, never as markup.
#[test]
fn cluster_status_escapes_hot_keys() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let resp = client.get("/cgi-bin/adl?id=<b>x</b>&ms=0").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let page = client.get("/swala-cluster-status").unwrap();
    let page = String::from_utf8(page.body.into_vec()).unwrap();
    assert!(
        page.contains("<td>/cgi-bin/adl?id=&lt;b&gt;x&lt;/b&gt;&amp;ms=0</td>"),
        "{page}"
    );
    assert!(!page.contains("<b>"), "{page}");
    server.shutdown();
}

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
    // writer per link, the cache ports' threads.
    assert!(threads("swala-request") >= 8.0, "{text}");
    assert!(threads("swala-notice-writer") >= 2.0, "{text}");
    for role in ["swala-cacher", "swala-cache-purge"] {
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
    assert_eq!(series(&servers[0], "swala_peer_failures", Some("1")), 1);
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

    let time = ManualClock::new();
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            monitors: vec![MonitorRule {
                key_prefix: "/cgi-bin/adl".to_string(),
                source: source.clone(),
            }],
            clock: time.clock(),
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=3&ms=1").unwrap();
    let hit = client.get("/cgi-bin/adl?id=3&ms=1").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));

    // Reindexed, with an mtime the first write cannot share (the kernel
    // stamps files from a coarse clock), and one poll interval on.
    std::fs::write(&source, "v2: reindexed").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&source)
        .unwrap()
        .set_modified(std::time::SystemTime::UNIX_EPOCH)
        .unwrap();
    time.advance(MONITOR_INTERVAL);
    wait_until("monitor invalidates", || {
        series(&server, "swala_monitor_invalidations", None) == 1
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
        let s1 = b1.start(vec![Some(addr0)]).unwrap();
        assert_eq!(
            s1.manager().directory().len(NodeId(0)),
            4,
            "synced at join ({directory:?})"
        );

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
