//! End-to-end tests for the cluster observability plane: federated
//! metrics (`/swala-cluster-metrics`, `/swala-cluster-status`), the
//! per-key heat sketch (`/swala-hotkeys`), slow-trace exemplars
//! (`/swala-traces?slow=1`) and the JSON access-log format.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, LogFormat, ServerOptions, SwalaServer};
use swala_cache::NodeId;
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;
use swala_obs::parse_exposition;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

fn cluster(n: u16) -> Vec<SwalaServer> {
    swala::start_cluster(n as usize, |_| {
        let options = ServerOptions {
            pool_size: 4,
            // The convergence waits below watch node 0's table reach
            // every peer, which only the replicated directory does.
            directory: swala_cache::DirectoryKind::Replicated,
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An address nothing listens on: bind, read the port, drop the
/// listener. Connects fail fast with ECONNREFUSED.
fn dead_addr() -> std::net::SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap()
}

/// Sum a counter family over its `node` label in a parsed exposition.
fn sum_over_nodes(samples: &[swala_obs::Sample], family: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == family)
        .map(|s| s.value as u64)
        .sum()
}

/// One labeled sample's value for a given node.
fn node_value(samples: &[swala_obs::Sample], family: &str, node: u16) -> Option<u64> {
    samples
        .iter()
        .find(|s| {
            s.name == family
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "node" && *v == node.to_string())
        })
        .map(|s| s.value as u64)
}

/// The tentpole's exactness contract: every node's samples pass through
/// the merged exposition verbatim, so per-node values match the node
/// handles' own counters and the sum over the `node` label equals the
/// arithmetic cluster total. Deterministic: all traffic completes (and
/// directories converge) before the scrape.
#[test]
fn cluster_metrics_merge_is_exact_across_four_nodes() {
    let servers = cluster(4);
    // Deterministic traffic: warm 3 keys on node 0, then remote-hit each
    // from every other node.
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let targets: Vec<String> = (0..3)
        .map(|i| format!("/cgi-bin/adl?id={i}&ms=0"))
        .collect();
    for t in &targets {
        c0.get(t).unwrap();
    }
    wait_until("directories converge", || {
        (0..4).all(|n| servers[n].manager().directory().len(NodeId(0)) == 3)
    });
    for s in &servers[1..] {
        let mut c = HttpClient::new(s.http_addr());
        for t in &targets {
            let r = c.get(t).unwrap();
            assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
        }
    }

    // Scrape via the last node — the merge must be node-order-agnostic.
    let mut c3 = HttpClient::new(servers[3].http_addr());
    let resp = c3.get("/swala-cluster-metrics").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let body = String::from_utf8(resp.body.into_vec()).unwrap();
    let samples = parse_exposition(&body).expect("merged exposition parses");

    for family in [
        "swala_cache_lookups",
        "swala_cache_local_hits",
        "swala_cache_remote_hits",
        "swala_cache_misses",
        "swala_cache_inserts",
    ] {
        let mut expect_total = 0u64;
        for (n, s) in servers.iter().enumerate() {
            let stats = s.cache_stats();
            let expect = match family {
                "swala_cache_lookups" => stats.lookups,
                "swala_cache_local_hits" => stats.local_hits,
                "swala_cache_remote_hits" => stats.remote_hits,
                "swala_cache_misses" => stats.misses,
                "swala_cache_inserts" => stats.inserts,
                _ => unreachable!(),
            };
            expect_total += expect;
            assert_eq!(
                node_value(&samples, family, n as u16),
                Some(expect),
                "{family} for node {n}"
            );
        }
        assert_eq!(
            sum_over_nodes(&samples, family),
            expect_total,
            "summing {family} over the node label"
        );
    }
    // The latency histograms merged too: the cluster-wide completed
    // request count covers at least the 3 misses + 9 remote hits.
    let hist_count = sum_over_nodes(&samples, "swala_request_duration_microseconds_count");
    assert!(hist_count >= 12, "merged histogram count: {hist_count}");
    // No peer failed during the scrape.
    assert_eq!(sum_over_nodes(&samples, "swala_cluster_scrape_failures"), 0);
    for s in servers {
        s.shutdown();
    }
}

/// A dead peer degrades the scrape to a partial snapshot: still 200,
/// local series present, and the failure counted. Once the failures
/// quarantine the peer, later scrapes skip it without dialing.
#[test]
fn cluster_scrape_degrades_to_partial_on_dead_peer() {
    let servers = cluster(2);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    c0.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    // Point node 0 at a dead address for its peer.
    servers[0].set_peer_cache_addr(NodeId(1), dead_addr());

    let resp = c0.get("/swala-cluster-metrics").unwrap();
    assert_eq!(resp.status, StatusCode::OK, "partial view is not an error");
    let body = String::from_utf8(resp.body.into_vec()).unwrap();
    let samples = parse_exposition(&body).unwrap();
    assert!(
        node_value(&samples, "swala_cache_lookups", 0).is_some(),
        "local series survive: {body}"
    );
    assert_eq!(
        node_value(&samples, "swala_cache_lookups", 1),
        None,
        "dead peer contributes nothing"
    );
    assert_eq!(
        node_value(&samples, "swala_cluster_scrape_failures", 0),
        Some(1),
        "the failure is counted in the same document"
    );

    // Scrape until the health tracker quarantines the peer; the counter
    // keeps rising (quarantine skips count as partial views too).
    wait_until("peer quarantined by scrape failures", || {
        c0.get("/swala-cluster-metrics").unwrap();
        servers[0]
            .peer_health()
            .iter()
            .any(|h| h.peer == NodeId(1) && h.state == swala_proto::PeerState::Quarantined)
    });
    let resp = c0.get("/swala-cluster-metrics").unwrap();
    let body = String::from_utf8(resp.body.into_vec()).unwrap();
    let samples = parse_exposition(&body).unwrap();
    assert!(node_value(&samples, "swala_cluster_scrape_failures", 0).unwrap() >= 2);

    // The HTML cluster view reports the degraded node rather than 500ing.
    let resp = c0.get("/swala-cluster-status").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let html = String::from_utf8(resp.body.into_vec()).unwrap();
    assert!(html.contains("no snapshot (partial scrape)"), "{html}");
    for s in servers {
        s.shutdown();
    }
}

/// `/swala-hotkeys` serves the local sketch; `?cluster=1` merges every
/// node's shipped top keys with summed counts.
#[test]
fn hotkeys_endpoint_ranks_local_and_cluster_wide() {
    let servers = cluster(2);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let mut c1 = HttpClient::new(servers[1].http_addr());
    for _ in 0..5 {
        c0.get("/cgi-bin/adl?id=hot&ms=0").unwrap();
    }
    c0.get("/cgi-bin/adl?id=cold&ms=0").unwrap();
    wait_until("directory replicated", || {
        servers[1].manager().directory().len(NodeId(0)) == 2
    });
    // Node 1 looks the hot key up 2 more times (remote hits observe too).
    for _ in 0..2 {
        c1.get("/cgi-bin/adl?id=hot&ms=0").unwrap();
    }

    let resp = c0.get("/swala-hotkeys").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    let json = String::from_utf8(resp.body.into_vec()).unwrap();
    let hot_pos = json.find("id=hot").expect("hot key listed");
    let cold_pos = json.find("id=cold").expect("cold key listed");
    assert!(hot_pos < cold_pos, "hot ranks above cold: {json}");
    assert!(json.contains("\"count\":5"), "local count exact: {json}");

    // Cluster view: 5 local + 2 remote lookups merge to 7.
    let resp = c0.get("/swala-hotkeys?cluster=1").unwrap();
    let json = String::from_utf8(resp.body.into_vec()).unwrap();
    assert!(json.contains("\"count\":7"), "merged count sums: {json}");
    // Sub-capacity sketches are exact: merged bounds collapse.
    assert!(json.contains("\"count_lower_bound\":7"), "{json}");
    for s in servers {
        s.shutdown();
    }
}

/// `?slow=1` returns the slow-exemplar set, which retains the slowest
/// trace per outcome class even after the ring churns past it.
#[test]
fn slow_trace_exemplars_survive_ring_churn() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            trace_ring: 4,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    // One slow miss, then enough fast hits to evict it from the ring.
    client.get("/cgi-bin/adl?id=slow&ms=30").unwrap();
    for _ in 0..8 {
        client.get("/cgi-bin/adl?id=slow&ms=30").unwrap();
    }

    let ring = client.get("/swala-traces?n=4").unwrap();
    let ring_json = String::from_utf8(ring.body.into_vec()).unwrap();
    assert!(
        !ring_json.contains("\"outcome\":\"miss\""),
        "ring churned past the miss: {ring_json}"
    );
    let slow = client.get("/swala-traces?slow=1").unwrap();
    assert_eq!(slow.status, StatusCode::OK);
    let slow_json = String::from_utf8(slow.body.into_vec()).unwrap();
    assert!(
        slow_json.contains("\"outcome\":\"miss\""),
        "exemplar retained the slow miss: {slow_json}"
    );
    server.shutdown();
}

/// The status page's identity header and links to the new endpoints.
#[test]
fn status_page_carries_build_header_and_links() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let page = client.get("/swala-status").unwrap();
    let html = String::from_utf8(page.body.into_vec()).unwrap();
    assert!(
        html.contains(&format!("swala v{}", env!("CARGO_PKG_VERSION"))),
        "{html}"
    );
    assert!(html.contains("up 0s") || html.contains("up 1s"), "{html}");
    for link in [
        "/swala-cluster-metrics",
        "/swala-cluster-status",
        "/swala-hotkeys",
        "/swala-traces?slow=1",
    ] {
        assert!(html.contains(link), "missing link {link}: {html}");
    }
    server.shutdown();
}

/// `log_format json` writes one JSON object per request with the trace
/// fields inline.
#[test]
fn json_access_log_through_a_live_server() {
    let dir = std::env::temp_dir().join(format!("swala-jsonlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("access.json");
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            access_log: Some(path.clone()),
            log_format: LogFormat::Json,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=log&ms=0").unwrap();
    server.shutdown();

    let text = std::fs::read_to_string(&path).unwrap();
    let line = text.lines().next().expect("one log line");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"method\":\"GET\""), "{line}");
    assert!(line.contains("\"trace\":"), "trace fields inline: {line}");
    let _ = std::fs::remove_dir_all(dir);
}
