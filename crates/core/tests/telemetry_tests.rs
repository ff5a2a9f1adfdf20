//! End-to-end tests for the telemetry layer: the Prometheus exposition
//! endpoint, cross-node trace-id propagation on remote hits, the
//! enriched access log, and the disabled-telemetry degradation mode.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{DirectoryKind, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_obs::{lookup, parse_exposition, Outcome};
use swala_proto::FaultInjector;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

/// Deterministic replay seed: `SWALA_CHAOS_SEED` if set, 42 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("SWALA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The keys the two-node tests warm on node 0 are homed at node 1 on the
/// partitioned ring, so under either directory node 1 hears of them.
fn two_node_cluster(directory: DirectoryKind) -> Vec<SwalaServer> {
    // A (rule-free) seeded injector keeps the transport deterministic
    // under SWALA_CHAOS_SEED replay, as the chaos tests do.
    let faults = FaultInjector::seeded(chaos_seed());
    swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 4,
            faults: Some(Arc::clone(&faults)),
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

/// Poll a node's trace ring until a trace with `outcome` appears.
fn wait_for_trace(server: &SwalaServer, outcome: Outcome) -> swala_obs::CompletedTrace {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(t) = server
            .telemetry()
            .last_traces(32)
            .into_iter()
            .find(|t| t.outcome == outcome)
        {
            return t;
        }
        assert!(
            Instant::now() < deadline,
            "no {} trace recorded",
            outcome.as_str()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn metrics_endpoint_is_valid_exposition_with_consistent_twins() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    for i in 0..4 {
        client.get(&format!("/cgi-bin/adl?id={i}&ms=0")).unwrap();
    }
    // The first hit reads the store and promotes the body; the next
    // three are served from memory.
    for _ in 0..4 {
        client.get("/cgi-bin/adl?id=0&ms=0").unwrap();
    }
    // A trace is finished just after its response bytes leave; wait for
    // the last one to land before scraping.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.telemetry().outcome_snapshot(Outcome::LocalMem).count < 3 {
        assert!(
            Instant::now() < deadline,
            "local-mem histogram never filled"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let resp = client.get("/swala-metrics").unwrap();
    assert_eq!(
        resp.headers.get("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    parse_exposition(&text).expect("exposition must parse");

    // The same values, read from the registry after the scrape (which
    // counts as a request of its own).
    let metrics = server.telemetry().registry().snapshot();
    assert!(lookup(&metrics, "swala_http_requests", None) >= Some(8));
    assert_eq!(lookup(&metrics, "swala_http_dynamic", None), Some(8));
    assert_eq!(lookup(&metrics, "swala_cache_inserts", None), Some(4));
    assert_eq!(lookup(&metrics, "swala_cache_local_hits", None), Some(4));
    assert_eq!(lookup(&metrics, "swala_cache_store_reads", None), Some(1));

    // Histogram twin: the per-outcome duration histograms must agree
    // with the counter view of the same traffic.
    let hist = "swala_request_duration_microseconds";
    let outcome_count = |outcome: Outcome| lookup(&metrics, hist, Some(outcome.as_str()));
    let hist_count: u64 = Outcome::ALL.into_iter().filter_map(outcome_count).sum();
    assert!(
        hist_count >= 8,
        "duration histograms saw {hist_count} requests"
    );
    assert_eq!(
        outcome_count(Outcome::LocalDisk),
        Some(1),
        "the first hit lands in the local-disk histogram"
    );
    assert_eq!(
        outcome_count(Outcome::LocalMem),
        Some(3),
        "warm hits land in the local-mem histogram"
    );
    server.shutdown();
}

#[test]
fn remote_hit_carries_one_trace_id_across_both_nodes() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let target = "/cgi-bin/adl?id=77&ms=0";

        // Warm node 0, then hit the same key from node 1 → remote fetch.
        HttpClient::new(nodes[0].http_addr()).get(target).unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);
        let resp = HttpClient::new(nodes[1].http_addr()).get(target).unwrap();
        assert_eq!(resp.headers.get("X-Swala-Cache"), Some("remote-hit"));

        // Requester side: the trace ring holds a Remote-outcome trace that
        // names node 0 as the owner. The trace lands in the ring just after
        // the response bytes leave, so poll briefly.
        let remote = wait_for_trace(&nodes[1], Outcome::Remote);
        assert_eq!(remote.owner, Some(0));
        assert!(
            remote.stage_summary().contains("remote-fetch:"),
            "{}",
            remote.stage_summary()
        );
        // Trace ids are node-tagged: node 1 minted this one.
        assert_eq!(remote.id >> 48, 1);

        // Owner side: the fetch daemon adopted the requester's id, so the
        // same 64-bit id appears in node 0's ring with an owner-serve span.
        let serve = wait_for_trace(&nodes[0], Outcome::OwnerServe);
        assert_eq!(
            serve.id, remote.id,
            "owner {:016x} vs requester {:016x}",
            serve.id, remote.id
        );

        // And both `/swala-traces` dumps expose the shared id as hex.
        let hex = format!("{:016x}", remote.id);
        for node in &nodes {
            let body = HttpClient::new(node.http_addr())
                .get("/swala-traces?n=32")
                .unwrap()
                .body;
            let json = String::from_utf8(body.to_vec()).unwrap();
            assert!(json.contains(&hex), "node dump lacks {hex}: {json}");
        }
        for n in nodes {
            n.shutdown();
        }
    }
}

#[test]
fn access_log_lines_carry_trace_suffix() {
    let dir = std::env::temp_dir().join(format!("swala-obs-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            access_log: Some(log_path.clone()),
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    for _ in 0..3 {
        client.get("/cgi-bin/adl?id=5&ms=0").unwrap();
    }
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains(" out=miss "), "{}", lines[0]);
    // The first hit reads the store and promotes; the second is warm.
    assert!(lines[1].contains(" out=local-disk "), "{}", lines[1]);
    assert!(lines[2].contains(" out=local-mem "), "{}", lines[2]);
    for line in &lines {
        assert!(line.contains(" trace="), "{line}");
        assert!(line.contains(" total_us="), "{line}");
        // The CLF prefix must stay intact ahead of the suffix, so the
        // log-analysis pipeline keeps parsing enriched lines.
        assert!(
            line.contains("\"GET /cgi-bin/adl?id=5&ms=0 HTTP/1.0\" 200 "),
            "{line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_telemetry_still_scrapes_counters_but_keeps_no_traces() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            obs_enabled: false,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=3&ms=0").unwrap();
    client.get("/cgi-bin/adl?id=3&ms=0").unwrap();

    assert!(!server.telemetry().enabled());
    let metrics = client.get("/swala-metrics").unwrap();
    let text = String::from_utf8(metrics.body.to_vec()).unwrap();
    let samples = parse_exposition(&text).unwrap();
    // Counters still work (they cost the same atomics either way)...
    assert!(samples
        .iter()
        .any(|s| s.name == "swala_http_requests" && s.value >= 2.0));
    // ...but no histogram observations and no retained traces.
    let hist: f64 = samples
        .iter()
        .filter(|s| s.name == "swala_request_duration_microseconds_count")
        .map(|s| s.value)
        .sum();
    assert_eq!(hist, 0.0);
    let traces = client.get("/swala-traces").unwrap();
    assert_eq!(
        String::from_utf8(traces.body.to_vec()).unwrap().trim(),
        "[]"
    );
    server.shutdown();
}

/// The count twin on two nodes with remote hits: each node's HTTP-facing
/// duration histograms (every outcome but owner-serve, which the cache
/// daemon records) count exactly the requests `swala_http_requests`
/// counts, less the scrape still in flight.
#[test]
fn duration_histograms_count_every_http_request_on_two_nodes() {
    let nodes = two_node_cluster(DirectoryKind::Replicated);
    // Node 0: 4 misses, then 6 warm local hits. Node 1: 5 remote hits on
    // node 0's entry, then 2 misses of its own.
    let mut c0 = HttpClient::new(nodes[0].http_addr());
    for i in 0..4 {
        c0.get(&format!("/cgi-bin/adl?id=g{i}&ms=0")).unwrap();
    }
    for _ in 0..6 {
        c0.get("/cgi-bin/adl?id=g0&ms=0").unwrap();
    }
    wait_for_remote_entry(&nodes[1], NodeId(0), 4);
    let mut c1 = HttpClient::new(nodes[1].http_addr());
    for _ in 0..5 {
        let r = c1.get("/cgi-bin/adl?id=g1&ms=0").unwrap();
        assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
    }
    for i in 0..2 {
        c1.get(&format!("/cgi-bin/adl?id=n1-{i}&ms=0")).unwrap();
    }

    let http_facing = |outcome: &str| outcome != Outcome::OwnerServe.as_str();
    for (n, (node, client)) in nodes.iter().zip([&mut c0, &mut c1]).enumerate() {
        // A trace finishes just after its response bytes leave.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let metrics = node.telemetry().registry().snapshot();
            let requests = lookup(&metrics, "swala_http_requests", None).unwrap();
            let traced: u64 = Outcome::ALL
                .iter()
                .filter(|o| http_facing(o.as_str()))
                .map(|o| node.telemetry().outcome_snapshot(*o).count)
                .sum();
            if traced == requests {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {n}: histograms never caught up ({traced} != {requests})"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let resp = client.get("/swala-metrics").unwrap();
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        let samples = parse_exposition(&text).expect("exposition must parse");
        let requests = samples
            .iter()
            .find(|s| s.name == "swala_http_requests" && s.labels.is_empty())
            .unwrap_or_else(|| panic!("node {n}: no swala_http_requests in:\n{text}"))
            .value;
        let histogram_total: f64 = samples
            .iter()
            .filter(|s| {
                s.name == "swala_request_duration_microseconds_count"
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "outcome" && http_facing(v))
            })
            .map(|s| s.value)
            .sum();
        assert_eq!(
            histogram_total,
            requests - 1.0,
            "node {n}: the scrape is the one request without a finished trace\n{text}"
        );
    }
    drop((c0, c1));
    for n in nodes {
        n.shutdown();
    }
}
