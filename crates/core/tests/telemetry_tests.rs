//! End-to-end tests for the telemetry layer: the Prometheus exposition
//! endpoint, cross-node trace-id propagation on remote hits, the
//! enriched access log, and the disabled-telemetry degradation mode.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{DirectoryKind, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_obs::{parse_exposition, Outcome};
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
    for _ in 0..3 {
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
    let samples = parse_exposition(&text).expect("exposition must parse");

    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("missing sample {name} in:\n{text}"))
            .value
    };
    // 7 dynamic requests processed before the scrape; the scrape itself
    // is in flight, so `requests` counts at least those 7.
    assert!(value("swala_http_requests") >= 7.0);
    assert_eq!(value("swala_http_dynamic"), 7.0);
    assert_eq!(value("swala_cache_inserts"), 4.0);
    assert_eq!(value("swala_cache_local_hits"), 3.0);

    // Histogram twin: the per-outcome duration histograms must agree
    // with the counter view of the same traffic.
    let hist_count: f64 = samples
        .iter()
        .filter(|s| s.name == "swala_request_duration_microseconds_count")
        .map(|s| s.value)
        .sum();
    assert!(
        hist_count >= 7.0,
        "duration histograms saw {hist_count} requests"
    );
    let local_mem: f64 = samples
        .iter()
        .filter(|s| {
            s.name == "swala_request_duration_microseconds_count"
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "outcome" && v == "local-mem")
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(local_mem, 3.0, "warm hits land in the local-mem histogram");
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
    client.get("/cgi-bin/adl?id=5&ms=0").unwrap();
    client.get("/cgi-bin/adl?id=5&ms=0").unwrap();
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains(" out=miss "), "{}", lines[0]);
    assert!(lines[1].contains(" out=local-mem "), "{}", lines[1]);
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
