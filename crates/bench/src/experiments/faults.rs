//! Failure-model experiment: a flapping peer versus a healthy cluster.
//!
//! Not a paper table — the 1998 evaluation never measured failures — but
//! the natural companion to §4.2's fault-tolerance claims: a 4-node
//! cluster whose entries live on one flapping node (half its inbound
//! connections injected dead, probed back to life every 250 ms) must
//! keep answering every request correctly. The cost shows up as a lower
//! cooperative hit rate and a fatter p99, never as an error. The same
//! seeded [`FaultInjector`] used by `tests/chaos.rs` drives the flap, so
//! the run is reproducible.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::NodeId;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_proto::{FaultAction, FaultInjector, FaultRule};

struct Outcome {
    hit_rate: f64,
    mean_ms: f64,
    p99_ms: f64,
    fallbacks: u64,
    retries: u64,
    quarantine_skips: u64,
    node_evictions: u64,
    /// Cluster-merged server-side remote-hit histogram — the nodes' own
    /// telemetry view of the same traffic the client timed.
    remote_hist: swala_obs::HistogramSnapshot,
}

/// Warm one node with every target, then hammer the other three with a
/// round-robin replay; with `flapping`, half of all connections toward
/// the owning node are dropped by the injector.
fn drive(flapping: bool, requests: usize, num_targets: usize, seed: u64) -> Outcome {
    let inj = FaultInjector::seeded(seed);
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 4,
        work: WorkKind::Sleep,
        node: ServerOptions {
            faults: Some(Arc::clone(&inj)),
            fetch_retries: 2,
            fetch_backoff: Duration::from_millis(2),
            quarantine_after: 3,
            probe_interval: Duration::from_millis(250),
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .expect("cluster");
    let targets: Vec<String> = (0..num_targets)
        .map(|i| format!("/cgi-bin/adl?id={i}&ms=2"))
        .collect();
    // All entries live on node 3 — the node that will flap.
    let mut c3 = HttpClient::new(cluster.node(3).http_addr());
    for t in &targets {
        c3.get(t).expect("warm");
    }
    assert!(cluster.wait_for_directory_convergence(targets.len(), Duration::from_secs(10)));

    if flapping {
        inj.add_rule(FaultRule::toward(NodeId(3), FaultAction::Drop).with_probability(0.5));
    }

    let mut clients: Vec<HttpClient> = (0..3)
        .map(|n| HttpClient::new(cluster.node(n).http_addr()))
        .collect();
    let mut lat_ms = Vec::with_capacity(requests);
    let mut hits = 0u64;
    let mut fallbacks = 0u64;
    for i in 0..requests {
        let c = &mut clients[i % 3];
        let t0 = Instant::now();
        let r = c.get(&targets[i % targets.len()]).expect("request");
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(r.status.is_success(), "a flapping peer must never 5xx");
        match r.headers.get("X-Swala-Cache") {
            Some("local-hit") | Some("remote-hit") => hits += 1,
            Some("remote-unreachable-fallback")
            | Some("quarantined-peer-fallback")
            | Some("false-hit-fallback") => fallbacks += 1,
            _ => {}
        }
    }
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = lat_ms[((lat_ms.len() as f64 * 0.99).ceil() as usize - 1).min(lat_ms.len() - 1)];
    let mean = lat_ms.iter().sum::<f64>() / lat_ms.len() as f64;
    let (retries, quarantine_skips) = cluster.nodes().iter().fold((0, 0), |(r, q), s| {
        let st = s.request_stats();
        (r + st.fetch_retries, q + st.quarantine_skips)
    });
    let node_evictions = cluster.total_cache_stat(|s| s.node_evictions);
    let mut remote_hist = swala_obs::HistogramSnapshot::empty();
    for s in cluster.nodes() {
        remote_hist.merge(&s.telemetry().outcome_snapshot(swala_obs::Outcome::Remote));
    }
    cluster.shutdown();
    Outcome {
        hit_rate: hits as f64 / requests as f64,
        mean_ms: mean,
        p99_ms: p99,
        fallbacks,
        retries,
        quarantine_skips,
        node_evictions,
        remote_hist,
    }
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let requests = if quick { 240 } else { 1200 };
    let num_targets = if quick { 24 } else { 60 };
    let seed = 42;

    let mut report = TableReport::new(
        "faults",
        "Failure model: flapping entry owner vs healthy baseline (4 nodes)",
        &[
            "scenario",
            "hit rate",
            "mean",
            "p99",
            "fallbacks",
            "retries",
            "qskips",
            "evictions",
        ],
    );
    let mut scenarios: Vec<(&str, Outcome)> = Vec::new();
    for (label, key, flapping) in [
        ("healthy", "healthy", false),
        ("flapping owner", "flapping_owner", true),
    ] {
        let o = drive(flapping, requests, num_targets, seed);
        report.row(vec![
            label.into(),
            format!("{:.1}%", o.hit_rate * 1e2),
            format!("{} ms", fmt_ms(o.mean_ms)),
            format!("{} ms", fmt_ms(o.p99_ms)),
            o.fallbacks.to_string(),
            o.retries.to_string(),
            o.quarantine_skips.to_string(),
            o.node_evictions.to_string(),
        ]);
        report.note(format!(
            "{label}: server-side remote-hit histogram (cluster-merged): \
             {} obs, p50 {} us, p99 {} us, max {} us",
            o.remote_hist.count,
            o.remote_hist.p50(),
            o.remote_hist.p99(),
            o.remote_hist.max,
        ));
        scenarios.push((key, o));
    }
    let scenario_json: Vec<String> = scenarios
        .iter()
        .map(|(key, o)| {
            format!(
                "    \"{key}\": {{\"hit_rate\": {:.4}, \"client_mean_ms\": {:.4}, \
                 \"client_p99_ms\": {:.4}, \"fallbacks\": {}, \"retries\": {}, \
                 \"remote_hist\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"max_us\": {}}}}}",
                o.hit_rate,
                o.mean_ms,
                o.p99_ms,
                o.fallbacks,
                o.retries,
                o.remote_hist.count,
                o.remote_hist.p50(),
                o.remote_hist.p99(),
                o.remote_hist.max,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"faults\",\n  \"quick\": {quick},\n  \
         \"requests\": {requests},\n  \"seed\": {seed},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        scenario_json.join(",\n"),
    );
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    report.note("client and server-side distributions written to BENCH_faults.json");
    report.note(format!(
        "seed {seed}: half of all connections toward the owning node dropped; probe interval 250 ms"
    ));
    report.note("every request returns 200 in both scenarios — failures cost hit rate and tail latency, never correctness");
    report
}
