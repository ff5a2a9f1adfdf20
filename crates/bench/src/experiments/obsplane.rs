//! Cluster-observability-plane gate: one `/swala-cluster-metrics`
//! scrape must fan out to every peer and merge exactly.
//!
//! Run by `scripts/check.sh` as `tables obsplane`; two parts:
//!
//! 1. **Scrape fan-out at N=8** — drive a deterministic traffic mix
//!    (misses, warm local hits, remote hits) through an eight-node
//!    pseudo-cluster, then time `GET /swala-cluster-metrics` on node 0,
//!    which pulls the other seven registries over the cache protocol
//!    and renders one merged exposition.
//! 2. **Merged-vs-summed exactness** — for every request-driven cache
//!    counter family, the merged page's `{node="n"}` sample must equal
//!    node n's own `cache_stats()` handle, and the sum over the node
//!    label must equal the arithmetic sum of the handles. Counters are
//!    passed through verbatim (no float re-aggregation), so equality is
//!    exact, not approximate. A partial scrape would also fail here:
//!    `swala_cluster_scrape_failures` must stay 0 with all peers up.
//!
//! What telemetry costs the hot path is not gated here: two short
//! latency runs on one host differ by more than the cost being asked
//! about. That is a question for a `benchmark/` A/B, obs off vs on.
//!
//! Results append to `BENCH_obsplane.json` for the CI gate.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::time::{Duration, Instant};
use swala::HttpClient;
use swala_cache::stats::StatsSnapshot;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_obs::{parse_exposition, Sample};

/// Fan-out width for the federation gate (the acceptance criterion's N).
const NODES: usize = 8;

/// The request-driven cache counter families the exactness gate checks.
/// Broadcast-driven counters (`updates_applied`, `broadcasts_sent`…)
/// are excluded: notices may still be in flight when the scrape lands,
/// so their handle reads would race the snapshot.
type CounterField = fn(&StatsSnapshot) -> u64;
const FAMILIES: [(&str, CounterField); 5] = [
    ("swala_cache_lookups", |s| s.lookups),
    ("swala_cache_local_hits", |s| s.local_hits),
    ("swala_cache_remote_hits", |s| s.remote_hits),
    ("swala_cache_misses", |s| s.misses),
    ("swala_cache_inserts", |s| s.inserts),
];

/// The merged exposition's value for `family{node="node"}`.
fn node_value(samples: &[Sample], family: &str, node: usize) -> Option<f64> {
    let want = node.to_string();
    samples
        .iter()
        .find(|s| s.name == family && s.labels.iter().any(|(k, v)| k == "node" && *v == want))
        .map(|s| s.value)
}

/// Sum of a family over every node label in the merged exposition.
fn cluster_sum(samples: &[Sample], family: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == family)
        .map(|s| s.value)
        .sum()
}

/// Median/mean over per-request latencies, in milliseconds.
struct Dist {
    mean: f64,
    p50: f64,
    p95: f64,
}

fn dist(mut samples: Vec<f64>) -> Dist {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Dist {
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
    }
}

/// Time `n` requests for `target`, asserting success, returning ms each.
fn timed(client: &mut HttpClient, n: usize, target: &str) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let resp = client.get(target).expect("request");
            assert!(resp.status.is_success(), "failed: {target}");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let scrapes = if quick { 10 } else { 40 };

    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: NODES,
        ..Default::default()
    })
    .expect("start cluster");

    // Deterministic mix, all work_ms=0: every node takes 2 misses and
    // 3 warm local hits on its own keys, then 1 remote hit against its
    // right neighbour's first key.
    for i in 0..NODES {
        let mut c = HttpClient::new(cluster.node(i).http_addr());
        for j in 0..2 {
            c.get(&format!("/cgi-bin/adl?id=ob{i}-{j}&ms=0"))
                .expect("miss");
        }
        for _ in 0..3 {
            c.get(&format!("/cgi-bin/adl?id=ob{i}-0&ms=0"))
                .expect("local hit");
        }
    }
    assert!(
        cluster.wait_for_directory_convergence(2 * NODES, Duration::from_secs(10)),
        "directories never converged on {} entries",
        2 * NODES
    );
    for i in 0..NODES {
        let mut c = HttpClient::new(cluster.node(i).http_addr());
        let neighbour = (i + 1) % NODES;
        let r = c
            .get(&format!("/cgi-bin/adl?id=ob{neighbour}-0&ms=0"))
            .expect("remote hit");
        assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
    }
    // Let notice traffic settle so handle reads cannot race the scrape.
    assert!(cluster.quiesce(Duration::from_secs(10)), "cluster quiesce");

    // Scrape fan-out: node 0 pulls the other seven registries per GET.
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let scrape_ms = dist(timed(&mut c0, scrapes, "/swala-cluster-metrics"));
    let resp = c0.get("/swala-cluster-metrics").expect("final scrape");
    assert!(resp.status.is_success());
    let text = String::from_utf8(resp.body.to_vec()).expect("utf8 exposition");
    let samples =
        parse_exposition(&text).unwrap_or_else(|e| panic!("malformed merged exposition: {e}"));

    let mut report = TableReport::new(
        "obsplane",
        "Cluster observability plane: merged scrape exactness",
        &["counter family", "merged sum", "per-node sum", "nodes"],
    );

    // Exactness gate: merged values are the per-node handles, verbatim.
    let mut totals: Vec<(&str, u64)> = Vec::new();
    for (family, field) in FAMILIES {
        let mut arith: u64 = 0;
        for n in 0..NODES {
            let want = field(&cluster.node(n).cache_stats());
            let got = node_value(&samples, family, n)
                .unwrap_or_else(|| panic!("merged exposition lacks {family}{{node=\"{n}\"}}"));
            assert_eq!(
                got, want as f64,
                "{family}{{node=\"{n}\"}} diverged from the node's own handle"
            );
            arith += want;
        }
        let merged = cluster_sum(&samples, family);
        assert_eq!(
            merged, arith as f64,
            "{family}: sum over the node label must equal the per-node sum exactly"
        );
        totals.push((family, arith));
        report.row(vec![
            family.into(),
            format!("{merged}"),
            format!("{arith}"),
            format!("{NODES}"),
        ]);
    }
    // All peers were reachable, so the scrape must have been complete.
    let failures = cluster_sum(&samples, "swala_cluster_scrape_failures");
    assert_eq!(
        failures, 0.0,
        "scrape went partial with every peer up (swala_cluster_scrape_failures)"
    );
    cluster.shutdown();

    let totals_json: Vec<String> = totals
        .iter()
        .map(|(f, v)| format!("    \"{f}\": {v}"))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"obsplane\",\n  \"quick\": {quick},\n  \
         \"nodes\": {NODES},\n  \
         \"scrape\": {{\"samples\": {scrapes}, \"mean_ms\": {:.4}, \"p50_ms\": {:.4}, \
         \"p95_ms\": {:.4}, \"series\": {}}},\n  \
         \"merged_equals_sum\": true,\n  \"scrape_failures\": 0,\n  \
         \"cluster_totals\": {{\n{}\n  }}\n}}\n",
        scrape_ms.mean,
        scrape_ms.p50,
        scrape_ms.p95,
        samples.len(),
        totals_json.join(",\n"),
    );
    std::fs::write("BENCH_obsplane.json", &json).expect("write BENCH_obsplane.json");

    report.note(format!(
        "scrape fan-out at N={NODES}: p50 {} ms, p95 {} ms over {scrapes} scrapes \
         ({} samples per page)",
        fmt_ms(scrape_ms.p50),
        fmt_ms(scrape_ms.p95),
        samples.len(),
    ));
    report.note(
        "exactness: every {node} sample equals that node's own counter handle; \
         sums over the node label are exact",
    );
    report.note("results written to BENCH_obsplane.json");
    report
}
