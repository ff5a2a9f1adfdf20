//! Cooperative vs stand-alone caching — the §5.3 comparison, live.
//!
//! Replays the paper's fixed 1600-request / 1122-unique trace against a
//! real 4-node cluster twice: once cooperating, once as four oblivious
//! stand-alone caches, with the tiny 20-entry caches of Table 6. The
//! same configurations also run through the deterministic simulator so
//! you can see live-vs-model agreement.
//!
//! ```text
//! cargo run --release --example cooperative_vs_standalone
//! ```

use swala::ServerOptions;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_sim::{simulate, SimConfig};
use swala_workload::section53_trace;

const NODES: usize = 4;
const CAPACITY: usize = 20;

fn live_hits(cooperative: bool, targets: &[String]) -> u64 {
    // Stand-alone = N one-node clusters that never hear about each other.
    let clusters: Vec<SwalaCluster> = if cooperative {
        vec![SwalaCluster::start(&ClusterConfig {
            nodes: NODES,
            work: WorkKind::Sleep,
            node: ServerOptions {
                capacity: CAPACITY,
                ..ClusterConfig::default().node
            },
            ..Default::default()
        })
        .expect("cluster")]
    } else {
        (0..NODES)
            .map(|_| {
                SwalaCluster::start(&ClusterConfig {
                    nodes: 1,
                    work: WorkKind::Sleep,
                    node: ServerOptions {
                        capacity: CAPACITY,
                        ..ClusterConfig::default().node
                    },
                    ..Default::default()
                })
                .expect("node")
            })
            .collect()
    };
    let addrs: Vec<_> = clusters.iter().flat_map(|c| c.http_addrs()).collect();
    // Round-robin the trace across nodes, sequentially, mirroring the
    // simulator's routing so counts are comparable.
    let mut conns: Vec<swala::HttpClient> =
        addrs.iter().map(|a| swala::HttpClient::new(*a)).collect();
    for (i, t) in targets.iter().enumerate() {
        conns[i % addrs.len()].get(t).expect("request");
    }
    let hits = clusters
        .iter()
        .map(|c| c.total_cache_stat(|s| s.local_hits + s.remote_hits))
        .sum();
    for c in clusters {
        c.shutdown();
    }
    hits
}

fn main() {
    let trace = section53_trace(53, 1);
    let upper = trace.upper_bound_hits() as u64;
    let targets: Vec<String> = trace.requests.iter().map(|r| r.target.clone()).collect();
    println!(
        "trace: {} requests, {} unique, upper bound {} hits; {} nodes × {}-entry caches\n",
        trace.len(),
        trace.unique_targets(),
        upper,
        NODES,
        CAPACITY
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8}",
        "mode", "live hits", "sim hits", "% UB"
    );
    for cooperative in [false, true] {
        let live = live_hits(cooperative, &targets);
        let sim = simulate(
            &SimConfig {
                nodes: NODES,
                capacity: CAPACITY,
                cooperative,
                ..Default::default()
            },
            &trace,
        )
        .hits();
        println!(
            "{:<14} {:>10} {:>10} {:>7.1}%",
            if cooperative {
                "cooperative"
            } else {
                "stand-alone"
            },
            live,
            sim,
            100.0 * live as f64 / upper as f64
        );
    }
    println!("\nthe cooperative cluster turns cross-node repeats into remote hits and\npools 4×{CAPACITY} entries; stand-alone nodes each thrash their own tiny cache.");
}
