//! Digital-library scenario: the paper's motivating workload.
//!
//! A four-node Swala cluster serves a synthetic Alexandria Digital
//! Library request stream — expensive, frequently repeated map/search
//! CGIs plus cheap file fetches — once with cooperative caching and once
//! without, and reports the §5.2-style comparison.
//!
//! ```text
//! cargo run --release --example digital_library
//! ```

use swala::ServerOptions;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_workload::{
    materialize_docroot, synthesize_adl_trace, AdlTraceConfig, LoadGenerator, RequestKind,
};

fn main() -> std::io::Result<()> {
    let nodes = 4;
    let clients = 8;

    // A 600-request slice of the calibrated ADL trace; 1 paper-second of
    // CGI work runs as 10 live milliseconds.
    let trace = synthesize_adl_trace(&AdlTraceConfig {
        live_ms_per_paper_second: 10.0,
        ..AdlTraceConfig::scaled_to(600)
    });
    let targets: Vec<String> = trace
        .requests
        .iter()
        .filter(|r| r.kind == RequestKind::Dynamic)
        .map(|r| r.target.clone())
        .collect();
    println!(
        "ADL workload: {} dynamic requests, {} unique, {} repeats",
        targets.len(),
        trace.unique_targets(),
        trace.upper_bound_hits()
    );

    let docroot = std::env::temp_dir().join("swala-example-adl-docroot");
    materialize_docroot(&docroot)?;

    for caching in [false, true] {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes,
            work: WorkKind::Sleep,
            cores_per_node: Some(1),
            node: ServerOptions {
                caching_enabled: caching,
                docroot: Some(docroot.clone()),
                ..ClusterConfig::default().node
            },
        })?;
        let report = LoadGenerator::new(clients).replay_shared(&cluster.http_addrs(), &targets);
        let hits = cluster.total_cache_stat(|s| s.local_hits + s.remote_hits);
        let remote = cluster.total_cache_stat(|s| s.remote_hits);
        println!(
            "{:<14} mean {:>7.1?}  p95 {:>7.1?}  throughput {:>6.0} req/s  hits {} ({} remote)  errors {}",
            if caching { "cooperative:" } else { "no cache:" },
            report.latency.mean,
            report.latency.p95,
            report.throughput(),
            hits,
            remote,
            report.errors,
        );
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(docroot);
    Ok(())
}
