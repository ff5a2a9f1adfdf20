//! Table 3 — response-time overhead of insertion + broadcast (§5.2).
//!
//! "We send 180 requests, each of which will run for one second on an
//! unloaded CPU, to one of the nodes in the group, and the response time
//! from this node is measured." Every request is unique and cacheable,
//! so caching mode pays miss + store + insert + broadcast on each. The
//! claim: the increase over no-cache mode is "insignificant and
//! independent of the number of server nodes".

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::time::Instant;
use swala::{HttpClient, ServerOptions};
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};

pub fn run() -> TableReport {
    let node_counts: &[usize] = if scale::quick() { &[2, 4] } else { &[2, 4, 8] };
    let requests = if scale::quick() { 60 } else { 180 };
    let ms = scale::ms_per_paper_second().round() as u64;

    let mut report = TableReport::new(
        "table3",
        "Insertion + broadcast overhead: mean response (ms) of unique 1-paper-second requests",
        &["#nodes", "no cache", "coop cache", "increase"],
    );

    for &nodes in node_counts {
        let mut means = [0.0f64; 2];
        for (i, caching) in [false, true].into_iter().enumerate() {
            let cluster = SwalaCluster::start(&ClusterConfig {
                nodes,
                work: WorkKind::Sleep,
                cores_per_node: Some(1),
                node: ServerOptions {
                    caching_enabled: caching,
                    pool_size: 4,
                    ..ClusterConfig::default().node
                },
            })
            .expect("start cluster");
            let mut client = HttpClient::new(cluster.node(0).http_addr());
            let mut total = 0.0;
            for n in 0..requests {
                // Unique per run and per mode: always a miss.
                let target = format!("/cgi-bin/adl?id=9{i}{nodes}{n:04}&ms={ms}");
                let t0 = Instant::now();
                let resp = client.get(&target).expect("request");
                assert!(resp.status.is_success());
                total += t0.elapsed().as_secs_f64();
            }
            means[i] = total / requests as f64 * 1e3;
            if caching {
                let stats = cluster.node(0).cache_stats();
                assert_eq!(stats.inserts, requests as u64, "every request must insert");
                assert_eq!(
                    stats.broadcasts_sent, requests as u64,
                    "every insert broadcasts once"
                );
            }
            cluster.shutdown();
        }
        let (nc, cc) = (means[0], means[1]);
        report.row(vec![
            nodes.to_string(),
            fmt_ms(nc),
            fmt_ms(cc),
            format!("{:+.2}", cc - nc),
        ]);
    }
    report.note("paper: \"the miss and insert overhead is insignificant and independent of the number of server nodes\" (exact cell values lost in the available text)");
    report.note(format!(
        "scale: 1 paper-second = {ms} live ms; all requests sequential to node 0"
    ));
    report
}
