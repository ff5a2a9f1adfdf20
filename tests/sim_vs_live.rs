//! The deterministic simulator and the live TCP cluster must agree on
//! hit counts when replaying the same trace with the same routing — the
//! property that lets Tables 5/6 be regenerated by the simulator while
//! the live system stays honest.

use std::time::Duration;
use swala::ServerOptions;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_sim::{simulate, Routing, SimConfig};
use swala_workload::{section53_trace, Trace};

/// Sequential round-robin replay against a live cooperative cluster.
///
/// The zero-delay simulator assumes every notice lands before the next
/// request; PR 1's asynchronous writer threads broke that assumption
/// under load (an insert notice can lose the race with the very next
/// request on a busy host), so the replay quiesces the cluster between
/// requests to restore the sequential model the comparison relies on.
fn live_cooperative_hits(nodes: usize, capacity: usize, trace: &Trace) -> (u64, u64) {
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes,
        work: WorkKind::Sleep,
        node: ServerOptions {
            capacity,
            pool_size: 4,
            // The sim twin below runs the replicated model, where every
            // peer hears every notice; the live side must match it.
            directory: swala_cache::DirectoryKind::Replicated,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();
    let addrs = cluster.http_addrs();
    let mut clients: Vec<swala::HttpClient> =
        addrs.iter().map(|a| swala::HttpClient::new(*a)).collect();
    for (i, r) in trace.requests.iter().enumerate() {
        let resp = clients[i % nodes].get(&r.target).unwrap();
        assert!(resp.status.is_success());
        assert!(
            cluster.quiesce(Duration::from_secs(10)),
            "cluster failed to quiesce after request {i}"
        );
    }
    let local = cluster.total_cache_stat(|s| s.local_hits);
    let remote = cluster.total_cache_stat(|s| s.remote_hits);
    cluster.shutdown();
    (local, remote)
}

#[test]
fn live_matches_sim_large_cache() {
    let trace = section53_trace(53, 1);
    let sim = simulate(
        &SimConfig {
            nodes: 2,
            capacity: 2000,
            routing: Routing::RoundRobin,
            ..Default::default()
        },
        &trace,
    );
    let (local, remote) = live_cooperative_hits(2, 2000, &trace);
    assert_eq!(local, sim.local_hits, "local hits");
    assert_eq!(remote, sim.remote_hits, "remote hits");
    // No capacity pressure → no false hits possible; totals are exact.
    assert_eq!(local + remote, trace.upper_bound_hits() as u64);
}

#[test]
fn live_matches_sim_small_cache() {
    // Capacity pressure: evictions + delete broadcasts on the live side.
    // Sequential replay means notices always land between requests, so
    // counts still match the zero-delay simulator exactly.
    let trace = section53_trace(53, 1);
    let sim = simulate(
        &SimConfig {
            nodes: 4,
            capacity: 20,
            ..Default::default()
        },
        &trace,
    );
    let (local, remote) = live_cooperative_hits(4, 20, &trace);
    assert_eq!(
        local + remote,
        sim.hits(),
        "total hits under eviction pressure"
    );
}

#[test]
fn sim_standalone_equals_n_independent_lrus() {
    // Cross-validation inside the model: stand-alone N-node round-robin
    // must equal running N separate single-node simulations on the
    // node-sliced traces.
    let trace = section53_trace(53, 1);
    let nodes = 4;
    let whole = simulate(
        &SimConfig {
            nodes,
            capacity: 20,
            cooperative: false,
            ..Default::default()
        },
        &trace,
    );
    let mut split_hits = 0;
    for n in 0..nodes {
        let slice = Trace::new(
            trace
                .requests
                .iter()
                .enumerate()
                .filter(|(i, _)| i % nodes == n)
                .map(|(_, r)| r.clone())
                .collect(),
        );
        let r = simulate(
            &SimConfig {
                nodes: 1,
                capacity: 20,
                cooperative: false,
                ..Default::default()
            },
            &slice,
        );
        split_hits += r.hits();
    }
    assert_eq!(whole.hits(), split_hits);
}
