//! Flash-crowd coalescing: duplicate work with and without single-flight.
//!
//! §4.2's weak-consistency design re-executes a document whenever
//! identical requests overlap (false-miss scenario 1) and lets every
//! concurrent reader fetch the same remote entry independently. The
//! single-flight registry removes both duplications; this experiment
//! quantifies the effect with two bursts, each run once per mode:
//!
//! * **local burst** — N threads released by a barrier against one cold
//!   key on a single node. The measure is CGI executions per burst:
//!   exactly 1 with coalescing on, >1 (up to N) with it off.
//! * **owner fetch burst** — N threads on node 0 against a key owned by
//!   node 1, with a fault-injected dial delay widening the fetch window.
//!   The measure is wire fetches (connections opened + reuses) toward
//!   the owner: exactly 1 with coalescing on, exactly N with it off.
//!
//! The asserts double as the CI gate (`scripts/check.sh` runs this
//! experiment in quick mode): duplicate executions must be zero with
//! coalescing on and nonzero with it off, and owner fetches 1 and N.
//! Results are written to `BENCH_coalesce.json`.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::NodeId;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_proto::{FaultAction, FaultInjector, FaultRule};

/// Threads per burst.
const BURST: usize = 16;

/// One barrier-released burst of identical requests; per-request ms.
fn burst(addr: std::net::SocketAddr, target: &str) -> Vec<f64> {
    let gate = Arc::new(Barrier::new(BURST));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let target = target.to_string();
                s.spawn(move || {
                    let mut c = HttpClient::new(addr);
                    gate.wait();
                    let t0 = Instant::now();
                    let r = c.get(&target).expect("burst request");
                    assert!(r.status.is_success(), "burst request failed: {target}");
                    t0.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

struct LocalOutcome {
    executions: u64,
    false_misses: u64,
    coalesce_waits: u64,
    mean_ms: f64,
}

/// Cold-key flash crowd on one node: how many times does the CGI run?
fn local_burst(coalesce: bool, work_ms: u64) -> LocalOutcome {
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 1,
        work: WorkKind::Sleep,
        node: ServerOptions {
            pool_size: BURST + 2,
            coalesce,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .expect("start cluster");
    let target = format!("/cgi-bin/adl?id=flash&ms={work_ms}");
    let lat = burst(cluster.node(0).http_addr(), &target);
    let stats = cluster.node(0).cache_stats();
    let req = cluster.node(0).request_stats();
    cluster.shutdown();
    LocalOutcome {
        executions: req.executions,
        false_misses: stats.false_misses,
        coalesce_waits: stats.coalesce_waits,
        mean_ms: lat.iter().sum::<f64>() / lat.len() as f64,
    }
}

/// Same-instant remote hits on node 0 against node 1's entry: how many
/// fetches reach the owner's wire (connections opened + reuses)?
fn remote_burst(coalesce: bool, work_ms: u64, dial_delay: Duration) -> u64 {
    let inj = FaultInjector::seeded(42);
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        work: WorkKind::Sleep,
        node: ServerOptions {
            pool_size: BURST + 2,
            coalesce,
            faults: Some(Arc::clone(&inj)),
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .expect("start cluster");
    let target = format!("/cgi-bin/adl?id=owned&ms={work_ms}");
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    c1.get(&target).expect("warm owner");
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    // Every 0→1 dial pays this extra latency, so the whole burst lands
    // inside the leader's fetch window deterministically.
    inj.add_rule(FaultRule::between(
        NodeId(0),
        NodeId(1),
        FaultAction::Delay(dial_delay),
    ));
    burst(cluster.node(0).http_addr(), &target);
    let pool = cluster.node(0).fetch_pool().stats();
    cluster.shutdown();
    pool.connects_opened + pool.reuses
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let work_ms: u64 = if quick { 120 } else { 300 };
    let dial_delay = Duration::from_millis(if quick { 100 } else { 200 });

    let local_on = local_burst(true, work_ms);
    let local_off = local_burst(false, work_ms);
    let fetch_on = remote_burst(true, work_ms, dial_delay);
    let fetch_off = remote_burst(false, work_ms, dial_delay);

    // CI gates: coalescing deduplicates completely; the paper-faithful
    // mode demonstrably re-runs.
    assert_eq!(
        local_on.executions, 1,
        "coalesce on: the flash crowd must execute the CGI exactly once"
    );
    assert_eq!(local_on.false_misses, 0, "coalesce on: no §4.2 re-runs");
    assert!(
        local_on.coalesce_waits >= 1,
        "burst never overlapped the leader"
    );
    assert!(
        local_off.executions > 1,
        "coalesce off must preserve the duplicate executions it measures"
    );
    assert_eq!(
        fetch_on, 1,
        "coalesce on: one owner fetch per {BURST}-request burst"
    );
    assert_eq!(
        fetch_off, BURST as u64,
        "coalesce off: every reader fetches independently"
    );

    let json_local = |o: &LocalOutcome| {
        format!(
            "{{\"executions\": {}, \"duplicate_executions\": {}, \"false_misses\": {}, \
             \"coalesce_waits\": {}, \"mean_ms\": {:.4}}}",
            o.executions,
            o.executions - 1,
            o.false_misses,
            o.coalesce_waits,
            o.mean_ms
        )
    };
    let json_fetch = |wire_fetches: u64| format!("{{\"wire_fetches\": {wire_fetches}}}");
    let json = format!(
        "{{\n  \"experiment\": \"coalesce\",\n  \"quick\": {quick},\n  \
         \"burst\": {BURST},\n  \"work_ms\": {work_ms},\n  \"local\": {{\n    \
         \"coalesce_on\": {},\n    \"coalesce_off\": {}\n  }},\n  \"owner_fetch\": {{\n    \
         \"coalesce_on\": {},\n    \"coalesce_off\": {}\n  }}\n}}\n",
        json_local(&local_on),
        json_local(&local_off),
        json_fetch(fetch_on),
        json_fetch(fetch_off),
    );
    std::fs::write("BENCH_coalesce.json", &json).expect("write BENCH_coalesce.json");

    let mut report = TableReport::new(
        "coalesce",
        "Flash crowd: duplicate work per 16-thread burst, by coalesce mode",
        &["burst / mode", "CGI runs", "owner fetches", "mean latency"],
    );
    for (name, l, f) in [
        ("coalesce on (default)", &local_on, fetch_on),
        ("coalesce off (paper §4.2)", &local_off, fetch_off),
    ] {
        report.row(vec![
            name.into(),
            format!("{}", l.executions),
            format!("{f}"),
            format!("{} ms", fmt_ms(l.mean_ms)),
        ]);
    }
    report.note(format!(
        "coalesce on: 1 execution served {BURST} requests ({} waited on the flight); \
         off re-ran the CGI {} times ({} false misses)",
        local_on.coalesce_waits, local_off.executions, local_off.false_misses,
    ));
    report.note(format!(
        "owner fetches per burst: {fetch_on} on (the other remote hits waited on its flight) \
         vs {fetch_off} off",
    ));
    report.note("results written to BENCH_coalesce.json");
    report
}
