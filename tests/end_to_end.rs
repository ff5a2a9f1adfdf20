//! Cross-crate integration: the full pipeline — workload synthesis →
//! live cluster → load generation → statistics — holds its invariants.

use swala::{ServerOptions, SwalaServer};
use swala_cache::DirectoryKind;
use swala_cgi::WorkKind;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_workload::{
    materialize_docroot, synthesize_adl_trace, AdlTraceConfig, FileMix, LoadGenerator, RequestKind,
};

/// The node's `swala_http_<field>` counter, read from its registry.
fn http_stat(node: &SwalaServer, field: &str) -> u64 {
    let metrics = node.telemetry().registry().snapshot();
    swala_obs::lookup(&metrics, &format!("swala_http_{field}"), None).unwrap()
}

#[test]
fn adl_replay_accounting_balances() {
    // Replay a small ADL trace against a 3-node cooperative cluster on
    // disk stores and check that every request is accounted for exactly
    // once — under each directory organization.
    let trace = synthesize_adl_trace(&AdlTraceConfig {
        live_ms_per_paper_second: 2.0,
        ..AdlTraceConfig::scaled_to(300)
    });
    let targets: Vec<String> = trace
        .requests
        .iter()
        .filter(|r| r.kind == RequestKind::Dynamic)
        .map(|r| r.target.clone())
        .collect();

    for directory in DirectoryKind::ALL {
        let mode = directory.as_str();
        let base = std::env::temp_dir().join(format!("swala-it-adl-{mode}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 3,
            work: WorkKind::Sleep,
            node: ServerOptions {
                cache_dir: Some(base.clone()),
                directory,
                ..ClusterConfig::default().node
            },
            ..Default::default()
        })
        .unwrap();
        assert_eq!(cluster.node(0).manager().bodies().metrics().kind, "segment");
        let report = LoadGenerator::new(6).replay_shared(&cluster.http_addrs(), &targets);
        assert_eq!(report.errors, 0, "{mode}");
        assert_eq!(report.completed, targets.len(), "{mode}");

        let lookups = cluster.total_cache_stat(|s| s.lookups);
        let hits = cluster.total_cache_stat(|s| s.local_hits + s.remote_hits);
        let misses = cluster.total_cache_stat(|s| s.misses);
        assert_eq!(
            lookups as usize,
            targets.len(),
            "every GET is one lookup ({mode})"
        );
        assert_eq!(
            hits + misses,
            lookups,
            "each lookup is a hit or a miss ({mode})"
        );

        // Work conservation: every miss or false-hit fallback either
        // runs the CGI itself or is served another request's
        // single-flight execution. A coalesced wait that fails (leader
        // failure/timeout) falls back to executing, so the
        // served-from-flight count is exactly
        // `coalesce_waits - coalesce_fallbacks`.
        let execs: u64 = cluster
            .nodes()
            .iter()
            .map(|s| http_stat(s, "executions"))
            .sum();
        let false_hits = cluster.total_cache_stat(|s| s.false_hits);
        let flight_served = cluster.total_cache_stat(|s| s.coalesce_waits)
            - cluster.total_cache_stat(|s| s.coalesce_fallbacks);
        assert_eq!(execs + flight_served, misses + false_hits, "{mode}");
        assert!(cluster.total_cache_stat(|s| s.inserts) > 0, "{mode}");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }
}

#[test]
fn mixed_static_and_dynamic_traffic() {
    // One directory organization: what is asserted is the static/dynamic
    // split and what may be cached, not how entries are shared.
    let docroot = std::env::temp_dir().join(format!("swala-it-mixed-{}", std::process::id()));
    materialize_docroot(&docroot).unwrap();
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        work: WorkKind::Sleep,
        node: ServerOptions {
            docroot: Some(docroot.clone()),
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .unwrap();

    let report = LoadGenerator::new(4).run_sampler(&cluster.http_addrs(), 30, 11, |rng| {
        use rand::Rng;
        if rng.random::<f64>() < 0.4 {
            format!("/cgi-bin/adl?id={}&ms=1", rng.random_range(0..10))
        } else {
            FileMix::sample(rng).to_string()
        }
    });
    assert_eq!(report.errors, 0, "mixed workload must fully succeed");
    assert_eq!(report.completed, 120);

    let statics: u64 = cluster
        .nodes()
        .iter()
        .map(|s| http_stat(s, "static_files"))
        .sum();
    let dynamics: u64 = cluster
        .nodes()
        .iter()
        .map(|s| http_stat(s, "dynamic"))
        .sum();
    assert_eq!(statics + dynamics, 120);
    assert!(statics > 0 && dynamics > 0);
    // Static files never enter the result cache (§4.1). With 2 nodes the
    // same id may be cached at both (false-miss duplicates are legal), so
    // the bound is per-node: 10 distinct CGI ids per node.
    let inserts = cluster.total_cache_stat(|s| s.inserts);
    assert!(
        inserts <= 20,
        "only CGI ids may be cached, saw {inserts} inserts"
    );
    for n in 0..2u16 {
        assert!(
            cluster
                .node(n as usize)
                .manager()
                .directory()
                .len(swala_cache::NodeId(n))
                <= 10,
            "node {n} cached a non-CGI entry"
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(docroot);
}

#[test]
fn cluster_with_disk_stores_keeps_bodies_on_disk() {
    for directory in DirectoryKind::ALL {
        let base = std::env::temp_dir().join(format!(
            "swala-it-disk-{}-{}",
            directory.as_str(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            work: WorkKind::Sleep,
            node: ServerOptions {
                cache_dir: Some(base.clone()),
                directory,
                ..ClusterConfig::default().node
            },
            ..Default::default()
        })
        .unwrap();
        let mut client = swala::HttpClient::new(cluster.node(0).http_addr());
        for i in 0..5 {
            client.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
        }
        assert_eq!(cluster.node(0).manager().bodies().stored(), 5);
        assert!(base.join("node0").join("bodies.swseg").exists());
        assert!(base.join("node1").exists());
        // Remote fetches read node 0's data file over the wire.
        assert!(
            cluster.wait_for_directory_convergence(5, std::time::Duration::from_secs(5)),
            "{directory:?}"
        );
        let mut client1 = swala::HttpClient::new(cluster.node(1).http_addr());
        let r = client1.get("/cgi-bin/adl?id=0&ms=1").unwrap();
        assert_eq!(
            r.headers.get("X-Swala-Cache"),
            Some("remote-hit"),
            "{directory:?}"
        );
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(base);
    }
}

#[test]
fn baselines_and_swala_serve_identical_content() {
    use std::sync::Arc;
    use swala_baseline::{ForkingServer, ThreadedServer};
    use swala_cgi::{ProgramRegistry, SimulatedProgram};

    let registry = || {
        let mut r = ProgramRegistry::new();
        r.register(Arc::new(SimulatedProgram::trace_driven(
            "adl",
            WorkKind::Sleep,
        )));
        r
    };
    let httpd = ForkingServer::start(None, registry()).unwrap();
    let enterprise = ThreadedServer::start(None, registry(), 4).unwrap();
    let swala_server = swala::SwalaServer::start_single(
        swala::ServerOptions {
            pool_size: 4,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();

    let target = "/cgi-bin/adl?id=42&ms=1&bytes=2000";
    let body_from = |addr| swala::HttpClient::new(addr).get(target).unwrap().body;
    let a = body_from(httpd.addr());
    let b = body_from(enterprise.addr());
    let c = body_from(swala_server.http_addr());
    let d = body_from(swala_server.http_addr()); // cache hit
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(c, d, "cached bytes identical across servers and hit paths");

    httpd.shutdown();
    enterprise.shutdown();
    swala_server.shutdown();
}
