//! Criterion benches, one group per paper table/figure, measuring the
//! critical-path operation behind each result statistically. The full
//! table regeneration (with paper-vs-measured rows) is the `tables`
//! binary; these benches give confidence intervals on the primitives the
//! tables rest on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use swala::{HttpClient, ProgramRegistry, ServerOptions, SwalaServer};
use swala_baseline::ForkedCgi;
use swala_cgi::null_cgi;
use swala_sim::{simulate, SimConfig};
use swala_workload::{
    analyze_thresholds, materialize_docroot, section53_trace, synthesize_adl_trace, AdlTraceConfig,
};

/// Table 1's computation: threshold analysis over a 10k-request trace.
fn bench_table1_analysis(c: &mut Criterion) {
    let trace = synthesize_adl_trace(&AdlTraceConfig::scaled_to(10_000));
    c.bench_function("table1/analyze_thresholds_10k", |b| {
        b.iter(|| black_box(analyze_thresholds(&trace, &[0.5, 1.0, 2.0, 4.0])))
    });
}

/// Table 2's primitive: one file fetch through a live Swala node.
fn bench_table2_file_fetch(c: &mut Criterion) {
    let docroot = std::env::temp_dir().join(format!("swala-bench-t2-{}", std::process::id()));
    materialize_docroot(&docroot).unwrap();
    let server = SwalaServer::start_single(
        ServerOptions {
            docroot: Some(docroot.clone()),
            pool_size: 4,
            ..Default::default()
        },
        ProgramRegistry::new(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let mut group = c.benchmark_group("table2");
    group.sample_size(20);
    group.bench_function("file_fetch_5k", |b| {
        b.iter(|| black_box(client.get("/ws5k.txt").unwrap().body.len()))
    });
    group.bench_function("file_fetch_50k", |b| {
        b.iter(|| black_box(client.get("/ws50k.txt").unwrap().body.len()))
    });
    group.finish();
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(docroot);
}

/// Figure 3's three Swala modes: execute (no cache), local fetch, remote
/// fetch — the per-request critical paths whose ordering is the result.
fn bench_fig3_nullcgi(c: &mut Criterion) {
    // No-cache node.
    let mut nocache_registry = ProgramRegistry::new();
    nocache_registry.register(ForkedCgi::wrap(Arc::new(null_cgi())));
    let nocache = SwalaServer::start_single(
        ServerOptions {
            caching_enabled: false,
            pool_size: 4,
            ..Default::default()
        },
        nocache_registry,
    )
    .unwrap();
    // Two-node cached pair, node 0 warmed.
    let pair = swala::start_cluster(2, |_| {
        let mut r = ProgramRegistry::new();
        r.register(ForkedCgi::wrap(Arc::new(null_cgi())));
        (
            ServerOptions {
                pool_size: 4,
                ..Default::default()
            },
            r,
        )
    })
    .unwrap();
    HttpClient::new(pair[0].http_addr())
        .get("/cgi-bin/nullcgi")
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pair[1].manager().directory().total_len() == 0 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut group = c.benchmark_group("fig3");
    group.sample_size(20);
    let mut c_nc = HttpClient::new(nocache.http_addr());
    group.bench_function("execute_no_cache", |b| {
        b.iter(|| black_box(c_nc.get("/cgi-bin/nullcgi").unwrap().status))
    });
    let mut c_local = HttpClient::new(pair[0].http_addr());
    group.bench_function("local_cache_fetch", |b| {
        b.iter(|| black_box(c_local.get("/cgi-bin/nullcgi").unwrap().status))
    });
    let mut c_remote = HttpClient::new(pair[1].http_addr());
    group.bench_function("remote_cache_fetch", |b| {
        b.iter(|| black_box(c_remote.get("/cgi-bin/nullcgi").unwrap().status))
    });
    group.finish();
    drop((c_nc, c_local, c_remote));
    nocache.shutdown();
    for s in pair {
        s.shutdown();
    }
}

/// Figure 4's aggregate: full cooperative replays in the simulator at
/// 1 vs 8 nodes (wall-clock of the *model*, plus it pins determinism).
fn bench_fig4_scaling(c: &mut Criterion) {
    let trace = synthesize_adl_trace(&AdlTraceConfig::scaled_to(5_000));
    let mut group = c.benchmark_group("fig4");
    for nodes in [1usize, 8] {
        group.bench_function(format!("simulate_adl_{nodes}_nodes"), |b| {
            b.iter(|| {
                black_box(simulate(
                    &SimConfig {
                        nodes,
                        capacity: 2000,
                        ..Default::default()
                    },
                    &trace,
                ))
            })
        });
    }
    group.finish();
}

/// Table 3's primitive: miss + store + directory insert + broadcast to a
/// sink peer, end to end over TCP.
fn bench_table3_insert_overhead(c: &mut Criterion) {
    use swala_cache::{CacheKey, CacheManager, CacheManagerConfig, LookupResult, MemStore, NodeId};
    use swala_proto::{Broadcaster, Message};
    // Sink peer that drains frames forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { return };
            std::thread::spawn(move || while let Ok(Some(_)) = swala_proto::read_frame(&mut s) {});
        }
    });
    let manager = CacheManager::new(
        CacheManagerConfig {
            num_nodes: 2,
            capacity: 1_000_000,
            ..Default::default()
        },
        Box::new(MemStore::new()),
    );
    let broadcaster = Broadcaster::new(NodeId(0), [(NodeId(1), sink_addr)]);
    let mut n = 0u64;
    c.bench_function("table3/miss_insert_broadcast", |b| {
        b.iter(|| {
            n += 1;
            let key = CacheKey::new(format!("/cgi-bin/adl?id={n}"));
            let decision = match manager.lookup(&key, key.as_str()) {
                LookupResult::Miss { decision, .. } => decision,
                other => panic!("{other:?}"),
            };
            let out = manager
                .complete_execution(
                    &key,
                    b"result",
                    "text/html",
                    Duration::from_millis(1),
                    &decision,
                )
                .unwrap();
            if let swala_cache::InsertOutcome::Inserted { meta, .. } = out {
                black_box(broadcaster.broadcast(&Message::InsertNotice { meta }));
            }
        })
    });
}

/// Table 4's primitive: applying a peer's insert notice to the directory.
fn bench_table4_directory_updates(c: &mut Criterion) {
    use swala_cache::{CacheKey, CacheManager, CacheManagerConfig, EntryMeta, MemStore, NodeId};
    let manager = CacheManager::new(
        CacheManagerConfig {
            num_nodes: 8,
            ..Default::default()
        },
        Box::new(MemStore::new()),
    );
    let mut n = 0u64;
    c.bench_function("table4/apply_remote_insert", |b| {
        b.iter(|| {
            n += 1;
            let meta = EntryMeta::new(
                CacheKey::new(format!("/cgi-bin/p?n={}", n % 10_000)),
                NodeId(1 + (n % 7) as u16),
                256,
                "text/html",
                1_000_000,
                None,
                n,
            );
            manager.apply_remote_insert(black_box(meta));
        })
    });
}

/// Tables 5/6: the full deterministic hit-count replays.
fn bench_table56_hit_ratio(c: &mut Criterion) {
    let trace = section53_trace(53, 1);
    let mut group = c.benchmark_group("table56");
    for (label, capacity) in [
        ("table5_large_cache", 2000usize),
        ("table6_small_cache", 20),
    ] {
        for cooperative in [false, true] {
            let name = format!(
                "{label}_{}",
                if cooperative { "coop" } else { "standalone" }
            );
            group.bench_function(name, |b| {
                b.iter(|| {
                    black_box(simulate(
                        &SimConfig {
                            nodes: 8,
                            capacity,
                            cooperative,
                            ..Default::default()
                        },
                        &trace,
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = paper;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets =
        bench_table1_analysis,
        bench_table2_file_fetch,
        bench_fig3_nullcgi,
        bench_fig4_scaling,
        bench_table3_insert_overhead,
        bench_table4_directory_updates,
        bench_table56_hit_ratio,
}
criterion_main!(paper);
