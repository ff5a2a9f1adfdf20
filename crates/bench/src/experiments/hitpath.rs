//! Hot-path latency: what a hit costs once the hit path is zero-copy.
//!
//! The paper's value proposition (Tables 4–6, Figure 3) is that serving
//! a cached document is much cheaper than re-executing the CGI. This
//! experiment measures the three ways a request can resolve on a live
//! two-node cluster — warm local hit (memory tier, no disk, no copy),
//! remote hit (pooled fetch connection, no TCP handshake), and miss
//! (full CGI execution + store insert) — plus the no-cache baseline
//! where every request executes. Alongside the latency distributions it
//! checks the zero-copy machinery's own counters: warm hits must not
//! read the store, and a burst of remote hits from one client must not
//! open more connections than the pool allows.
//!
//! The distributions are appended to `BENCH_hitpath.json` (handwritten
//! JSON, no serde in the tree) so later PRs have a trajectory to defend.
//! The report also carries each node's own per-outcome histogram
//! quantiles (what `/swala-metrics` would show).

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_obs::Outcome;

/// One scenario's latency distribution, in milliseconds.
struct Dist {
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

fn dist(mut samples: Vec<f64>) -> Dist {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Dist {
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
    }
}

/// Time `n` requests produced by `target`, returning per-request ms.
fn timed(client: &mut HttpClient, n: usize, mut target: impl FnMut(usize) -> String) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = target(i);
            let t0 = Instant::now();
            let resp = client.get(&t).expect("request");
            assert!(resp.status.is_success(), "failed: {t}");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn json_scenario(name: &str, d: &Dist) -> String {
    format!(
        "    \"{name}\": {{\"mean_ms\": {:.4}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}}}",
        d.mean, d.p50, d.p95
    )
}

/// A field from `/proc/self/status`, e.g. `VmRSS` (kB) or `Threads`.
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Park `n` keep-alive connections that never send a byte. Paced so the
/// accept loop (sharing the CPU on small machines) drains the backlog.
fn park_idle(addr: std::net::SocketAddr, n: usize) -> Vec<std::net::TcpStream> {
    let mut parked = Vec::with_capacity(n);
    for i in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => parked.push(s),
            Err(e) => panic!("idle connect {i}/{n} failed: {e}"),
        }
        // Yield well inside the accept backlog so a single-CPU machine
        // never drops SYNs (a dropped SYN costs a ~1 s retransmit).
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    parked
}

/// One idle-sweep measurement point.
struct IdlePoint {
    requested: usize,
    idle: usize,
    /// First request on a connection opened after the herd parked — the
    /// one that used to wait out a keep-alive timeout.
    fresh_ms: f64,
    d: Dist,
    rss_per_conn: u64,
    threads_delta: i64,
}

/// C10K evidence: hot-hit latency under parked keep-alive connections.
///
/// A parked connection is a map entry on the request pool's epoll, not a
/// thread, so the hit path must barely notice ten thousand of them — and
/// must not notice `pool_size` or 4 × `pool_size` of them either, the
/// two points where a thread per idle connection made a new request wait
/// ≈ 5 s for a keep-alive timeout.
fn idle_sweep(quick: bool, samples: usize, work_ms: u64) -> (String, Vec<String>) {
    // Both ends of every parked connection live in this process, so the
    // fd budget is two per connection plus headroom for everything else.
    let nofile = swala::raise_nofile_limit().unwrap_or(1024);
    let usable = ((nofile.saturating_sub(1000)) / 2) as usize;
    let config = ClusterConfig {
        nodes: 1,
        ..Default::default()
    };
    let pool_size = config.node.pool_size;
    let top = if quick { 256 } else { 10_000 };
    let mut levels = vec![0, pool_size, 4 * pool_size, 1000.min(top), top];
    levels.dedup();

    let cluster = SwalaCluster::start(&config).expect("start cluster");
    let addr = cluster.node(0).http_addr();
    let target = format!("/cgi-bin/adl?id=idle&ms={work_ms}");
    HttpClient::new(addr).get(&target).expect("warm");

    let mut points = Vec::new();
    for requested in levels {
        let idle = requested.min(usable);
        let rss_before = proc_status("VmRSS").unwrap_or(0);
        let threads_before = proc_status("Threads").unwrap_or(0) as i64;
        let parked = park_idle(addr, idle);
        // The herd is connected client-side, but the pool accepts
        // asynchronously — give it a bounded moment to drain the backlog.
        let mut open = 0;
        for _ in 0..200 {
            open = cluster.node(0).engine_stats().open_connections.get();
            if open >= idle as i64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            open >= idle as i64,
            "server holds {open} connections, expected the {idle} parked ones"
        );
        let rss_after = proc_status("VmRSS").unwrap_or(0);
        let threads_after = proc_status("Threads").unwrap_or(0) as i64;
        // Measure immediately: the parked connections are silently shed
        // after KEEP_ALIVE_IDLE, and the point is latency while they sit.
        let mut live = HttpClient::new(addr);
        let times = timed(&mut live, samples, |_| target.clone());
        points.push(IdlePoint {
            requested,
            idle,
            fresh_ms: times[0],
            d: dist(times),
            rss_per_conn: if idle == 0 {
                0
            } else {
                rss_after.saturating_sub(rss_before) * 1024 / idle as u64
            },
            threads_delta: threads_after - threads_before,
        });
        drop(parked);
    }
    cluster.shutdown();

    let zero = &points[0].d;
    // Acceptance gates are counters: bounded RSS per parked connection
    // and no new threads. The hot-hit p99 per level is data in
    // BENCH_hitpath.json, not a gate: a sub-ms p99 from 60 samples on a
    // shared host spikes by milliseconds on its own.
    for p in &points[1..] {
        assert!(
            p.rss_per_conn < 16 * 1024 || p.idle < 256,
            "{} idle conns cost {} bytes each — not bounded",
            p.idle,
            p.rss_per_conn,
        );
        assert_eq!(
            p.threads_delta, 0,
            "parking {} connections must not spawn threads",
            p.idle,
        );
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "      {{\"requested\": {}, \"idle\": {}, \"fresh_conn_ms\": {:.4}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"rss_per_conn_bytes\": {}, \"threads_delta\": {}}}",
                p.requested, p.idle, p.fresh_ms, p.d.p50, p.d.p99, p.rss_per_conn, p.threads_delta
            )
        })
        .collect();
    let top = points.last().unwrap();
    let json = format!(
        "{{\n    \"nofile_limit\": {nofile},\n    \"usable_idle_conns\": {usable},\n    \
         \"pool_size\": {pool_size},\n    \"pool\": [\n{}\n    ],\n    \
         \"p99_ratio_max_vs_zero\": {:.3}\n  }}",
        rows.join(",\n"),
        if zero.p99 > 0.0 {
            top.d.p99 / zero.p99
        } else {
            0.0
        },
    );
    let cliffs = &points[1..3];
    let notes = vec![
        format!(
            "idle sweep (request pool, default options): p99 {:.3} ms at 0 idle vs {:.3} ms at {} idle \
             ({} requested, RLIMIT_NOFILE {nofile}); {} bytes RSS per parked conn, 0 new threads",
            zero.p99, top.d.p99, top.idle, top.requested, top.rss_per_conn,
        ),
        format!(
            "where a thread per idle connection stalled ≈ 5 s: a fresh connection's first request \
             took {:.3} ms behind {} idle conns (pool_size) and {:.3} ms behind {}",
            cliffs[0].fresh_ms, cliffs[0].idle, cliffs[1].fresh_ms, cliffs[1].idle,
        ),
    ];
    (json, notes)
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let samples = if quick { 60 } else { 300 };
    let work_ms: u64 = if quick { 3 } else { 10 };

    let base = std::env::temp_dir().join(format!("swala-hitpath-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: ServerOptions {
            cache_dir: Some(base.clone()),
            // Benches opt out of durability syncs: the miss numbers measure
            // the hit path's software, not the disk's flush latency.
            fsync: false,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .expect("start cluster");

    let target = format!("/cgi-bin/adl?id=1&ms={work_ms}");
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    c0.get(&target).expect("warm");
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));

    // Warm local hits: the memory tier must serve every one of them
    // without touching the disk store.
    let reads_before = cluster.node(0).cache_stats().store_reads;
    let local = dist(timed(&mut c0, samples, |_| target.clone()));
    let stats0 = cluster.node(0).cache_stats();
    assert!(
        stats0.mem_hits >= samples as u64,
        "warm hits must come from the memory tier: {stats0:?}"
    );
    let store_reads_during_hits = stats0.store_reads - reads_before;
    assert_eq!(store_reads_during_hits, 0, "warm hits must not read disk");

    // Remote hits: one client bursting through the fetch pool.
    let remote = dist(timed(&mut c1, samples, |_| target.clone()));
    let pool = cluster.node(1).fetch_pool().stats();
    assert!(
        pool.connects_opened <= swala_proto::DEFAULT_POOL_SIZE as u64,
        "one client must stay within the pool: {pool}"
    );

    // Misses: unique documents, full CGI execution + insert each.
    let miss = dist(timed(&mut c0, samples, |i| {
        format!("/cgi-bin/adl?id=m{i}&ms={work_ms}")
    }));

    // The nodes' own view of the same traffic: per-outcome duration
    // histograms, exactly what `/swala-metrics` exposes.
    let hist_local = cluster
        .node(0)
        .telemetry()
        .outcome_snapshot(Outcome::LocalMem);
    let hist_miss = cluster.node(0).telemetry().outcome_snapshot(Outcome::Miss);
    let hist_remote = cluster
        .node(1)
        .telemetry()
        .outcome_snapshot(Outcome::Remote);
    assert!(
        hist_local.count >= samples as u64,
        "local-mem histogram undercounts: {} < {samples}",
        hist_local.count
    );
    assert!(
        hist_remote.count >= samples as u64,
        "remote histogram undercounts: {} < {samples}",
        hist_remote.count
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    // No-cache baseline: the same document re-executes every time.
    let nocache_cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: ServerOptions {
            caching_enabled: false,
            ..ClusterConfig::default().node
        },
        ..Default::default()
    })
    .expect("start no-cache cluster");
    let mut cn = HttpClient::new(nocache_cluster.node(0).http_addr());
    cn.get(&target).expect("warm");
    let nocache = dist(timed(&mut cn, samples, |_| target.clone()));
    nocache_cluster.shutdown();

    // C10K: hot-hit latency while thousands of keep-alive connections
    // sit parked on the request pool.
    let (idle_json, idle_notes) = idle_sweep(quick, samples, work_ms);

    let hist_json = |name: &str, h: &swala_obs::HistogramSnapshot| {
        format!(
            "    \"{name}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            h.count,
            h.p50(),
            h.p99(),
            h.max
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"hitpath\",\n  \"quick\": {quick},\n  \
         \"samples\": {samples},\n  \"work_ms\": {work_ms},\n  \"scenarios\": {{\n{},\n{},\n{},\n{}\n  }},\n  \
         \"telemetry\": {{\n{},\n{},\n{}\n  }},\n  \
         \"idle_sweep\": {idle_json},\n  \
         \"counters\": {{\"mem_hits\": {}, \"store_reads_during_hits\": {store_reads_during_hits}, \
         \"pool_connects\": {}, \"pool_reuses\": {}}}\n}}\n",
        json_scenario("local_hit", &local),
        json_scenario("remote_hit", &remote),
        json_scenario("miss", &miss),
        json_scenario("nocache_execute", &nocache),
        hist_json("local_mem", &hist_local),
        hist_json("remote", &hist_remote),
        hist_json("miss", &hist_miss),
        stats0.mem_hits,
        pool.connects_opened,
        pool.reuses,
    );
    std::fs::write("BENCH_hitpath.json", &json).expect("write BENCH_hitpath.json");

    let mut report = TableReport::new(
        "hitpath",
        "Hot path: hit vs miss latency on a live two-node cluster",
        &["scenario", "mean", "p50", "p95"],
    );
    for (name, d) in [
        ("local hit (memory tier)", &local),
        ("remote hit (pooled fetch)", &remote),
        ("miss (execute + insert)", &miss),
        ("no-cache (execute always)", &nocache),
    ] {
        report.row(vec![
            name.into(),
            format!("{} ms", fmt_ms(d.mean)),
            format!("{} ms", fmt_ms(d.p50)),
            format!("{} ms", fmt_ms(d.p95)),
        ]);
    }
    assert!(
        local.mean < miss.mean && remote.mean < miss.mean,
        "hits must beat misses: local {} remote {} miss {}",
        local.mean,
        remote.mean,
        miss.mean
    );
    report.note(format!(
        "hit speedup over miss: local {:.1}x, remote {:.1}x (work_ms={work_ms})",
        miss.mean / local.mean,
        miss.mean / remote.mean,
    ));
    report.note(format!(
        "zero-copy evidence: {} warm hits, 0 store reads; {} remote fetches over {} connections",
        stats0.mem_hits, pool.reuses, pool.connects_opened,
    ));
    report.note(format!(
        "node histograms: local-mem p50/p99 {}/{} us ({} obs), remote {}/{} us ({} obs)",
        hist_local.p50(),
        hist_local.p99(),
        hist_local.count,
        hist_remote.p50(),
        hist_remote.p99(),
        hist_remote.count,
    ));
    for note in idle_notes {
        report.note(note);
    }
    report.note("distributions written to BENCH_hitpath.json");
    report
}
