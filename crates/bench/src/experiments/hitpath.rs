//! Hot-path latency: what a hit costs once the hit path is zero-copy.
//!
//! The paper's value proposition (Tables 4–6, Figure 3) is that serving
//! a cached document is much cheaper than re-executing the CGI. This
//! experiment measures the three ways a request can resolve on a live
//! two-node cluster — warm local hit (memory tier, no disk, no copy),
//! remote hit (pooled fetch connection, no TCP handshake), and miss
//! (full CGI execution + store insert) — plus the no-cache baseline
//! where every request executes. Alongside the latency distributions it
//! reports the zero-copy machinery's own counters (store reads during
//! warm hits, fetch-pool connections) and each node's own per-outcome
//! histogram quantiles (what `/swala-metrics` would show). The counter
//! bounds are held by `crates/core/tests/hitpath_tests.rs` and
//! `parked_connections.rs`.

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
fn idle_sweep(quick: bool, samples: usize, work_ms: u64) -> Vec<String> {
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

    let mut notes = vec![format!(
        "idle sweep (request pool, default options, pool_size {pool_size}, RLIMIT_NOFILE {nofile}); \
         a thread per idle connection stalled ≈ 5 s behind pool_size and 4 x pool_size"
    )];
    notes.extend(points.iter().map(|p| {
        format!(
            "{} idle ({} requested): fresh connection's first request {:.3} ms, hot-hit p50/p99 \
             {:.3}/{:.3} ms, {} bytes RSS per parked conn, {} new threads",
            p.idle, p.requested, p.fresh_ms, p.d.p50, p.d.p99, p.rss_per_conn, p.threads_delta,
        )
    }));
    notes
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

    // Warm local hits, served by the memory tier.
    let reads_before = cluster.node(0).cache_stats().store_reads;
    let local = dist(timed(&mut c0, samples, |_| target.clone()));
    let stats0 = cluster.node(0).cache_stats();
    let store_reads_during_hits = stats0.store_reads - reads_before;

    // Remote hits: one client bursting through the fetch pool.
    let remote = dist(timed(&mut c1, samples, |_| target.clone()));
    let pool = cluster.node(1).fetch_pool().stats();

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
    let idle_notes = idle_sweep(quick, samples, work_ms);

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
        "zero-copy evidence: {} warm hits, {store_reads_during_hits} store reads; \
         {} remote fetches over {} connections",
        stats0.mem_hits, pool.reuses, pool.connects_opened,
    ));
    report.note(format!(
        "node histograms: local-mem p50/p99 {}/{} us ({} obs), remote {}/{} us ({} obs), \
         miss {}/{} us ({} obs)",
        hist_local.p50(),
        hist_local.p99(),
        hist_local.count,
        hist_remote.p50(),
        hist_remote.p99(),
        hist_remote.count,
        hist_miss.p50(),
        hist_miss.p99(),
        hist_miss.count,
    ));
    for note in idle_notes {
        report.note(note);
    }
    report
}
