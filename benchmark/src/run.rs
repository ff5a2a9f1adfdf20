//! One repetition (end-to-end, tracing off) and one traced run
//! (per-layer), each turned into named metric values.

use crate::client::{CacheTag, Failure};
use crate::cluster::NODES;
use crate::expo::{ratio, Counters};
use crate::gen::Workload;
use crate::load::{quantile, Env, Session, Window};
use crate::probe;
use crate::spans::write_jsonl;
use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Duration;

const MIB: f64 = 1024.0 * 1024.0;
/// Wall-clock allowance for the in-process replay of a traced run.
const PROBE_BUDGET: Duration = Duration::from_secs(4);

/// Values for one list of metric definitions, in that list's order.
pub type Values = Vec<(&'static str, f64)>;

pub struct Outcome {
    /// Empty when the cluster never came up.
    pub metrics: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and errors, human-readable; empty = correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A node that fails to start fails every request it would have
    /// served; there are no metrics to report.
    fn not_started(what: String) -> Outcome {
        Outcome {
            metrics: Vec::new(),
            attempted: 1,
            failed: 1,
            problems: vec![what],
        }
    }
}

fn ordered(defs: &[crate::spec::MetricDef], mut values: BTreeMap<&'static str, f64>) -> Values {
    defs.iter()
        .map(|d| {
            let v = values
                .remove(d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (d.name, v)
        })
        .collect()
}

fn hit_ratio(c: &Counters) -> f64 {
    ratio(
        c.get("swala_cache_local_hits") + c.get("swala_cache_remote_hits"),
        c.get("swala_cache_lookups"),
    )
}

/// The invariants every window must satisfy, from the server's own
/// counters and the reply headers.
fn check_window(workload: Workload, w: &Window, problems: &mut Vec<String>) {
    let c = &w.counters;
    for f in Failure::ALL {
        let n = w.failures[f as usize];
        if n > 0 {
            problems.push(format!("{n} replies failed the {} check", f.name()));
        }
    }
    let lookups = c.get("swala_cache_lookups");
    let classified = c.get("swala_cache_local_hits")
        + c.get("swala_cache_remote_hits")
        + c.get("swala_cache_misses");
    if lookups != classified {
        problems.push(format!(
            "lookups {lookups} != local_hits + remote_hits + misses {classified}"
        ));
    }
    let share_ok = |t: CacheTag| w.tags[t as usize] as f64 >= 0.99 * w.attempted as f64;
    match workload {
        Workload::HitLocal if !share_ok(CacheTag::LocalHit) => {
            problems.push("under 99 % of replies were local-hit".into())
        }
        Workload::HitRemote if !share_ok(CacheTag::RemoteHit) => {
            problems.push("under 99 % of replies were remote-hit".into())
        }
        Workload::MissInsert if c.get("swala_cache_evictions") <= 0.0 => {
            problems.push("no evictions: inserts did not run at capacity".into())
        }
        Workload::ZipfMix => {
            let hit_ratio = hit_ratio(c);
            if !(0.65..=0.75).contains(&hit_ratio) {
                problems.push(format!("hit ratio {hit_ratio:.3} outside 0.65..0.75"));
            }
            if c.get("swala_cache_store_reads") <= 0.0 {
                problems.push("no store reads: the mem tier held everything".into());
            }
        }
        _ => {}
    }
}

/// One end-to-end repetition: fresh cluster, set-up, one closed-loop
/// window with tracing off, resource readings, teardown.
pub fn run_rep(env: &Env, workload: Workload, seed: u64, rep: u32, secs: f64) -> Outcome {
    let mut session = match Session::start(env, workload, seed) {
        Ok(s) => s,
        Err(e) => return Outcome::not_started(format!("set-up failed: {e}")),
    };
    let window = match session.closed_loop(rep, secs, false) {
        Ok(w) => w,
        Err(e) => return Outcome::not_started(format!("timed window failed: {e}")),
    };
    let mut problems = Vec::new();
    if session.setup_failed > 0 {
        problems.push(format!("{} set-up requests failed", session.setup_failed));
    }
    check_window(workload, &window, &mut problems);
    let rss = session.cluster.rss_hwm_mib().unwrap_or_else(|e| {
        problems.push(format!("rss reading failed: {e}"));
        0.0
    });
    let disk = session.cluster.disk_bytes() as f64 / MIB;

    let lat = &window.lat;
    let values = BTreeMap::from([
        ("throughput_rps", window.throughput_rps),
        ("lat_mean_us", lat.mean() / 1e3),
        ("lat_p50_us", quantile(lat, 0.50) / 1e3),
        (
            "cpu_us_per_req",
            ratio(window.cpu_s * 1e6, window.ok() as f64),
        ),
        ("rss_mb", rss),
        ("disk_mb", disk),
        ("setup_s", session.setup_s),
    ]);
    Outcome {
        metrics: ordered(END_TO_END, values),
        attempted: session.setup_attempted + window.attempted,
        failed: session.setup_failed + window.failed(),
        problems,
    }
}

/// The traced run: an untraced window (the reference), a window with
/// client spans and counter deltas, an open-loop window, then the
/// in-process probes. Writes `<out>/<workload>.spans.jsonl`.
pub fn run_traced(env: &Env, workload: Workload, seed: u64, secs: f64) -> Outcome {
    let part = secs / 3.0;
    let mut session = match Session::start(env, workload, seed) {
        Ok(s) => s,
        Err(e) => return Outcome::not_started(format!("set-up failed: {e}")),
    };
    let windows = session
        .closed_loop(0, part, false)
        .and_then(|plain| Ok((plain, session.closed_loop(1, part, true)?)));
    let (plain, traced) = match windows {
        Ok(w) => w,
        Err(e) => return Outcome::not_started(format!("timed window failed: {e}")),
    };
    let open = session.open_loop(2, part, plain.throughput_rps / 2.0);
    let mut problems = Vec::new();
    check_window(workload, &plain, &mut problems);
    check_window(workload, &traced, &mut problems);

    let disk_bytes = session.cluster.disk_bytes() as f64;
    let owned_entries: f64 = session
        .cluster
        .scrape_all()
        .map(|scrapes| {
            scrapes
                .iter()
                .flatten()
                .filter(|s| s.name == "swala_cache_dir_entries_owned")
                .map(|s| s.value)
                .sum()
        })
        .unwrap_or(0.0);
    // Mean size of everything inserted so far; exact where all bodies
    // are one size, an LRU-blind estimate on zipf-mix.
    let inserted_bytes = (session.setup_bytes + plain.miss_bytes + traced.miss_bytes) as f64;
    let inserts = session.setup_attempted as f64
        + (plain.tags[CacheTag::Miss as usize] + traced.tags[CacheTag::Miss as usize]) as f64;
    let live_body_bytes = owned_entries * ratio(inserted_bytes, inserts);

    let attempted = session.setup_attempted + plain.attempted + traced.attempted + open.attempted;
    let failed = session.setup_failed + plain.failed() + traced.failed() + open.failed;
    if session.setup_failed + open.failed > 0 {
        problems.push(format!(
            "{} set-up and {} open-loop requests failed",
            session.setup_failed, open.failed
        ));
    }
    let catalog = std::sync::Arc::clone(&session.catalog);
    let docroot = session.cluster.docroot().to_path_buf();
    let work = session.into_work();
    let probed = match probe::run(&catalog, work.path(), &docroot, PROBE_BUDGET) {
        Ok(p) => p,
        Err(e) => return Outcome::not_started(format!("layer probe failed: {e}")),
    };

    let mut spans = probed.spans.clone();
    let phases = traced.phases.as_ref().expect("traced window has phases");
    // Client span ids continue after the probe's.
    let offset = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    spans.extend(phases.spans.iter().map(|s| {
        let mut s = s.clone();
        s.id += offset;
        if s.parent != 0 {
            s.parent += offset;
        }
        s
    }));
    let span_file = env.out_dir.join(format!("{}.spans.jsonl", workload.name()));
    if let Err(e) = write_jsonl(&span_file, &spans) {
        problems.push(format!("writing {}: {e}", span_file.display()));
    }

    let c = &traced.counters;
    let reqs = traced.attempted as f64;
    let server_us = |outcome: &str| {
        c.hist_mean(
            "swala_request_duration_microseconds",
            &format!("outcome=\"{outcome}\""),
        )
    };
    let inserts_in_window = c.get("swala_cache_inserts");
    let fetches = c.get("swala_fetch_connects_opened") + c.get("swala_fetch_reuses");
    let p = |span: &str| probed.median_ns(span);
    let values = BTreeMap::from([
        ("http.parse_ns", p("http.parse")),
        ("http.write_ns", p("http.write")),
        ("core.server_us.local-mem", server_us("local-mem")),
        ("core.server_us.local-disk", server_us("local-disk")),
        ("core.server_us.remote", server_us("remote")),
        ("core.server_us.owner-serve", server_us("owner-serve")),
        ("core.server_us.miss", server_us("miss")),
        ("core.server_us.static", server_us("static")),
        (
            "core.unattributed_us",
            plain.lat.mean() / 1e3 - probed.path_mean_us,
        ),
        // The scrape that closes the window is one connection per node.
        (
            "core.connections_per_req",
            ratio(c.get("swala_http_connections") - NODES as f64, reqs),
        ),
        ("core.static_ns", p("core.static")),
        ("cache.rules_ns", p("cache.rules")),
        ("cache.lookup_hit_ns", p("cache.lookup_hit")),
        ("cache.lookup_miss_ns", p("cache.lookup_miss")),
        ("cache.mem_get_ns", p("cache.mem_get")),
        ("cache.insert_ns", p("cache.insert")),
        ("cache.insert_evicting_ns", p("cache.insert_evicting")),
        ("cache.mem_insert_ns", p("cache.mem_insert")),
        ("cache.digest_ns_per_kib", probed.digest_ns_per_kib),
        ("cache.store_put_ns.files", p("store.put.files")),
        ("cache.store_put_ns.segment", p("store.put.segment")),
        ("cache.store_delete_ns.files", p("store.delete.files")),
        ("cache.store_delete_ns.segment", p("store.delete.segment")),
        ("cache.store_get_ns.files", p("store.get.files")),
        ("cache.store_get_ns.segment", p("store.get.segment")),
        ("cache.store_put_fsync_ns.files", p("store.put_fsync.files")),
        (
            "cache.store_put_fsync_ns.segment",
            p("store.put_fsync.segment"),
        ),
        ("cache.hit_ratio", hit_ratio(c)),
        // Over every body read, owner-serves for the peer included.
        (
            "cache.mem_hit_ratio",
            ratio(
                c.get("swala_cache_mem_hits"),
                c.get("swala_cache_mem_hits") + c.get("swala_cache_mem_misses"),
            ),
        ),
        (
            "cache.store_reads_per_req",
            ratio(c.get("swala_cache_store_reads"), reqs),
        ),
        (
            "cache.evictions_per_insert",
            ratio(c.get("swala_cache_evictions"), inserts_in_window),
        ),
        ("cache.false_hits", c.get("swala_cache_false_hits")),
        ("cache.false_misses", c.get("swala_cache_false_misses")),
        ("cache.coalesce_waits", c.get("swala_cache_coalesce_waits")),
        ("cache.ring_home_ns", p("cache.ring_home")),
        (
            "cache.disk_bytes_per_body_byte",
            ratio(disk_bytes, live_body_bytes),
        ),
        ("proto.encode_ns", p("proto.encode")),
        ("proto.decode_ns", p("proto.decode")),
        ("proto.frame_rw_ns", p("proto.frame_rw")),
        ("proto.fetch_rtt_ns", p("proto.fetch_rtt")),
        (
            "proto.fetch_rtt_count",
            probed.count("proto.fetch_rtt") as f64,
        ),
        (
            "proto.fetch_reuse_ratio",
            ratio(c.get("swala_fetch_reuses"), fetches),
        ),
        ("proto.fetch_retries", c.get("swala_http_fetch_retries")),
        (
            "proto.broadcasts_per_insert",
            ratio(c.get("swala_cache_broadcasts_sent"), inserts_in_window),
        ),
        ("proto.broadcast_dropped", c.get("swala_broadcast_dropped")),
        ("proto.broadcast_enqueue_ns", p("proto.broadcast_enqueue")),
        ("cgi.exec_ns", p("cgi.exec")),
        (
            "cgi.executions_per_req",
            ratio(c.get("swala_http_executions"), reqs),
        ),
        ("obs.hist_record_ns", p("obs.hist_record")),
        ("obs.trace_span_ns", p("obs.trace_span")),
        ("obs.heat_update_ns", p("obs.heat_update")),
        ("client.send_ns", quantile(&phases.send, 0.5)),
        ("client.wait_ns", quantile(&phases.wait, 0.5)),
        ("client.recv_ns", quantile(&phases.recv, 0.5)),
        ("client.verify_ns", quantile(&phases.verify, 0.5)),
        ("client.lat_p99_us", quantile(&plain.lat, 0.99) / 1e3),
        ("client.open_lat_p50_us", quantile(&open.lat, 0.50) / 1e3),
        ("client.open_lat_p99_us", quantile(&open.lat, 0.99) / 1e3),
        ("client.sched_lag_p99_us", quantile(&open.lag, 0.99) / 1e3),
        (
            "client.trace_overhead_pct",
            100.0
                * ratio(
                    plain.throughput_rps - traced.throughput_rps,
                    plain.throughput_rps,
                ),
        ),
        ("client.error_rate", ratio(failed as f64, attempted as f64)),
    ]);
    // Each workload must load the layers it was chosen for, and only those.
    let value = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{}: {what}", workload.name()));
        }
    };
    match workload {
        Workload::HitLocal | Workload::HitRemote => {
            expect(
                value("cgi.executions_per_req") == 0.0,
                "a hit executed a program",
            );
            expect(
                value("cache.store_reads_per_req") == 0.0,
                "a hit read the store",
            );
            let fetches = value("proto.fetch_rtt_count");
            expect(
                (fetches == 0.0) == (workload == Workload::HitLocal),
                "wire fetches on hit-local, or none on hit-remote",
            );
        }
        Workload::MissInsert => expect(
            value("proto.broadcasts_per_insert") >= 1.0,
            "inserts were not announced",
        ),
        Workload::ZipfMix => expect(
            value("cache.store_reads_per_req") > 0.0,
            "no local hit read the store",
        ),
    }
    eprintln!(
        "# {}: probe replayed {} requests, {} spans -> {}",
        workload.name(),
        probed.requests,
        spans.len(),
        span_file.display()
    );
    Outcome {
        metrics: ordered(PER_LAYER, values),
        attempted,
        failed,
        problems,
    }
}
