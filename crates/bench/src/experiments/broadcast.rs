//! Broadcast pipeline — notice fan-out off the request critical path.
//!
//! §4.2 sends cache notices asynchronously; the weak-consistency design
//! tolerates stale directories, so the request thread should pay only an
//! O(1) enqueue per broadcast, independent of how many peers exist and of
//! whether they are reachable. Two measurements:
//!
//! 1. Caller-side cost of `Broadcaster::broadcast` against live sink
//!    peers at several cluster sizes, and against entirely dead peers —
//!    the enqueue must cost microseconds either way.
//! 2. A live node whose only peer is dead answering unique cacheable
//!    requests (miss + store + insert + broadcast each): its mean
//!    response must track a fully-alive pair, because connect timeouts
//!    and retries happen on writer threads, not request threads.
//! 3. A loaded link: one producer enqueueing ≈ 15 k notices/s at a live
//!    sink, then the same link fed one notice every 2 × `NOTICE_PACE_MAX`
//!    (further apart than any hold, so each finds the link parked).
//!    Counters, not timing, say what pacing did — notices per frame,
//!    frames, the hold the link ended on, sent at once vs after a hold,
//!    wake-ups issued — next to the writer thread's CPU per notice, the
//!    caller's enqueue cost on a held vs a parked link, and the
//!    enqueue→socket delay histogram the pacing contract bounds. The
//!    counter bounds are held by `swala-proto`'s `peers::` tests, which
//!    drive the same feed through the link's `LinkState` with explicit
//!    instants.

use crate::report::{fmt_ms, TableReport};
use crate::scale;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use swala::{BoundSwala, HttpClient, ServerOptions};
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_proto::{Broadcaster, LinkStats, Message, NOTICE_PACE, NOTICE_PACE_MAX};

/// An address that refuses connections: bind, record, drop.
fn dead_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr");
    drop(l);
    addr
}

/// Spawn a sink peer that drains frames forever; returns its address.
fn sink_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { return };
            std::thread::spawn(move || while let Ok(Some(_)) = swala_proto::read_frame(&mut s) {});
        }
    });
    addr
}

fn notice(n: u64) -> Message {
    Message::InsertNotice {
        meta: EntryMeta::new(
            CacheKey::new(format!("/cgi-bin/adl?id={n}")),
            NodeId(0),
            256,
            "text/html",
            1_000_000,
            None,
            n,
        ),
    }
}

/// Mean caller-side microseconds per broadcast, plus final (sent, dropped).
fn enqueue_cost(peer_addrs: Vec<SocketAddr>, rounds: u64) -> (f64, u64, u64) {
    let peers: Vec<(NodeId, SocketAddr)> = peer_addrs
        .into_iter()
        .enumerate()
        .map(|(i, a)| (NodeId(i as u16 + 1), a))
        .collect();
    let b = Broadcaster::new(NodeId(0), peers);
    for n in 0..rounds / 10 {
        b.broadcast(&notice(n));
    }
    let t0 = Instant::now();
    for n in 0..rounds {
        std::hint::black_box(b.broadcast(&notice(n)));
    }
    let micros = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    b.flush(Duration::from_secs(5));
    let (sent, dropped) = b.counters();
    b.shutdown();
    (micros, sent, dropped)
}

/// Mean response time (ms) of `requests` unique cacheable requests
/// against a node whose single peer is either a live node or a dead
/// address, plus the node's own miss-outcome latency histogram (the
/// server's view of the execute + insert + broadcast-enqueue path).
fn live_insert_mean(
    dead_peer: bool,
    requests: usize,
    ms: u64,
) -> (f64, swala_obs::HistogramSnapshot) {
    fn registry() -> ProgramRegistry {
        let mut r = ProgramRegistry::new();
        r.register(std::sync::Arc::new(SimulatedProgram::trace_driven(
            "adl",
            WorkKind::Sleep,
        )));
        r
    }
    let options = ServerOptions {
        pool_size: 4,
        ..Default::default()
    };
    let servers = if dead_peer {
        // Wired by hand: node 1's slot holds an address nothing serves.
        let node0 = BoundSwala::bind(
            ServerOptions {
                num_nodes: 2,
                ..options
            },
            registry(),
        )
        .and_then(|b| b.start(vec![None, Some(dead_addr())]))
        .expect("start node");
        vec![node0]
    } else {
        swala::start_cluster(2, |_| (options.clone(), registry())).expect("start pair")
    };
    let node0 = &servers[0];
    let mut client = HttpClient::new(node0.http_addr());
    // Warm the connection and the pool.
    for n in 0..requests / 10 {
        client
            .get(&format!("/cgi-bin/adl?id=w{n}&ms={ms}"))
            .expect("warmup");
    }
    let mut total = 0.0;
    for n in 0..requests {
        let t0 = Instant::now();
        let resp = client
            .get(&format!("/cgi-bin/adl?id=m{n}&ms={ms}"))
            .expect("request");
        assert!(resp.status.is_success());
        total += t0.elapsed().as_secs_f64();
    }
    drop(client);
    let miss_hist = node0.telemetry().outcome_snapshot(swala_obs::Outcome::Miss);
    for s in servers {
        s.shutdown();
    }
    (total / requests as f64 * 1e3, miss_hist)
}

/// On-CPU nanoseconds of this process's notice-writer threads, from the
/// kernel's per-thread accounting (the clock `RUSAGE_THREAD` reads, but
/// readable from outside the thread).
fn writer_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.trim_end() == "swala-notice-wr")
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// One phase of the loaded-link run: `count` notices enqueued `gap`
/// apart (yield-waiting — a sleep cannot pace microseconds).
struct LinkPhase {
    /// Mean caller-side cost of one enqueue.
    enqueue_ns: f64,
    /// Writer-thread CPU per notice.
    writer_cpu_us: f64,
    /// The link's counters, as deltas over the phase (`hold` as the
    /// phase's last enqueue found it).
    stats: LinkStats,
    /// How long the enqueueing took.
    fed: Duration,
}

fn link_phase(b: &Broadcaster, count: u64, gap: Duration) -> LinkPhase {
    let before = b.link_stats().remove(0);
    let cpu0 = writer_cpu_ns();
    let mut in_enqueue = Duration::ZERO;
    let start = Instant::now();
    for n in 0..count {
        let msg = notice(n);
        let due = start + gap * n as u32;
        while Instant::now() < due {
            // Stands in for a worker between inserts, which blocks on its
            // socket: give the core up rather than spin the writer off it.
            std::thread::yield_now();
        }
        let t = Instant::now();
        b.broadcast(&msg);
        in_enqueue += t.elapsed();
    }
    let fed = start.elapsed();
    let hold = b.link_stats()[0].hold;
    assert!(b.flush(Duration::from_secs(5)), "sink stopped draining");
    let cpu_ns = writer_cpu_ns() - cpu0;
    let mut stats = b.link_stats().remove(0);
    stats.hold = hold;
    stats.sent -= before.sent;
    stats.frames -= before.frames;
    stats.sent_immediate -= before.sent_immediate;
    stats.sent_after_hold -= before.sent_after_hold;
    stats.wakeups -= before.wakeups;
    stats.dropped -= before.dropped;
    LinkPhase {
        enqueue_ns: in_enqueue.as_nanos() as f64 / count as f64,
        writer_cpu_us: cpu_ns as f64 / 1e3 / count as f64,
        stats,
        fed,
    }
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let rounds: u64 = if quick { 5_000 } else { 20_000 };
    let requests = if quick { 60 } else { 200 };
    let ms = 2u64;

    let mut report = TableReport::new(
        "broadcast",
        "Broadcast pipeline: request-thread cost of notice fan-out",
        &["scenario", "peers", "mean cost", "sent", "dropped"],
    );

    for peers in [1usize, 2, 4, 8] {
        let (us, sent, dropped) = enqueue_cost((0..peers).map(|_| sink_addr()).collect(), rounds);
        report.row(vec![
            "enqueue, live sinks".into(),
            peers.to_string(),
            format!("{us:.2} us"),
            sent.to_string(),
            dropped.to_string(),
        ]);
    }
    let (us_dead, sent_dead, dropped_dead) =
        enqueue_cost((0..4).map(|_| dead_addr()).collect(), rounds);
    report.row(vec![
        "enqueue, dead peers".into(),
        "4".to_string(),
        format!("{us_dead:.2} us"),
        sent_dead.to_string(),
        dropped_dead.to_string(),
    ]);

    let (alive, alive_hist) = live_insert_mean(false, requests, ms);
    let (dead, dead_hist) = live_insert_mean(true, requests, ms);
    report.row(vec![
        "live insert, peer alive".into(),
        "1".into(),
        format!("{} ms", fmt_ms(alive)),
        String::new(),
        String::new(),
    ]);
    report.row(vec![
        "live insert, peer dead".into(),
        "1".into(),
        format!("{} ms", fmt_ms(dead)),
        String::new(),
        String::new(),
    ]);
    report.note(format!(
        "live insert mean (ms): alive {} vs dead {} ({:+.1}%) — a dead peer must not slow the request path",
        fmt_ms(alive),
        fmt_ms(dead),
        (dead - alive) / alive * 1e2,
    ));
    report.note(format!(
        "server-side miss histograms: alive p50/p99 {}/{} us ({} obs), dead p50/p99 {}/{} us ({} obs)",
        alive_hist.p50(),
        alive_hist.p99(),
        alive_hist.count,
        dead_hist.p50(),
        dead_hist.p99(),
        dead_hist.count,
    ));
    report.note("caller cost is one encode + one bounded enqueue per link; connects, retries and timeouts happen on writer threads");
    // Loaded link, then the same link idle between notices.
    let link = Broadcaster::new(NodeId(0), [(NodeId(1), sink_addr())]);
    link.broadcast(&notice(0)); // connect outside the measured phases
    link.flush(Duration::from_secs(5));
    let load_secs = if quick { 1 } else { 3 };
    let loaded = link_phase(
        &link,
        15_000 * load_secs,
        Duration::from_micros(1_000_000 / 15_000),
    );
    let loaded_delay = link.notice_delay().snapshot();
    // Let the last hold run out.
    std::thread::sleep(2 * NOTICE_PACE_MAX);
    // Further apart than the longest hold: whatever a stall of this
    // producer does to the ramp, the next gap parks the link again. (A
    // steady notice per 1.5 ms is *not* an idle link any more — once a
    // burst has pushed its hold to 2 ms every hold catches the next
    // notice, and it stays at the maximum, three notices to a frame.)
    let spaced = link_phase(&link, if quick { 100 } else { 500 }, 2 * NOTICE_PACE_MAX);
    link.shutdown();
    for (name, phase) in [
        ("loaded link, 15k notices/s", &loaded),
        ("idle link, 2x max hold apart", &spaced),
    ] {
        let st = &phase.stats;
        report.row(vec![
            name.into(),
            "1".into(),
            format!("{:.0} ns", phase.enqueue_ns),
            st.sent.to_string(),
            st.dropped.to_string(),
        ]);
        report.note(format!(
            "{name}: {:.1} notices/frame ({} frames, {:.0}/s, hold {} us), {} at once / {} after a hold, {} wake-ups, writer {:.2} us CPU/notice",
            st.notices_per_frame(),
            st.frames,
            st.frames as f64 / phase.fed.as_secs_f64(),
            st.hold.as_micros(),
            st.sent_immediate,
            st.sent_after_hold,
            st.wakeups,
            phase.writer_cpu_us,
        ));
    }
    report.note(format!(
        "loaded-link notice delay (enqueue -> socket): p50 {} us, p99 {} us, max {} us against holds of {} .. {} us",
        loaded_delay.p50(),
        loaded_delay.p99(),
        loaded_delay.max,
        NOTICE_PACE.as_micros(),
        NOTICE_PACE_MAX.as_micros(),
    ));
    report
}
