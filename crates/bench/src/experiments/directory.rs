//! Directory organisation — replicated broadcast vs partitioned ring.
//!
//! The paper's directory is fully replicated: every insert/delete is
//! broadcast to all N−1 peers, so directory-update traffic grows as
//! O(N) per cache write — the broadcast wall. The partitioned variant
//! assigns each key a *home* node on a consistent-hash ring and sends
//! exactly one point-to-point update there (zero when the writer is the
//! home), trading a per-miss home lookup for O(1) update cost.
//!
//! This experiment runs a write-heavy phase (unique cacheable requests
//! sprayed round-robin) followed by a read phase (every key re-read from
//! a non-owner) against live clusters of 2/4/8(/16) nodes in both modes,
//! and records:
//!
//! * insert notices on the wire per insert, from the per-link counters
//!   (N−1 replicated, ≤1 partitioned);
//! * total directory wire bytes from the per-link payload counters;
//! * client-side local-hit and remote-hit (miss-resolution) latency
//!   quantiles — the partitioned remote path pays one extra round-trip
//!   to the home, which must not blow up the hit path.
//!
//! The update-cost bounds are held by `tests/directory_modes.rs`.

use crate::report::TableReport;
use crate::scale;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::DirectoryKind;
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_cluster::directories_converged;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(std::sync::Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

/// Latency quantiles in microseconds from raw samples.
struct Quantiles {
    p50: u64,
    p99: u64,
}

fn quantiles(mut samples: Vec<u64>) -> Quantiles {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() as f64 * q) as usize).min(samples.len() - 1)];
    Quantiles {
        p50: at(0.50),
        p99: at(0.99),
    }
}

/// One (mode, cluster size) measurement.
struct ModeRun {
    directory: DirectoryKind,
    nodes: usize,
    inserts: u64,
    /// Insert/delete notices put on the wire, summed over every peer
    /// link: each notice once per home it reaches (replicated: N−1 per
    /// insert; partitioned: one, or none for a key homed at its owner).
    update_msgs: u64,
    /// Payload bytes written on all peer links (directory traffic).
    wire_bytes: u64,
    local: Quantiles,
    remote: Quantiles,
}

impl ModeRun {
    fn updates_per_insert(&self) -> f64 {
        self.update_msgs as f64 / self.inserts as f64
    }
}

/// Poll until every write is visible where reads will look for it.
fn await_convergence(servers: &[SwalaServer], expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if directories_converged(servers, expected) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "directory did not converge ({expected} entries)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn run_mode(directory: DirectoryKind, nodes: usize, inserts: usize) -> ModeRun {
    let servers = swala::start_cluster(nodes, |_| {
        (
            ServerOptions {
                pool_size: 2,
                directory,
                ..Default::default()
            },
            registry(),
        )
    })
    .expect("start cluster");
    let mut clients: Vec<HttpClient> = servers
        .iter()
        .map(|s| HttpClient::new(s.http_addr()))
        .collect();

    // Write-heavy phase: unique keys, round-robin over nodes.
    for i in 0..inserts {
        let resp = clients[i % nodes]
            .get(&format!("/cgi-bin/adl?id=dir{i}&ms=0"))
            .expect("insert request");
        assert!(resp.status.is_success());
    }
    for s in &servers {
        assert!(s.flush_broadcasts(Duration::from_secs(10)));
    }
    await_convergence(&servers, inserts);

    // Capture directory-traffic counters before the read phase so remote
    // fetches and home lookups don't muddy the update-cost numbers.
    let links: Vec<_> = servers
        .iter()
        .flat_map(|s| s.broadcast_link_stats())
        .collect();
    let update_msgs: u64 = links.iter().map(|l| l.sent).sum();
    let wire_bytes: u64 = links.iter().map(|l| l.sent_bytes).sum();

    // Read phase 1 — local hits: each key from the node that executed it.
    let mut local_us = Vec::with_capacity(inserts);
    for i in 0..inserts {
        let t0 = Instant::now();
        let resp = clients[i % nodes]
            .get(&format!("/cgi-bin/adl?id=dir{i}&ms=0"))
            .expect("local read");
        assert!(resp.status.is_success());
        local_us.push(t0.elapsed().as_micros() as u64);
    }

    // Read phase 2 — remote hits (miss resolution): each key from a
    // different node. Replicated resolves from the local directory
    // replica; partitioned asks the key's home first.
    let mut remote_us = Vec::with_capacity(inserts);
    for i in 0..inserts {
        let t0 = Instant::now();
        let resp = clients[(i + 1) % nodes]
            .get(&format!("/cgi-bin/adl?id=dir{i}&ms=0"))
            .expect("remote read");
        remote_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(
            resp.headers.get("X-Swala-Cache"),
            Some("remote-hit"),
            "{directory:?} {nodes} nodes, key dir{i}"
        );
    }

    drop(clients);
    for s in servers {
        s.shutdown();
    }
    ModeRun {
        directory,
        nodes,
        inserts: inserts as u64,
        update_msgs,
        wire_bytes,
        local: quantiles(local_us),
        remote: quantiles(remote_us),
    }
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let inserts = if quick { 60 } else { 200 };
    let sizes: &[usize] = if quick { &[2, 4, 8] } else { &[2, 4, 8, 16] };

    let mut report = TableReport::new(
        "directory",
        "Directory update cost: replicated broadcast vs partitioned ring",
        &[
            "directory",
            "nodes",
            "updates/insert",
            "wire bytes",
            "local p50/p99 us",
            "remote p50/p99 us",
        ],
    );

    let mut runs: Vec<ModeRun> = Vec::new();
    for &nodes in sizes {
        for directory in [DirectoryKind::Replicated, DirectoryKind::Partitioned] {
            let r = run_mode(directory, nodes, inserts);
            report.row(vec![
                r.directory.as_str().into(),
                r.nodes.to_string(),
                format!("{:.2}", r.updates_per_insert()),
                r.wire_bytes.to_string(),
                format!("{}/{}", r.local.p50, r.local.p99),
                format!("{}/{}", r.remote.p50, r.remote.p99),
            ]);
            runs.push(r);
        }
    }

    let at = |directory: DirectoryKind, nodes: usize| {
        runs.iter()
            .find(|r| r.directory == directory && r.nodes == nodes)
            .expect("run exists")
    };
    let repl8 = at(DirectoryKind::Replicated, 8);
    let part8 = at(DirectoryKind::Partitioned, 8);
    report.note(format!(
        "N=8 write-heavy: updates/insert {} -> {:.2}, wire bytes {} -> {} ({:.1}x fewer)",
        repl8.updates_per_insert(),
        part8.updates_per_insert(),
        repl8.wire_bytes,
        part8.wire_bytes,
        repl8.wire_bytes as f64 / part8.wire_bytes as f64,
    ));
    report.note(format!(
        "N=8 remote-hit (miss resolution) p99: replicated {} us, partitioned {} us ({:+.1}%) \
         — partitioned pays one home-lookup round-trip",
        repl8.remote.p99,
        part8.remote.p99,
        (part8.remote.p99 as f64 - repl8.remote.p99 as f64) / repl8.remote.p99 as f64 * 100.0,
    ));
    report.note("local-hit path touches no directory traffic in either mode");

    report
}
