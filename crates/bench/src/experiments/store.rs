//! Segment-store gates: space reused in place, and kill -9 crash safety.
//!
//! Two headline guarantees of the one-file body store, exercised
//! end-to-end and recorded in `BENCH_store.json` for CI:
//!
//! 1. **Space gate** — twenty capacity turnovers with the benchmark's
//!    `zipf-mix` body sizes (1/4/16/64 KiB) end with the data file no
//!    longer than 1.10 × its live extents, and an all-64 KiB → all-1 KiB
//!    → all-64 KiB cycle ends no longer than 1.25 × where it began: freed
//!    extents are reused, merged and trimmed, never stranded.
//! 2. **Crash gate** — a child process (`tables store-child <dir>`, a
//!    hidden subcommand) inserts and deletes durably-acked entries in a
//!    tight loop, overwriting space in place, until this process SIGKILLs
//!    it mid-write. Reopening the store must serve *every* entry whose
//!    put was acked and whose delete was not, byte-identical, and none
//!    whose delete was; a warm restart through
//!    `CacheManager::recover_from_store` must hit on every surviving key
//!    with the memory tier pre-warmed — the post-restart hit rate equals
//!    the pre-kill steady state (1.0) instead of a cold-cache 0.

use crate::report::TableReport;
use crate::scale;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use swala_cache::store::HeaderMeta;
use swala_cache::{
    CacheKey, CacheManager, CacheManagerConfig, CacheRules, LookupResult, NodeId, PolicyKind,
    SegmentConfig, SegmentStore, Store, StoreMetrics,
};

fn meta() -> HeaderMeta {
    HeaderMeta {
        content_type: "text/html".into(),
        exec_micros: 1000,
        expires_unix: None,
        created_unix: 1,
    }
}

/// Entries the crash-test child keeps live: each put beyond that is
/// followed by the delete of the oldest, so records land in reused space.
const CRASH_LIVE: usize = 16;

/// The crash-test child's i-th key (a cacheable CGI target so the warm
/// restart can replay it through the manager's hit path).
fn crash_key(i: usize) -> CacheKey {
    CacheKey::new(format!("/cgi-bin/adl?id=crash{i}"))
}

/// The crash-test child's i-th body — deterministic, so the parent can
/// verify byte-identity without any channel beyond the ack stream.
fn crash_body(i: usize) -> Vec<u8> {
    let mut b = format!("crash-body-{i}:").into_bytes();
    b.extend((0..200).map(|j| (i.wrapping_mul(31).wrapping_add(j) & 0xff) as u8));
    b
}

/// `tables store-child <dir>`: insert and delete durably-acked entries
/// until killed. Each "acked N" / "gone N" line is printed only after the
/// put / delete (fsync on) returned, so each must hold after SIGKILL.
/// Never returns normally in the crash drill — the parent kills it
/// mid-loop.
pub fn run_child(dir: &str) {
    let store =
        SegmentStore::open_with(dir, SegmentConfig { fsync: true }).expect("child: open store");
    let say = |line: String| {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{line}").expect("child: ack");
        out.flush().expect("child: flush");
    };
    for i in 0..1_000_000 {
        store
            .put_described(&crash_key(i), &meta(), &crash_body(i))
            .expect("child: durable put");
        say(format!("acked {i}"));
        if i >= CRASH_LIVE {
            store
                .delete(&crash_key(i - CRASH_LIVE))
                .expect("child: durable delete");
            say(format!("gone {}", i - CRASH_LIVE));
        }
    }
}

/// A first-in-first-out population of fresh keys over one store.
struct Churn {
    store: SegmentStore,
    capacity: usize,
    fifo: VecDeque<CacheKey>,
    serial: usize,
}

impl Churn {
    /// Put one body per size, evicting beyond `capacity` entries (put,
    /// then evict, as the manager does).
    fn run(&mut self, sizes: impl Iterator<Item = usize>) -> StoreMetrics {
        for size in sizes {
            self.serial += 1;
            let key = CacheKey::new(format!("/cgi-bin/adl?id=s{}&bytes={size}", self.serial));
            self.store
                .put(&key, &vec![size as u8; size])
                .expect("churn put");
            self.fifo.push_back(key);
            if self.fifo.len() > self.capacity {
                let oldest = self.fifo.pop_front().expect("non-empty");
                self.store.delete(&oldest).expect("churn delete");
            }
        }
        self.store.metrics()
    }
}

struct SpaceOutcome {
    capacity: usize,
    turnover: StoreMetrics,
    first: u64,
    regrown: u64,
}

fn space_gate(dir: &std::path::Path, capacity: usize) -> SpaceOutcome {
    let churn = |name: &str| {
        let root = dir.join(name);
        let _ = std::fs::remove_dir_all(&root);
        Churn {
            store: SegmentStore::open_with(root, SegmentConfig { fsync: false })
                .expect("open space store"),
            capacity,
            fifo: VecDeque::new(),
            serial: 0,
        }
    };
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mixed = std::iter::repeat_with(move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        [1usize, 4, 16, 64][(rng % 4) as usize] * 1024
    });
    let turnover = churn("turnover").run(mixed.take(21 * capacity));
    assert!(
        turnover.file_bytes as f64 <= 1.10 * turnover.live_bytes as f64,
        "20 turnovers left the file over 1.10 x its live bytes: {turnover:?}"
    );

    let mut cycle = churn("regrow");
    let mut phase = |size: usize, n: usize| cycle.run(std::iter::repeat_n(size, n));
    let first = phase(64 * 1024, capacity).file_bytes;
    phase(1024, 3 * capacity);
    let regrown = phase(64 * 1024, capacity).file_bytes;
    assert!(
        regrown as f64 <= 1.25 * first as f64,
        "64K -> 1K -> 64K ratcheted the file from {first} to {regrown}"
    );
    SpaceOutcome {
        capacity,
        turnover,
        first,
        regrown,
    }
}

struct CrashOutcome {
    acked: usize,
    gone: usize,
    recovered: usize,
    file_bytes: u64,
    warm_hit_rate: f64,
    mem_tier_hits: u64,
}

fn crash_gate(dir: &std::path::Path, target_acks: usize) -> CrashOutcome {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create crash dir");
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .arg("store-child")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn store-child");
    let reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let (mut acked, mut gone) = (0usize, 0usize);
    for line in reader.lines() {
        let line = line.expect("child ack line");
        if let Some(n) = line.strip_prefix("acked ") {
            assert_eq!(n.trim().parse(), Ok(acked), "acks arrive in order");
            acked += 1;
            if acked >= target_acks {
                break;
            }
        } else if let Some(n) = line.strip_prefix("gone ") {
            assert_eq!(n.trim().parse(), Ok(gone), "deletes arrive in order");
            gone += 1;
        }
    }
    // SIGKILL mid-write: no destructors, no flush, no goodbye.
    child.kill().expect("kill -9 store-child");
    let _ = child.wait();
    assert!(acked >= target_acks, "child died early at {acked} acks");

    // Warm restart through the full manager: directory rebuilt from the
    // data file, memory tier pre-warmed.
    let store = SegmentStore::open(dir).expect("reopen after kill");
    let file_bytes = store.metrics().file_bytes;
    for i in 0..gone {
        assert!(
            !store.contains(&crash_key(i)),
            "entry {i} is back after its delete was acked"
        );
    }
    let manager = CacheManager::new(
        CacheManagerConfig {
            num_nodes: 1,
            local: NodeId(0),
            capacity: 1_000_000,
            policy: PolicyKind::Lru,
            rules: CacheRules::allow_all(),
            mem_cache_bytes: 64 * 1024 * 1024,
            ..Default::default()
        },
        Box::new(store),
    );
    let recovered = manager.recover_from_store();
    // Entry `gone` itself may have been mid-delete at the kill; every
    // later acked one must be a local hit.
    let survivors = gone + 1..acked;
    assert!(
        recovered >= survivors.len(),
        "acked entries lost: {recovered} recovered < {} acked and not deleted",
        survivors.len()
    );
    let mut hits = 0usize;
    for i in survivors.clone() {
        let k = crash_key(i);
        match manager.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, .. } => {
                assert_eq!(
                    &body[..],
                    &crash_body(i)[..],
                    "acked entry {i} not byte-identical after kill -9"
                );
                hits += 1;
            }
            other => {
                manager.abort_execution(&k);
                panic!("acked entry {i} missing after restart: {other:?}");
            }
        }
    }
    let stats = manager.stats().snapshot();
    // Pre-kill steady state: every live key served from cache (rate
    // 1.0). The warm restart must match it, not restart cold.
    let warm_hit_rate = hits as f64 / survivors.len() as f64;
    assert_eq!(warm_hit_rate, 1.0, "warm restart hit rate != pre-kill 1.0");
    assert_eq!(
        stats.mem_hits,
        survivors.len() as u64,
        "recovery must pre-warm the memory tier (zero store reads on the hit path)"
    );
    CrashOutcome {
        acked,
        gone,
        recovered,
        file_bytes,
        warm_hit_rate,
        mem_tier_hits: stats.mem_hits,
    }
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let target_acks = if quick { 60 } else { 400 };
    let capacity = if quick { 200 } else { 2000 };
    let base = std::env::temp_dir().join(format!("swala-store-bench-{}", std::process::id()));

    let space = space_gate(&base.join("space"), capacity);
    let crash = crash_gate(&base.join("crash"), target_acks);

    let over_live = space.turnover.file_bytes as f64 / space.turnover.live_bytes as f64;
    let regrow = space.regrown as f64 / space.first as f64;
    let json = format!(
        "{{\n  \"experiment\": \"store\",\n  \"quick\": {quick},\n  \"space\": {{\n    \
         \"capacity\": {}, \"turnovers\": 20, \"file_bytes\": {}, \"live_bytes\": {},\n    \
         \"free_bytes\": {}, \"file_over_live\": {over_live:.3},\n    \
         \"first_64k_file_bytes\": {}, \"regrown_64k_file_bytes\": {}, \
         \"regrow_ratio\": {regrow:.3}\n  }},\n  \"crash\": {{\n    \
         \"acked\": {}, \"deleted\": {}, \"recovered\": {}, \"file_bytes\": {},\n    \
         \"byte_identical\": true, \"resurrected\": 0,\n    \
         \"pre_kill_hit_rate\": 1.0, \"warm_hit_rate\": {:.1}, \"mem_tier_hits\": {}\n  }}\n}}\n",
        space.capacity,
        space.turnover.file_bytes,
        space.turnover.live_bytes,
        space.turnover.free_bytes,
        space.first,
        space.regrown,
        crash.acked,
        crash.gone,
        crash.recovered,
        crash.file_bytes,
        crash.warm_hit_rate,
        crash.mem_tier_hits,
    );
    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");

    let mut report = TableReport::new(
        "store",
        "Segment store: space reused in place, and kill -9 crash safety",
        &["gate", "result"],
    );
    report.row(vec![
        format!("20 turnovers, 1/4/16/64 KiB, capacity {}", space.capacity),
        format!(
            "file {} bytes = {over_live:.3} x live ({} free)",
            space.turnover.file_bytes, space.turnover.free_bytes
        ),
    ]);
    report.row(vec![
        "all 64 KiB -> all 1 KiB -> all 64 KiB".into(),
        format!(
            "file {} -> {} bytes ({regrow:.3} x)",
            space.first, space.regrown
        ),
    ]);
    report.row(vec![
        "kill -9 + warm restart".into(),
        format!(
            "{} acked, {} deleted, {} recovered in {} bytes, hit rate {:.1} (mem tier: {})",
            crash.acked,
            crash.gone,
            crash.recovered,
            crash.file_bytes,
            crash.warm_hit_rate,
            crash.mem_tier_hits
        ),
    ]);
    report.note("every durably-acked entry served byte-identical after SIGKILL mid-overwrite");
    report.note("no entry whose delete was acked came back");
    report.note(
        "warm restart hit rate equals the pre-kill steady state (1.0) — no cold-cache window",
    );
    report.note("results written to BENCH_store.json");

    let _ = std::fs::remove_dir_all(base);
    report
}
