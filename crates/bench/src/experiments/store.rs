//! Segment store: space reused in place.
//!
//! Twenty capacity turnovers with the benchmark's `zipf-mix` body sizes
//! (1/4/16/64 KiB), and an all-64 KiB → all-1 KiB → all-64 KiB cycle,
//! report how long the one data file grows against its live extents:
//! freed extents are reused, merged and trimmed, never stranded. The
//! bounds (1.10 × live, 1.25 × regrown) are held by `segstore_model`'s
//! churn tests; the kill -9 drill and its warm restart by
//! `tests/chaos.rs`.

use crate::report::TableReport;
use crate::scale;
use std::collections::VecDeque;
use swala_cache::{CacheKey, SegmentConfig, SegmentStore, Store, StoreMetrics};

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

fn reuse(dir: &std::path::Path, capacity: usize) -> SpaceOutcome {
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

    let mut cycle = churn("regrow");
    let mut phase = |size: usize, n: usize| cycle.run(std::iter::repeat_n(size, n));
    let first = phase(64 * 1024, capacity).file_bytes;
    phase(1024, 3 * capacity);
    let regrown = phase(64 * 1024, capacity).file_bytes;
    SpaceOutcome {
        capacity,
        turnover,
        first,
        regrown,
    }
}

pub fn run() -> TableReport {
    let quick = scale::quick();
    let capacity = if quick { 200 } else { 2000 };
    let base = std::env::temp_dir().join(format!("swala-store-bench-{}", std::process::id()));

    let space = reuse(&base, capacity);
    let over_live = space.turnover.file_bytes as f64 / space.turnover.live_bytes as f64;
    let regrow = space.regrown as f64 / space.first as f64;
    let mut report = TableReport::new(
        "store",
        "Segment store: space reused in place",
        &["churn", "result"],
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
    let _ = std::fs::remove_dir_all(base);
    report
}
