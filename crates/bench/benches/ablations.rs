//! Criterion benches for the design-choice ablations: directory lock
//! granularity (§4.2's three options), eviction at capacity (victim
//! index vs the scan it replaced), the body digest, the wire codec, and
//! the notice enqueue on a parked vs a held link.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala_cache::locking::{backend, DirectoryOps};
use swala_cache::{CacheKey, Digest, EntryMeta, NodeId, Policy, PolicyKind, VictimIndex};
use swala_proto::{BroadcastConfig, Message, PeerLink, NOTICE_PACE};

fn preloaded(granularity: &str, nodes: usize, per_node: usize) -> Arc<dyn DirectoryOps> {
    let ops = backend(granularity, nodes).expect("backend");
    for n in 0..nodes {
        for k in 0..per_node {
            ops.insert(
                NodeId(n as u16),
                EntryMeta::new(
                    CacheKey::new(format!("/k?n={n}&k={k}")),
                    NodeId(n as u16),
                    100,
                    "t",
                    1000,
                    None,
                    k as u64,
                ),
            );
        }
    }
    Arc::from(ops)
}

/// §4.2's locking ablation: contended lookup throughput per granularity.
fn bench_ablation_lock_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_locking");
    for granularity in ["global", "table", "entry", "hybrid"] {
        let ops = preloaded(granularity, 8, 200);
        // Background writers keep the write path hot while we time reads,
        // reproducing the paper's concern (writers stall readers under a
        // single global lock).
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let ops = Arc::clone(&ops);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = w as u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        ops.insert(
                            NodeId((i % 8) as u16),
                            EntryMeta::new(
                                CacheKey::new(format!("/w?i={}", i % 500)),
                                NodeId((i % 8) as u16),
                                1,
                                "t",
                                1,
                                None,
                                i,
                            ),
                        );
                        i += 1;
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let mut i = 0u64;
        group.bench_function(format!("lookup_under_writes_{granularity}"), |b| {
            b.iter(|| {
                i += 7;
                black_box(ops.lookup(&CacheKey::new(format!("/k?n={}&k={}", i % 8, i % 200))))
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            let _ = w.join();
        }
    }
    group.finish();
}

/// One cached result for the eviction bench, its rank inputs spread so
/// no policy degenerates into ties.
fn bench_entry(id: u64, seq: u64) -> EntryMeta {
    EntryMeta::new(
        CacheKey::new(format!("/cgi-bin/adl?id={id}")),
        NodeId(0),
        100 + (id % 977) * 13,
        "text/html",
        1000 + (id % 313) * 997,
        None,
        seq,
    )
}

/// A resident key to hit before insert number `next`: spread over the
/// whole table, so under Lru and Lfu most evictions meet a stale
/// snapshot to repair.
fn resident(next: u64, capacity: u64) -> CacheKey {
    let back = next.wrapping_mul(0x9e37_79b9_7f4a_7c15) % capacity;
    CacheKey::new(format!("/cgi-bin/adl?id={}", next - 1 - back))
}

/// The cost of one insert at capacity — a hit, a new entry admitted, one
/// evicted — per policy and table size. Through the victim index the
/// cost of *choosing* must be flat in the size. Two reference rows per
/// size run the same step around a different choice: `table_only` evicts
/// the oldest id without choosing at all (what the `HashMap` itself costs
/// as it outgrows the CPU caches), `scan_oracle` chooses with the
/// O(capacity) `choose_victim` scan the index replaced (ROADMAP item 1c:
/// the before/after is this one `cargo bench` away).
fn bench_evict_at_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("evict_at_capacity");
    group.sample_size(400);
    for (label, capacity) in [("2k", 2_000u64), ("20k", 20_000), ("200k", 200_000)] {
        for kind in PolicyKind::ALL {
            let mut table = HashMap::new();
            let mut index = VictimIndex::new(kind);
            for id in 0..capacity {
                let mut e = bench_entry(id, id);
                index.on_insert(&mut e, &table);
                table.insert(e.key.clone(), e);
            }
            let mut next = capacity;
            group.bench_function(format!("{label}/{kind}"), |b| {
                b.iter(|| {
                    if let Some(e) = table.get_mut(&resident(next, capacity)) {
                        index.on_hit(e, next);
                    }
                    let mut e = bench_entry(next, next);
                    next += 1;
                    index.on_insert(&mut e, &table);
                    table.insert(e.key.clone(), e);
                    black_box(index.evict_one(&mut table))
                })
            });
        }
        let filled = || -> HashMap<CacheKey, EntryMeta> {
            (0..capacity)
                .map(|id| bench_entry(id, id))
                .map(|e| (e.key.clone(), e))
                .collect()
        };
        let mut table = filled();
        let mut next = capacity;
        group.bench_function(format!("{label}/table_only"), |b| {
            b.iter(|| {
                if let Some(e) = table.get_mut(&resident(next, capacity)) {
                    e.record_hit(next);
                }
                let e = bench_entry(next, next);
                table.insert(e.key.clone(), e);
                let oldest = CacheKey::new(format!("/cgi-bin/adl?id={}", next - capacity));
                next += 1;
                black_box(table.remove(&oldest))
            })
        });
        let mut table = filled();
        let mut policy = Policy::new(PolicyKind::Lru);
        let mut next = capacity;
        group.bench_function(format!("{label}/scan_oracle"), |b| {
            b.iter(|| {
                if let Some(e) = table.get_mut(&resident(next, capacity)) {
                    e.record_hit(next);
                    policy.on_hit(e);
                }
                let mut e = bench_entry(next, next);
                next += 1;
                policy.on_insert(&mut e);
                table.insert(e.key.clone(), e);
                let victim = policy.choose_victim(table.values()).expect("non-empty");
                let evicted = table.remove(&victim).expect("chosen from the table");
                policy.on_evict(&evicted);
                black_box(evicted)
            })
        });
    }
    group.finish();
}

/// The digest of one 4 KiB body — what every insert pays, and every
/// store read that finds no digest recorded.
fn bench_digest(c: &mut Criterion) {
    let body: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    c.bench_function("digest_4k", |b| {
        b.iter(|| black_box(Digest::of(black_box(&body))))
    });
}

/// Wire codec throughput: the per-broadcast serialization cost.
fn bench_wire_codec(c: &mut Criterion) {
    let meta = EntryMeta::new(
        CacheKey::new("/cgi-bin/adl?id=12345&ms=1600"),
        NodeId(3),
        4096,
        "text/html",
        1_600_000,
        Some(Duration::from_secs(300)),
        42,
    );
    let msg = Message::InsertNotice { meta };
    let encoded = msg.encode();
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_insert_notice", |b| {
        b.iter(|| black_box(msg.encode()))
    });
    group.bench_function("decode_insert_notice", |b| {
        b.iter(|| black_box(Message::decode(&encoded).unwrap()))
    });
    group.finish();
}

/// Caller-side cost of handing one notice to a link, by what the writer
/// is doing: parked (the enqueue must wake it — one futex call) or busy
/// (a held link: the enqueue is a push under the queue lock and nothing
/// else). Pacing turns all but one enqueue per interval into the second.
fn bench_broadcast_enqueue(c: &mut Criterion) {
    let frame: Arc<[u8]> = Message::NodeDown { node: NodeId(1) }.encode().into();
    let mut group = c.benchmark_group("broadcast");

    // A live sink; each timed enqueue waits (off the clock) for the
    // previous send's hold to run out and the writer to park.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let Ok((mut s, _)) = listener.accept() else {
            return;
        };
        while let Ok(Some(_)) = swala_proto::read_frame(&mut s) {}
    });
    let link = PeerLink::new(NodeId(0), NodeId(1), addr);
    group.bench_function("enqueue_parked", |b| {
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                std::thread::sleep(3 * NOTICE_PACE);
                let t = Instant::now();
                black_box(link.enqueue_frame(Arc::clone(&frame)));
                timed += t.elapsed();
            }
            timed
        })
    });
    let st = link.stats();
    println!(
        "broadcast/enqueue_parked                         {} of {} enqueues woke the writer",
        st.wakeups,
        st.sent + st.queued as u64
    );
    drop(link);

    // A writer stuck connecting never parks, so every enqueue is the
    // held-link push (the full queue sheds its oldest, as under load).
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new(gate);
    let link = PeerLink::with_config(
        NodeId(0),
        NodeId(1),
        addr,
        BroadcastConfig {
            connector: Arc::new(move |_, _, _| {
                let _ = gate.lock().expect("gate").recv();
                Err(std::io::ErrorKind::ConnectionRefused.into())
            }),
            ..Default::default()
        },
    );
    link.enqueue_frame(Arc::clone(&frame));
    while link.stats().queued > 0 {
        std::thread::yield_now(); // until the writer has taken it and is stuck
    }
    group.bench_function("enqueue_held", |b| {
        b.iter(|| black_box(link.enqueue_frame(Arc::clone(&frame))))
    });
    println!(
        "broadcast/enqueue_held                           {} wake-ups in all (the first enqueue's, at most)",
        link.stats().wakeups
    );
    drop(release);
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench_ablation_lock_granularity, bench_evict_at_capacity, bench_digest, bench_wire_codec, bench_broadcast_enqueue,
}
criterion_main!(ablations);
