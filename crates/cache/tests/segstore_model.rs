//! The segment store against a model, under corruption, and for space —
//! in a test binary of its own because it replaces the global allocator
//! (the counting-allocator technique of `crates/core/tests/alloc_budget.rs`,
//! here tallying bytes per thread).
//!
//! * random put / re-put / delete / reopen, with the data file cut at
//!   any byte, any bit flipped, or a well-checksummed record with hostile
//!   length fields planted in it: never a panic, never a body under a key
//!   it was not put for, nothing lost without corruption, a deleted key
//!   never back, extents tiling the file after every step, and recovery
//!   allocating no more than a small multiple of the file's length;
//! * a reader racing delete-then-reuse of the extent it is reading;
//! * file length against live bytes under turnover and under a shift of
//!   the size mix.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use swala_cache::segstore::{ALIGN, DATA_FILE};
use swala_cache::store::HeaderMeta;
use swala_cache::{encode_record, CacheKey, Digest, Record, SegmentConfig, SegmentStore, Store};

thread_local! {
    /// Bytes this thread has asked the allocator for. Const-initialised
    /// and without a destructor, so touching it from inside the
    /// allocator cannot allocate.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Tally;

// SAFETY: every request is forwarded unchanged to the system allocator;
// the tally touches only a destructor-free thread-local.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size() as u64));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size as u64));
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tally = Tally;

fn tmp_root(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "swala-segmodel-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Open `root`, holding recovery to its allocation budget: the read
/// window plus index and extent map, whatever the file claims to hold.
fn open(root: &Path) -> SegmentStore {
    let file_len = std::fs::metadata(root.join(DATA_FILE)).map_or(0, |m| m.len());
    let before = REQUESTED.with(Cell::get);
    let store = SegmentStore::open_with(root, SegmentConfig { fsync: false }).expect("open");
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= 8 * file_len + 4096,
        "recovering {file_len} bytes allocated {requested}"
    );
    store
}

/// Extents tile `[0, file_bytes)`: no gap, no overlap, no two free ones
/// adjacent, none free at the tail; the byte counters agree with them.
fn assert_tiles(store: &SegmentStore) {
    let extents = store.extents();
    let metrics = store.metrics();
    let (mut at, mut live, mut free) = (0, 0, 0);
    for (i, &(off, len, is_live)) in extents.iter().enumerate() {
        assert_eq!(off, at, "gap or overlap at extent {i}: {extents:?}");
        assert!(len > 0 && len % ALIGN == 0, "{extents:?}");
        assert!(
            is_live || i == 0 || extents[i - 1].2,
            "adjacent free: {extents:?}"
        );
        *(if is_live { &mut live } else { &mut free }) += len;
        at += len;
    }
    assert!(extents.last().is_none_or(|e| e.2), "free tail: {extents:?}");
    assert_eq!(
        (at, live, free),
        (metrics.file_bytes, metrics.live_bytes, metrics.free_bytes)
    );
    let on_disk = std::fs::metadata(store.root().join(DATA_FILE))
        .expect("data file")
        .len();
    assert!(
        on_disk <= at && on_disk + ALIGN > at,
        "{on_disk} on disk, {at} mapped"
    );
}

fn key_for(id: u8) -> CacheKey {
    CacheKey::new(format!("/cgi-bin/adl?id={id}"))
}

fn body_for(id: u8, fill: u8, size: u16) -> Vec<u8> {
    (0..size as usize)
        .map(|i| (i as u8).wrapping_mul(id | 1).wrapping_add(fill))
        .collect()
}

/// A record whose checksums hold and whose lengths lie.
#[derive(Debug, Clone)]
enum Forged {
    /// A `Put` for key `id` announcing a body that is not there.
    Put {
        id: u8,
        body_len: u64,
    },
    Free {
        len: u64,
    },
}

#[derive(Debug, Clone)]
enum Op {
    Put {
        id: u8,
        fill: u8,
        size: u16,
    },
    Delete {
        id: u8,
    },
    Reopen,
    /// Cut the file at `at` (mod its length), reopen.
    Truncate {
        at: u32,
    },
    /// Flip one bit of the file, reopen.
    Flip {
        at: u32,
        bit: u8,
    },
    /// Plant a forged record at extent-aligned `at` (mod length, the end
    /// of the file included), reopen.
    Forge {
        at: u32,
        what: Forged,
    },
}

fn hostile_len() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(u64::MAX),
        Just(u64::MAX - 20),
        Just(1 << 40),
        Just(0),
        any::<u64>(),
        (1u64..10_000).prop_map(|n| n * ALIGN),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        10 => (0u8..12, any::<u8>(), 0u16..6000)
            .prop_map(|(id, fill, size)| Op::Put { id, fill, size }),
        5 => (0u8..12).prop_map(|id| Op::Delete { id }),
        2 => Just(Op::Reopen),
        1 => any::<u32>().prop_map(|at| Op::Truncate { at }),
        1 => (any::<u32>(), 0u8..8).prop_map(|(at, bit)| Op::Flip { at, bit }),
        1 => (any::<u32>(), 0u8..12, hostile_len())
            .prop_map(|(at, id, body_len)| Op::Forge { at, what: Forged::Put { id, body_len } }),
        1 => (any::<u32>(), hostile_len())
            .prop_map(|(at, len)| Op::Forge { at, what: Forged::Free { len } }),
    ]
}

proptest! {
    #[test]
    fn segment_store_matches_a_hashmap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let root = tmp_root("model");
        let path = root.join(DATA_FILE);
        let mut store = open(&root);
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        // A forged `Free` record that recovery believed stays in the file,
        // inside space that is free, until something is written over it;
        // a later recovery may follow it across records put since. So
        // from the first one on, any step may cost entries — never alter
        // or resurrect one.
        let mut planted_free = false;
        for (step, op) in ops.into_iter().enumerate() {
            let shown = format!("step {step} ({op:?})");
            // Whether the step may have cost entries (it damaged the file).
            let mut damaged = planted_free;
            match op {
                Op::Put { id, fill, size } => {
                    let body = body_for(id, fill, size);
                    store.put(&key_for(id), &body).unwrap();
                    model.insert(id, body);
                }
                Op::Delete { id } => {
                    store.delete(&key_for(id)).unwrap();
                    model.remove(&id);
                }
                Op::Reopen => {
                    drop(store);
                    store = open(&root);
                }
                Op::Truncate { at } => {
                    drop(store);
                    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    let len = file.metadata().unwrap().len();
                    file.set_len(at as u64 % (len + 1)).unwrap();
                    store = open(&root);
                    damaged = true;
                }
                Op::Flip { at, bit } => {
                    drop(store);
                    let mut bytes = std::fs::read(&path).unwrap();
                    if !bytes.is_empty() {
                        let at = at as usize % bytes.len();
                        bytes[at] ^= 1 << bit;
                        std::fs::write(&path, &bytes).unwrap();
                    }
                    store = open(&root);
                    damaged = true;
                }
                Op::Forge { at, what } => {
                    drop(store);
                    let forged = encode_record(&match what {
                        Forged::Free { len } => Record::Free { len },
                        Forged::Put { id, body_len } => Record::Put {
                            seq: u64::MAX - 1,
                            key: key_for(id),
                            digest: Digest::of(b"not the body"),
                            meta: HeaderMeta {
                                content_type: "text/html".into(),
                                exec_micros: 1,
                                expires_unix: None,
                                created_unix: 1,
                            },
                            body_len,
                        },
                    });
                    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    let slots = file.metadata().unwrap().len().div_ceil(ALIGN) + 1;
                    file.write_all_at(&forged, at as u64 % slots * ALIGN).unwrap();
                    store = open(&root);
                    damaged = true;
                    planted_free |= matches!(what, Forged::Free { .. });
                }
            }
            assert_tiles(&store);
            // Every key reads as the model says or, after damage, not at
            // all; nothing the model does not hold reads as anything.
            for id in 0..12u8 {
                match (store.get(&key_for(id)), model.get(&id)) {
                    (Ok(body), Some(expected)) => prop_assert_eq!(&body, expected, "{}: key {}", shown, id),
                    (Ok(_), None) => prop_assert!(false, "{}: key {} is back from the dead", shown, id),
                    (Err(_), Some(_)) => {
                        prop_assert!(damaged, "{}: key {} lost from an undamaged file", shown, id);
                        model.remove(&id);
                    }
                    (Err(e), None) => prop_assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A reader that looked up `k`'s extent just before `k` was deleted and
/// the extent reused for other keys must come back with `k`'s body or an
/// error — whatever it reads, never another key's bytes. (A stress run:
/// the reader's seqlock check is what the race exercises; the record's
/// own key check is pinned deterministically in `segstore.rs`.)
///
/// The writer runs at least 20 000 rounds and then until the reader has
/// seen both a hit and a miss, so a reader the scheduler starves on a
/// loaded host still meets the race; only a 30 s deadline without both
/// fails.
#[test]
fn get_racing_delete_then_reuse_never_sees_another_keys_body() {
    let root = tmp_root("race");
    let store = SegmentStore::open_with(&root, SegmentConfig { fsync: false }).unwrap();
    let k = CacheKey::new("/cgi-bin/adl?id=victim");
    let mine = vec![0xAAu8; 3000];
    let start = std::sync::Barrier::new(2);
    let done = AtomicBool::new(false);
    let raced = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    let (rounds, (hits, misses)) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            start.wait();
            let mut round = 0u32;
            while round < 20_000 || !(raced.load(Ordering::SeqCst) || Instant::now() > deadline) {
                store.put(&k, &mine).unwrap();
                store.delete(&k).unwrap();
                // Same length as `k`, so it lands exactly where `k` was.
                let squatter = CacheKey::new(format!("/cgi-bin/adl?id=sq{:04}", round % 10_000));
                store.put(&squatter, &vec![0x55u8; 3000]).unwrap();
                store.delete(&squatter).unwrap();
                round += 1;
            }
            done.store(true, Ordering::SeqCst);
            round
        });
        let reader = scope.spawn(|| {
            start.wait();
            let (mut hits, mut misses) = (0u64, 0u64);
            while !done.load(Ordering::SeqCst) {
                match store.get(&k) {
                    Ok(body) => {
                        assert!(body == mine, "another key's bytes under {k}");
                        hits += 1;
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}");
                        misses += 1;
                    }
                }
                if hits > 0 && misses > 0 {
                    raced.store(true, Ordering::SeqCst);
                }
            }
            (hits, misses)
        });
        (writer.join().unwrap(), reader.join().unwrap())
    });
    assert!(
        hits > 0 && misses > 0,
        "no race within 30 s: the reader saw {hits} hits and {misses} misses over {rounds} writer rounds"
    );
    assert_tiles(&store);
    let _ = std::fs::remove_dir_all(root);
}

/// Put `size`-byte bodies under fresh keys, evicting first-in-first-out
/// beyond `capacity` entries (put first, then evict, as the manager does).
fn churn(
    store: &SegmentStore,
    fifo: &mut VecDeque<CacheKey>,
    capacity: usize,
    sizes: impl Iterator<Item = usize>,
) {
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    for size in sizes {
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let key = CacheKey::new(format!("/cgi-bin/adl?id=z{n}&ms=2&bytes={size}"));
        store.put(&key, &vec![n as u8; size]).unwrap();
        fifo.push_back(key);
        if fifo.len() > capacity {
            store.delete(&fifo.pop_front().unwrap()).unwrap();
        }
    }
}

#[test]
fn turnover_with_mixed_sizes_keeps_the_file_near_its_live_bytes() {
    let root = tmp_root("turnover");
    let store = SegmentStore::open_with(&root, SegmentConfig { fsync: false }).unwrap();
    let capacity = 500;
    // The benchmark's zipf-mix bodies: 1, 4, 16 and 64 KiB, equally often.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let sizes = std::iter::repeat_with(move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        [1usize, 4, 16, 64][(rng % 4) as usize] * 1024
    });
    let mut fifo = VecDeque::new();
    churn(&store, &mut fifo, capacity, sizes.take(21 * capacity));
    assert_tiles(&store);
    let m = store.metrics();
    assert!(
        m.file_bytes as f64 <= 1.10 * m.live_bytes as f64,
        "after 20 turnovers: {m:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_size_mix_that_shrinks_and_regrows_does_not_ratchet_the_file() {
    let root = tmp_root("regrow");
    let store = SegmentStore::open_with(&root, SegmentConfig { fsync: false }).unwrap();
    let capacity = 300;
    let mut fifo = VecDeque::new();
    let mut phase = |size: usize, turnovers: usize| {
        churn(
            &store,
            &mut fifo,
            capacity,
            std::iter::repeat_n(size, turnovers * capacity),
        );
        assert_tiles(&store);
        store.metrics()
    };
    let first = phase(64 * 1024, 1);
    let small = phase(1024, 3);
    assert!(
        small.file_bytes as f64 <= 1.10 * small.live_bytes as f64,
        "the file follows its contents down: {small:?}"
    );
    let last = phase(64 * 1024, 1);
    assert!(
        last.file_bytes as f64 <= 1.25 * first.file_bytes as f64,
        "{first:?} then {last:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}
