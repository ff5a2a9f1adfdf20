//! `Message::decode` against hostile counts — in a test binary of its own
//! because it replaces the global allocator (the counting-allocator
//! technique of `crates/cache/tests/segstore_model.rs`, tallying bytes
//! per thread).
//!
//! Every tag, with each count the decoder reads — `SyncReply`'s entries,
//! `Batch`'s parts, `StatsSnapshot`'s metrics and hot keys — set to a
//! hostile value and followed by a short or arbitrary tail, alone or as
//! the first part of a `Batch` that lies about its own count: never a
//! panic, and never more bytes asked of the allocator than 8 × the
//! input's length + 4096.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_obs::{HeatEntry, Histogram, MetricSnapshot, MetricValue};
use swala_proto::{Message, NodeStats};

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

const TAG_SYNC_REPLY: u8 = 0x08;
const TAG_BATCH: u8 = 0x0c;
const TAG_STATS_SNAPSHOT: u8 = 0x11;
/// One past the highest tag the protocol defines.
const TAG_END: u8 = 0x13;

/// Decode `input`, holding the decoder to its allocation budget.
fn decode_within_budget(input: &[u8]) -> Result<(), String> {
    let before = REQUESTED.with(Cell::get);
    let decoded = Message::decode(input);
    let requested = REQUESTED.with(Cell::get) - before;
    drop(decoded);
    let budget = 8 * input.len() as u64 + 4096;
    if requested > budget {
        return Err(format!(
            "decoding {} bytes asked for {requested} (budget {budget}): {input:02x?}",
            input.len()
        ));
    }
    Ok(())
}

/// A message whose count field sits after `head` (the sender's node id
/// for `SyncReply` and `StatsSnapshot`, nothing for `Batch`).
fn counted(tag: u8, head: &[u8], count: u32, tail: &[u8]) -> Vec<u8> {
    let mut m = vec![tag];
    m.extend_from_slice(head);
    m.extend_from_slice(&count.to_be_bytes());
    m.extend_from_slice(tail);
    m
}

/// A `StatsSnapshot` with no metrics whose hot-key count is `count`.
fn hot_counted(count: u32, tail: &[u8]) -> Vec<u8> {
    counted(TAG_STATS_SNAPSHOT, &[0, 1, 0, 0, 0, 0], count, tail)
}

/// `inner` as the first part of a `Batch` that declares `count` parts.
fn in_batch(count: u32, inner: &[u8]) -> Vec<u8> {
    let mut tail = (inner.len() as u32).to_be_bytes().to_vec();
    tail.extend_from_slice(inner);
    counted(TAG_BATCH, &[], count, &tail)
}

fn meta() -> EntryMeta {
    EntryMeta::new(
        CacheKey::new("/cgi-bin/adl?id=7&ms=5"),
        NodeId(1),
        512,
        "text/html",
        5_000,
        None,
        3,
    )
}

/// Item bytes the decoder accepts — each encoding minus its tag, node id
/// and count — so a tail can begin with real entries, parts, metrics or
/// hot keys before it is cut short.
fn item_bytes() -> Vec<Vec<u8>> {
    let hist = Histogram::new();
    hist.record(250);
    let stats = NodeStats {
        node: NodeId(1),
        metrics: vec![
            MetricSnapshot {
                name: "swala_x".into(),
                help: "x".into(),
                label: None,
                value: MetricValue::Counter(1),
            },
            MetricSnapshot {
                name: "swala_y".into(),
                help: "y".into(),
                label: Some(("op".into(), "get".into())),
                value: MetricValue::Histogram(hist.snapshot()),
            },
        ],
        hotkeys: vec![HeatEntry {
            key: "/cgi-bin/adl?id=7".into(),
            count: 9,
            error: 1,
            cost_us: 40,
        }],
    };
    vec![
        Message::SyncReply {
            node: NodeId(1),
            entries: vec![meta(), meta()],
        }
        .encode()[7..]
            .to_vec(),
        Message::Batch(vec![
            Message::NodeDown { node: NodeId(1) },
            Message::InsertNotice { meta: meta() },
        ])
        .encode()[5..]
            .to_vec(),
        Message::StatsSnapshot(stats).encode()[7..].to_vec(),
    ]
}

fn hostile_count() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(u32::MAX),
        Just(1 << 31),
        Just(1 << 24),
        Just(1 << 16),
        any::<u32>(),
    ]
}

/// Short, arbitrary, or real items cut anywhere.
fn tail() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..16),
        proptest::collection::vec(any::<u8>(), 0..2048),
        (0..3usize, any::<usize>()).prop_map(|(i, cut)| {
            let items = item_bytes()[i].clone();
            items[..cut % (items.len() + 1)].to_vec()
        }),
    ]
}

fn tag() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(TAG_SYNC_REPLY),
        Just(TAG_BATCH),
        Just(TAG_STATS_SNAPSHOT),
        0..TAG_END,
        any::<u8>(),
    ]
}

/// Every tag, a hostile count where each counted message keeps one, an
/// empty or all-ones tail: the cases a sweep of the tag byte finds first.
#[test]
fn every_tag_with_a_hostile_count_stays_within_budget() {
    let ones = [0xff; 64];
    for tag in 0..=u8::MAX {
        for head in [&[][..], &[0], &[0, 1]] {
            for count in [u32::MAX, 1 << 24] {
                for tail in [&[][..], &ones] {
                    let m = counted(tag, head, count, tail);
                    decode_within_budget(&m).unwrap();
                    decode_within_budget(&in_batch(count, &m)).unwrap();
                }
            }
        }
    }
    for count in [u32::MAX, 1 << 24] {
        decode_within_budget(&hot_counted(count, &[])).unwrap();
    }
}

proptest! {
    #[test]
    fn hostile_counts_stay_within_budget(
        tag in tag(),
        head_len in 0..=2usize,
        count in hostile_count(),
        outer in hostile_count(),
        tail in tail(),
    ) {
        let m = counted(tag, &[0, 1][..head_len], count, &tail);
        for input in [in_batch(outer, &m), m, hot_counted(count, &tail)] {
            decode_within_budget(&input).map_err(TestCaseError::fail)?;
        }
    }
}
