//! `CacheManager::apply_remote_batch` against the per-notice calls it
//! batches.
//!
//! Any mix of remote inserts and deletes — duplicate keys, deletes of
//! absent keys, deletes naming this node, keys this node is executing
//! right now — cut into batches anywhere must leave the same directory
//! tables, the same memory tier, the same stored bodies and the same
//! `updates_applied` / `false_misses` counts as an `apply_remote_insert`
//! / `apply_remote_delete` per update. So must a whole frame off one
//! peer's link — 256 or 1 024 updates, nearly all naming that peer — which
//! the directory applies in several bounded runs per table lock.
//!
//! Default config on purpose: CI raises `PROPTEST_CASES` and pins
//! `PROPTEST_RNG_SEED` for this file.

use proptest::prelude::*;
use std::time::Duration;
use swala_cache::{
    CacheKey, CacheManager, CacheManagerConfig, CacheRules, Clock, EntryMeta, LookupResult,
    ManualClock, MemStore, NodeId, RemoteUpdate,
};

const NODES: usize = 3;
const LOCAL: NodeId = NodeId(0);

fn key_for(id: u8) -> CacheKey {
    CacheKey::new(format!("/cgi-bin/adl?id={id}"))
}

/// `(update, cut)`: the update, and whether a batch ends after it.
fn update_strategy() -> impl Strategy<Value = (RemoteUpdate, bool)> {
    let update = prop_oneof![
        // Inserts come from peers only (a node applies its own directly).
        3 => (1u16..NODES as u16, 0u8..16, 1u64..4096, any::<u64>()).prop_map(
            |(owner, id, size, seq)| RemoteUpdate::Insert(EntryMeta::new(
                key_for(id),
                NodeId(owner),
                size,
                "text/html",
                1_000,
                None,
                seq,
            ))
        ),
        // Deletes may name any node, this one included (false-hit repair).
        2 => (0u16..NODES as u16, 0u8..16).prop_map(|(owner, id)| RemoteUpdate::Delete {
            owner: NodeId(owner),
            key: key_for(id),
        }),
    ];
    (update, any::<bool>())
}

/// A manager holding local entries for ids `0..cached` and executing
/// (flight registered, not completed) ids `8..8 + executing`, stamped
/// by `clock`.
fn manager(cached: u8, executing: u8, clock: Clock) -> CacheManager {
    let m = CacheManager::new(
        CacheManagerConfig {
            num_nodes: NODES,
            local: LOCAL,
            rules: CacheRules::allow_all(),
            mem_cache_bytes: 1 << 20,
            clock,
            ..Default::default()
        },
        Box::new(MemStore::new()),
    );
    for id in (0..cached).chain(8..8 + executing) {
        let key = key_for(id);
        let LookupResult::Miss { decision, .. } = m.lookup(&key, key.as_str()) else {
            panic!("fresh key must miss");
        };
        if id < cached {
            m.complete_execution(
                &key,
                &[id; 64],
                "text/html",
                Duration::from_millis(5),
                &decision,
            )
            .expect("insert");
        }
    }
    m
}

/// Everything the two managers must agree on.
fn observable(m: &CacheManager) -> (Vec<Vec<EntryMeta>>, usize, usize, u64, u64) {
    let tables = (0..NODES as u16)
        .map(|n| {
            let mut t = m.directory().snapshot(NodeId(n));
            t.sort_by(|a, b| a.key.as_str().cmp(b.key.as_str()));
            t
        })
        .collect();
    let stats = m.stats().snapshot();
    (
        tables,
        m.bodies().mem_bytes(),
        m.bodies().stored(),
        stats.updates_applied,
        stats.false_misses,
    )
}

/// A frame as one peer's loaded link carries it: `len` updates, all but
/// about one in sixteen naming `peer`, so same-owner runs exceed what one
/// table-lock acquisition may apply.
fn frame_strategy(len: usize) -> impl Strategy<Value = Vec<RemoteUpdate>> {
    let update = (update_strategy(), 0u8..16);
    (1u16..NODES as u16, proptest::collection::vec(update, len)).prop_map(|(peer, updates)| {
        updates
            .into_iter()
            .map(|((update, _), stray)| match update {
                _ if stray == 0 => update,
                RemoteUpdate::Insert(mut meta) => {
                    meta.owner = NodeId(peer);
                    RemoteUpdate::Insert(meta)
                }
                RemoteUpdate::Delete { key, .. } => RemoteUpdate::Delete {
                    owner: NodeId(peer),
                    key,
                },
            })
            .collect()
    })
}

/// Apply `batches` through `apply_remote_batch` to one manager and their
/// updates one call each to another; the two must be indistinguishable.
fn check_equivalence(cached: u8, executing: u8, batches: Vec<Vec<RemoteUpdate>>) {
    // One clock standing still: the two managers' own entries carry the
    // same creation time even when the host clock ticks a second between
    // building them.
    let time = ManualClock::new();
    let batched = manager(cached, executing, time.clock());
    let sequential = manager(cached, executing, time.clock());
    for batch in batches {
        for update in batch.iter().cloned() {
            match update {
                RemoteUpdate::Insert(meta) => sequential.apply_remote_insert(meta),
                RemoteUpdate::Delete { owner, key } => sequential.apply_remote_delete(owner, &key),
            }
        }
        batched.apply_remote_batch(batch);
    }
    assert_eq!(observable(&batched), observable(&sequential));
}

proptest! {
    #[test]
    fn batch_equals_sequential(
        cached in 0u8..8,
        executing in 0u8..8,
        updates in proptest::collection::vec(update_strategy(), 0..64),
    ) {
        let mut batches = vec![Vec::new()];
        for (update, cut) in updates {
            batches.last_mut().expect("never empty").push(update);
            if cut {
                batches.push(Vec::new());
            }
        }
        check_equivalence(cached, executing, batches);
    }

    #[test]
    fn whole_frame_equals_sequential(
        cached in 0u8..8,
        executing in 0u8..8,
        frame in prop_oneof![frame_strategy(256), frame_strategy(1024)],
    ) {
        check_equivalence(cached, executing, vec![frame]);
    }
}
