//! `CacheManager::apply_remote_batch` against the per-notice calls it
//! batches.
//!
//! Any mix of remote inserts and deletes — duplicate keys, deletes of
//! absent keys, deletes naming this node, keys this node is executing
//! right now — cut into batches anywhere must leave the same directory
//! tables, the same memory tier and the same `updates_applied` /
//! `false_misses` counts as an `apply_remote_insert` /
//! `apply_remote_delete` per update.
//!
//! Default config on purpose: CI raises `PROPTEST_CASES` and pins
//! `PROPTEST_RNG_SEED` for this file.

use proptest::prelude::*;
use std::time::Duration;
use swala_cache::{
    CacheKey, CacheManager, CacheManagerConfig, CacheRules, EntryMeta, LookupResult, MemStore,
    NodeId, RemoteUpdate,
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
/// (flight registered, not completed) ids `8..8 + executing`.
fn manager(cached: u8, executing: u8) -> CacheManager {
    let m = CacheManager::new(
        CacheManagerConfig {
            num_nodes: NODES,
            local: LOCAL,
            rules: CacheRules::allow_all(),
            mem_cache_bytes: 1 << 20,
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
fn observable(m: &CacheManager) -> (Vec<Vec<EntryMeta>>, usize, u64, u64) {
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
        m.mem_bytes(),
        stats.updates_applied,
        stats.false_misses,
    )
}

proptest! {
    #[test]
    fn batch_equals_sequential(
        cached in 0u8..8,
        executing in 0u8..8,
        updates in proptest::collection::vec(update_strategy(), 0..64),
    ) {
        let batched = manager(cached, executing);
        let sequential = manager(cached, executing);

        let mut batch = Vec::new();
        for (update, cut) in &updates {
            batch.push(update.clone());
            if *cut {
                batched.apply_remote_batch(std::mem::take(&mut batch));
            }
        }
        batched.apply_remote_batch(batch);

        for (update, _) in updates {
            match update {
                RemoteUpdate::Insert(meta) => sequential.apply_remote_insert(meta),
                RemoteUpdate::Delete { owner, key } => sequential.apply_remote_delete(owner, &key),
            }
        }

        prop_assert_eq!(observable(&batched), observable(&sequential));
    }
}
