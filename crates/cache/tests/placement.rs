//! The one placement rule, `Placement::homes`, against what it encodes.
//!
//! * Replicated: every member is every key's home.
//! * Partitioned: a key's one home is its `HashRing` successor.
//! * Either way, a node's own id is among a key's homes exactly when its
//!   own miss on that key is authoritative. With every owner announcing
//!   the key to its homes but itself (the daemon's announce path), a
//!   home's directory misses only when no node caches the key, and any
//!   other node's directory misses whenever it is not an owner itself.
//!
//! Default config on purpose: CI raises `PROPTEST_CASES` and pins
//! `PROPTEST_RNG_SEED` for this file.

use proptest::prelude::*;
use std::sync::OnceLock;
use swala_cache::{
    CacheDirectory, CacheKey, Classification, DirectoryKind, EntryMeta, HashRing, NodeId,
    Placement, RemoteUpdate, DEFAULT_VNODES,
};

/// Both placements and the reference ring for one cluster size.
struct Built {
    replicated: Placement,
    partitioned: Placement,
    ring: HashRing,
}

/// Everything the properties compare, for clusters of 1 to 16 nodes,
/// built once: a placement depends only on its kind and node count, and
/// two 256-point rings per case would dominate the run.
fn built(nodes: usize) -> &'static Built {
    static BUILT: OnceLock<Vec<Built>> = OnceLock::new();
    let all = BUILT.get_or_init(|| {
        (1..=16)
            .map(|n| Built {
                replicated: Placement::new(DirectoryKind::Replicated, n),
                partitioned: Placement::new(DirectoryKind::Partitioned, n),
                ring: HashRing::new(n, DEFAULT_VNODES),
            })
            .collect()
    });
    &all[nodes - 1]
}

fn placement(kind: DirectoryKind, nodes: usize) -> &'static Placement {
    match kind {
        DirectoryKind::Replicated => &built(nodes).replicated,
        DirectoryKind::Partitioned => &built(nodes).partitioned,
    }
}

fn kind() -> impl Strategy<Value = DirectoryKind> {
    prop_oneof![
        Just(DirectoryKind::Replicated),
        Just(DirectoryKind::Partitioned)
    ]
}

fn key() -> impl Strategy<Value = CacheKey> {
    ("[a-z]{1,8}", any::<u64>())
        .prop_map(|(program, id)| CacheKey::new(format!("/cgi-bin/{program}?id={id}")))
}

proptest! {
    #[test]
    fn replicated_homes_are_every_member(nodes in 1usize..=16, key in key()) {
        let placement = placement(DirectoryKind::Replicated, nodes);
        let every: Vec<NodeId> = (0..nodes as u16).map(NodeId).collect();
        prop_assert_eq!(placement.homes(&key), &every[..]);
    }

    #[test]
    fn partitioned_home_is_the_ring_successor(nodes in 1usize..=16, key in key()) {
        let placement = placement(DirectoryKind::Partitioned, nodes);
        prop_assert_eq!(placement.homes(&key), &[built(nodes).ring.home(&key)]);
    }

    #[test]
    fn a_miss_is_authoritative_exactly_at_a_home(
        kind in kind(),
        nodes in 1usize..=8,
        owner_bits in any::<u8>(),
        key in key(),
    ) {
        let placement = placement(kind, nodes);
        let homes = placement.homes(&key);
        let dirs: Vec<CacheDirectory> = (0..nodes)
            .map(|i| CacheDirectory::new(nodes, NodeId(i as u16)))
            .collect();
        let owners: Vec<NodeId> = (0..nodes as u16)
            .filter(|i| owner_bits & (1 << i) != 0)
            .map(NodeId)
            .collect();
        for &owner in &owners {
            let meta = EntryMeta::new(key.clone(), owner, 1, "text/html", 1_000, None, 1);
            let meta = dirs[owner.index()].insert_fresh(meta);
            for &home in homes.iter().filter(|&&n| n != owner) {
                dirs[home.index()].apply_updates(vec![RemoteUpdate::Insert(meta.clone())]);
            }
        }
        for (i, dir) in dirs.iter().enumerate() {
            let node = NodeId(i as u16);
            let missed = matches!(dir.classify(&key), Classification::NotCached);
            if homes.contains(&node) {
                prop_assert_eq!(missed, owners.is_empty(), "{:?} home {:?}", kind, node);
            } else {
                prop_assert_eq!(missed, !owners.contains(&node), "{:?} non-home {:?}", kind, node);
            }
        }
    }
}
