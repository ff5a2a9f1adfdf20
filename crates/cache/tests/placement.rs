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
use swala_cache::{
    CacheDirectory, CacheKey, Classification, DirectoryKind, EntryMeta, HashRing, NodeId,
    Placement, RemoteUpdate, DEFAULT_VNODES,
};

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
    fn replicated_homes_are_every_member(nodes in 1usize..=16, vnodes in 1usize..64, key in key()) {
        let placement = Placement::new(DirectoryKind::Replicated, nodes, vnodes);
        let every: Vec<NodeId> = (0..nodes as u16).map(NodeId).collect();
        prop_assert_eq!(placement.homes(&key), &every[..]);
    }

    #[test]
    fn partitioned_home_is_the_ring_successor(
        nodes in 1usize..=16,
        vnodes in 1usize..64,
        key in key(),
    ) {
        let placement = Placement::new(DirectoryKind::Partitioned, nodes, vnodes);
        let ring = HashRing::new(nodes, vnodes);
        prop_assert_eq!(placement.homes(&key), &[ring.home(&key)]);
    }

    #[test]
    fn a_miss_is_authoritative_exactly_at_a_home(
        kind in kind(),
        nodes in 1usize..=8,
        owner_bits in any::<u8>(),
        key in key(),
    ) {
        let placement = Placement::new(kind, nodes, DEFAULT_VNODES);
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
