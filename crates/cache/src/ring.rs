//! Directory placement: which nodes hold a key's directory entries.
//!
//! The paper's replicated directory makes every insert/delete an O(N)
//! broadcast — the §5.2 scaling wall. Partitioned mode replaces the
//! broadcast with one point-to-point update to the key's *home node*:
//! the node that the ring assigns the key's slice of hash space to.
//! [`Placement`] states both as one rule — a key's *homes* are every
//! node, or its ring home — and is the only place the mode is read.
//!
//! The ring hashes `vnodes` virtual points per node onto the 64-bit
//! circle; a key belongs to the node owning the first point at or after
//! the key's [`CacheKey::stable_hash`], wrapping around. Virtual nodes
//! smooth the per-node share toward 1/N, and membership changes remap
//! only the departing/arriving node's share (~1/N of keys) instead of
//! reshuffling everything — the classic consistent-hashing property.
//!
//! Point hashes reuse the same FNV-1a function as
//! [`CacheKey::stable_hash`]: stable across runs, platforms and nodes,
//! which is non-negotiable — every node must compute the *same* ring or
//! updates scatter to the wrong homes.

use crate::key::CacheKey;
use crate::node::NodeId;

/// Virtual points per node on the placement ring, in the server and the
/// simulator alike.
///
/// A constant, not a knob: every node must build the same ring, and
/// per-node share spread scales as 1/sqrt(vnodes); 256 points keeps an
/// 8-node ring within ±20% of fair share (64 did not — one node drew
/// 21.8% under fair), while lookups stay a binary search over a couple
/// thousand points.
pub const DEFAULT_VNODES: usize = 256;

/// Which directory organization a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryKind {
    /// The paper's fully replicated directory: every insert/delete is
    /// broadcast to all peers. The faithful default.
    #[default]
    Replicated,
    /// Consistent-hash partitioned directory: each key has one home
    /// node that holds its directory entry; updates are point-to-point.
    Partitioned,
}

impl DirectoryKind {
    /// Both organizations, for running one scenario under each.
    pub const ALL: [DirectoryKind; 2] = [DirectoryKind::Replicated, DirectoryKind::Partitioned];

    pub fn as_str(self) -> &'static str {
        match self {
            DirectoryKind::Replicated => "replicated",
            DirectoryKind::Partitioned => "partitioned",
        }
    }
}

impl std::str::FromStr for DirectoryKind {
    type Err = String;
    fn from_str(s: &str) -> Result<DirectoryKind, String> {
        match s {
            "replicated" => Ok(DirectoryKind::Replicated),
            "partitioned" => Ok(DirectoryKind::Partitioned),
            other => Err(format!(
                "directory must be replicated|partitioned, got {other:?}"
            )),
        }
    }
}

/// FNV-1a over an arbitrary byte string — the same function as
/// [`CacheKey::stable_hash`], kept in sync by the `matches_key_hash`
/// test below.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer applied on top of FNV-1a for ring positions.
///
/// FNV-1a of short, near-identical strings (vnode labels, `?id=N` query
/// keys) disperses poorly in the high bits, and ring placement is a
/// binary search on the full 64-bit value — without this mix, an
/// 8-node/64-vnode ring gave one node 5.7% of the hash space instead
/// of 12.5%. The mix is a fixed bijection, so positions stay stable
/// across runs, platforms and nodes.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points sorted by hash; ties broken by node id so every node
    /// builds the identical ring regardless of insertion order.
    points: Vec<(u64, NodeId)>,
    members: Vec<NodeId>,
    vnodes: usize,
}

impl HashRing {
    /// Ring over nodes `0..num_nodes`, the common cluster layout.
    pub fn new(num_nodes: usize, vnodes: usize) -> HashRing {
        Self::with_members((0..num_nodes).map(|i| NodeId(i as u16)), vnodes)
    }

    /// Ring over an explicit membership (used by the remap tests and by
    /// anyone modelling a node joining or leaving).
    pub fn with_members(members: impl IntoIterator<Item = NodeId>, vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "ring needs at least one node");
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &node in &members {
            for v in 0..vnodes {
                let label = format!("swala-ring/node-{}/vnode-{v}", node.0);
                points.push((mix(fnv1a(label.as_bytes())), node));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            members,
            vnodes,
        }
    }

    /// The home node for `key`: the successor point of the key's stable
    /// hash on the ring.
    pub fn home(&self, key: &CacheKey) -> NodeId {
        *self.successor(key)
    }

    /// The member owning the successor point of `key`, borrowed from the
    /// ring so [`Placement::homes`] can hand it out as a slice. The same
    /// finalizer mix is applied to the key's hash as to ring points.
    fn successor(&self, key: &CacheKey) -> &NodeId {
        let h = mix(key.stable_hash());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        // Wrap: a hash past the last point belongs to the first.
        &self.points[idx % self.points.len()].1
    }

    /// Ring membership, sorted.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Virtual points per node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// A new ring with `node` added (no-op clone if already present).
    pub fn with_node_added(&self, node: NodeId) -> HashRing {
        let members = self.members.iter().copied().chain([node]);
        Self::with_members(members, self.vnodes)
    }

    /// A new ring with `node` removed.
    ///
    /// Panics if that would empty the ring — a cluster with zero nodes
    /// has no homes to assign.
    pub fn with_node_removed(&self, node: NodeId) -> HashRing {
        let members = self.members.iter().copied().filter(|&m| m != node);
        Self::with_members(members, self.vnodes)
    }

    /// Exact fraction of the 64-bit hash space each member owns, in
    /// membership order (the `swala_cache_ring_share_ppm` series).
    pub fn shares(&self) -> Vec<(NodeId, f64)> {
        let mut owned: Vec<u128> = vec![0; self.members.len()];
        let idx_of = |node: NodeId| self.members.binary_search(&node).expect("member");
        for (i, &(h, node)) in self.points.iter().enumerate() {
            // Point i owns the arc (previous point, this point], with
            // the first point also owning the wrap-around arc.
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            let arc = if self.points.len() == 1 {
                1u128 << 64
            } else {
                (h.wrapping_sub(prev)) as u128
            };
            owned[idx_of(node)] += arc;
        }
        let total = (1u128 << 64) as f64;
        self.members
            .iter()
            .zip(owned)
            .map(|(&n, o)| (n, o as f64 / total))
            .collect()
    }
}

/// The one placement rule: which nodes' directories hold every owner's
/// entry for a key — the key's *homes*.
///
/// Replicated, every node is every key's home: each insert and delete
/// goes to all peers and each node's own miss is authoritative.
/// Partitioned, a key has one home, its [`HashRing`] successor: notices
/// go there and nowhere else, and a node that is not the home must ask
/// it. Everything that routes a notice, decides whether a miss is
/// authoritative, or checks that the directories have converged asks
/// this, and nothing else looks at the [`DirectoryKind`].
#[derive(Debug, Clone)]
pub struct Placement {
    /// Every member, sorted: a replicated key's homes.
    members: Vec<NodeId>,
    /// The key-space ring; `Some` only when partitioned.
    ring: Option<HashRing>,
}

impl Placement {
    /// The placement of a cluster of nodes `0..num_nodes` running `kind`
    /// (a partitioned ring has [`DEFAULT_VNODES`] points per node).
    pub fn new(kind: DirectoryKind, num_nodes: usize) -> Placement {
        Placement {
            members: (0..num_nodes).map(|i| NodeId(i as u16)).collect(),
            ring: (kind == DirectoryKind::Partitioned)
                .then(|| HashRing::new(num_nodes, DEFAULT_VNODES)),
        }
    }

    /// The nodes whose directories hold every owner's entry for `key`,
    /// sorted. A node's own miss on `key` is authoritative exactly when
    /// it is one of them.
    pub fn homes(&self, key: &CacheKey) -> &[NodeId] {
        match &self.ring {
            None => &self.members,
            Some(ring) => std::slice::from_ref(ring.successor(key)),
        }
    }

    /// The directory organization this placement was built from (the
    /// `swala_cache_directory_info` series).
    pub fn kind(&self) -> DirectoryKind {
        match self.ring {
            None => DirectoryKind::Replicated,
            Some(_) => DirectoryKind::Partitioned,
        }
    }

    /// The ring behind partitioned placement (the ring share and
    /// `ring_vnodes` gauges).
    pub fn ring(&self) -> Option<&HashRing> {
        self.ring.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn directory_kind_parses_and_prints() {
        assert_eq!(
            "replicated".parse::<DirectoryKind>().unwrap(),
            DirectoryKind::Replicated
        );
        assert_eq!(
            "partitioned".parse::<DirectoryKind>().unwrap(),
            DirectoryKind::Partitioned
        );
        assert_eq!(DirectoryKind::Replicated.as_str(), "replicated");
        assert_eq!(DirectoryKind::Partitioned.as_str(), "partitioned");
        assert_eq!(DirectoryKind::default(), DirectoryKind::Replicated);
        assert!("gossip"
            .parse::<DirectoryKind>()
            .unwrap_err()
            .contains("replicated|partitioned"));
    }

    #[test]
    fn matches_key_hash() {
        // The ring's point hash MUST stay the same function as the
        // key hash; if these diverge the ring still works, but this
        // pin catches accidental drift to a randomly-seeded hasher.
        let k = CacheKey::new("a");
        assert_eq!(fnv1a(b"a"), k.stable_hash());
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn deterministic_across_builds() {
        let a = HashRing::new(4, 32);
        let b = HashRing::with_members([NodeId(3), NodeId(0), NodeId(2), NodeId(1)], 32);
        let key = CacheKey::new("/cgi-bin/adl?id=17");
        assert_eq!(a.home(&key), b.home(&key));
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(1, 8);
        for i in 0..100 {
            assert_eq!(
                ring.home(&CacheKey::new(format!("/cgi-bin/x?id={i}"))),
                NodeId(0)
            );
        }
        let shares = ring.shares();
        assert_eq!(shares.len(), 1);
        assert!((shares[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_members_are_deduped() {
        let ring = HashRing::with_members([NodeId(0), NodeId(0), NodeId(1)], 16);
        assert_eq!(ring.members(), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn shares_sum_to_one() {
        let ring = HashRing::new(8, DEFAULT_VNODES);
        let total: f64 = ring.shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn hash_space_shares_are_roughly_fair() {
        // Analytic key-space share per node (not sampled): with 64
        // vnodes each of 8 nodes should own 12.5% ± 20% relative.
        let ring = HashRing::new(8, DEFAULT_VNODES);
        let fair = 1.0 / 8.0;
        for (node, share) in ring.shares() {
            assert!(
                (share - fair).abs() <= fair * 0.20,
                "node {node:?} owns {:.2}% of hash space (fair {:.2}%)",
                share * 100.0,
                fair * 100.0
            );
        }
    }

    proptest! {
        // Satellite: sampled key distribution within ±20% of fair share
        // across 8 nodes.
        #[test]
        fn distributes_keys_fairly(seed in 0u64..1_000_000) {
            let ring = HashRing::new(8, DEFAULT_VNODES);
            let mut counts: HashMap<NodeId, usize> = HashMap::new();
            let n_keys = 4000usize;
            for i in 0..n_keys {
                let key = CacheKey::new(format!("/cgi-bin/adl?run={seed}&id={i}"));
                *counts.entry(ring.home(&key)).or_default() += 1;
            }
            let fair = n_keys as f64 / 8.0;
            for node in ring.members() {
                let got = *counts.get(node).unwrap_or(&0) as f64;
                prop_assert!(
                    (got - fair).abs() <= fair * 0.20,
                    "node {:?} got {} keys, fair {}", node, got, fair
                );
            }
        }

        // Satellite: adding a node remaps only ~1/N of keys, and every
        // remapped key moves TO the new node (never between survivors).
        #[test]
        fn adding_a_node_remaps_about_one_nth(seed in 0u64..1_000_000) {
            let before = HashRing::new(8, DEFAULT_VNODES);
            let after = before.with_node_added(NodeId(8));
            let n_keys = 4000usize;
            let mut moved = 0usize;
            for i in 0..n_keys {
                let key = CacheKey::new(format!("/cgi-bin/adl?run={seed}&id={i}"));
                let (h0, h1) = (before.home(&key), after.home(&key));
                if h0 != h1 {
                    prop_assert_eq!(h1, NodeId(8), "remaps only go to the new node");
                    moved += 1;
                }
            }
            // Expect ~1/9 of keys to move; allow 2x slack on the upper
            // bound and require the movement actually happened.
            let expected = n_keys as f64 / 9.0;
            prop_assert!(moved > 0, "a new node must take some keys");
            prop_assert!(
                (moved as f64) <= expected * 2.0,
                "moved {} of {} keys (expected ~{})", moved, n_keys, expected
            );
        }

        // And removal: only the departed node's keys move.
        #[test]
        fn removing_a_node_remaps_only_its_keys(seed in 0u64..1_000_000) {
            let before = HashRing::new(8, DEFAULT_VNODES);
            let after = before.with_node_removed(NodeId(3));
            let n_keys = 4000usize;
            let mut moved = 0usize;
            for i in 0..n_keys {
                let key = CacheKey::new(format!("/cgi-bin/adl?run={seed}&id={i}"));
                let (h0, h1) = (before.home(&key), after.home(&key));
                if h0 != h1 {
                    prop_assert_eq!(h0, NodeId(3), "only orphaned keys remap");
                    moved += 1;
                }
            }
            let expected = n_keys as f64 / 8.0;
            prop_assert!(moved > 0);
            prop_assert!((moved as f64) <= expected * 2.0);
        }
    }
}
