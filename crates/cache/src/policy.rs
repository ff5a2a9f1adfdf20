//! Replacement policies.
//!
//! §3 of the paper: "More advanced replacement methods can alleviate some
//! of the problem, by keeping the most important requests (in terms of
//! execution time, access frequency, time of access, size etc.) in the
//! cache. For a discussion of the five replacement methods implemented in
//! Swala, we refer the reader to \[10\]." The companion technical report's
//! five dimensions map to the five policies implemented here:
//!
//! | Policy | Evicts first | Intuition |
//! |--------|--------------|-----------|
//! | `Lru`  | least recently used | time of access |
//! | `Lfu`  | least frequently used | access frequency |
//! | `Size` | largest body | size (keep many small results) |
//! | `Cost` | cheapest to recompute | execution time |
//! | `GreedyDualSize` | lowest inflated cost/size credit | all of the above, à la Cao & Irani \[5\] |
//!
//! Policies are deliberately *stateful values* (GreedyDual-Size carries
//! its inflation value `L`) operated under the same lock as the table they
//! manage, so decisions are deterministic and reproducible in the
//! simulator.
//!
//! # The monotonicity contract
//!
//! Victims are found through [`VictimIndex`], a lazily repaired min-heap,
//! not by scanning the table. That is exact only because every policy
//! here obeys one rule, which a sixth policy must obey too:
//!
//! > Between its insertion and its removal, an entry's rank
//! > `(retention_score, last_access_seq, key)` never decreases.
//!
//! It holds for all five: `Lru`'s score *is* `last_access_seq`, which
//! [`EntryMeta::record_hit`] only moves forward; `Lfu`'s `hits` only
//! counts up; `Size` and `Cost` score on fields fixed at insertion, with
//! the forward-only `last_access_seq` as tie-break; GreedyDual-Size
//! re-credits a hit entry to `L + value`, and `L` only rises, so the new
//! credit is never below the old one. [`Policy::choose_victim`] — the
//! O(n) scan the index replaced — stays as the oracle the equivalence
//! tests compare against.

use crate::entry::EntryMeta;
use crate::key::CacheKey;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::str::FromStr;

/// Which replacement algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Lru,
    Lfu,
    Size,
    Cost,
    GreedyDualSize,
}

impl PolicyKind {
    /// All five, for sweeps and ablation benches.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Size,
        PolicyKind::Cost,
        PolicyKind::GreedyDualSize,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Size => "size",
            PolicyKind::Cost => "cost",
            PolicyKind::GreedyDualSize => "gds",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "lfu" => Ok(PolicyKind::Lfu),
            "size" => Ok(PolicyKind::Size),
            "cost" => Ok(PolicyKind::Cost),
            "gds" | "greedydual" | "greedydualsize" => Ok(PolicyKind::GreedyDualSize),
            other => Err(format!("unknown replacement policy: {other:?}")),
        }
    }
}

/// A replacement policy instance (kind + any running state).
#[derive(Debug, Clone)]
pub struct Policy {
    kind: PolicyKind,
    /// GreedyDual-Size inflation value: the credit of the last victim.
    gds_l: f64,
}

impl Policy {
    pub fn new(kind: PolicyKind) -> Self {
        Policy { kind, gds_l: 0.0 }
    }

    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Current GreedyDual-Size inflation value (for inspection/tests).
    pub fn gds_inflation(&self) -> f64 {
        self.gds_l
    }

    /// Hook: entry is being inserted.
    pub fn on_insert(&mut self, entry: &mut EntryMeta) {
        if self.kind == PolicyKind::GreedyDualSize {
            entry.gds_credit = self.gds_l + gds_value(entry);
        }
    }

    /// Hook: entry was hit.
    pub fn on_hit(&mut self, entry: &mut EntryMeta) {
        if self.kind == PolicyKind::GreedyDualSize {
            entry.gds_credit = self.gds_l + gds_value(entry);
        }
    }

    /// Hook: `victim` was evicted by this policy's choice.
    pub fn on_evict(&mut self, victim: &EntryMeta) {
        if self.kind == PolicyKind::GreedyDualSize {
            // Classic GreedyDual aging: raise the floor to the victim's
            // credit so long-resident entries decay relative to new ones.
            self.gds_l = self.gds_l.max(victim.gds_credit);
        }
    }

    /// Choose an eviction victim among `entries` by scanning all of them.
    ///
    /// Returns the key with the minimum retention score; ties break
    /// toward the least recently used, then lexicographically smallest
    /// key so the choice is fully deterministic. O(n): production evicts
    /// through [`VictimIndex`], which picks the same entry; this scan is
    /// the reference the tests and the `scan_oracle` bench rows hold it to.
    pub fn choose_victim<'a>(
        &self,
        entries: impl Iterator<Item = &'a EntryMeta>,
    ) -> Option<CacheKey> {
        entries
            .map(|e| (self.retention_score(e), e.last_access_seq, &e.key))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(b.2)))
            .map(|(_, _, k)| k.clone())
    }

    /// The score this policy retains entries by (higher = keep longer).
    pub fn retention_score(&self, e: &EntryMeta) -> f64 {
        match self.kind {
            PolicyKind::Lru => e.last_access_seq as f64,
            PolicyKind::Lfu => e.hits as f64,
            PolicyKind::Size => -(e.size as f64),
            PolicyKind::Cost => e.exec_micros as f64,
            PolicyKind::GreedyDualSize => e.gds_credit,
        }
    }
}

/// GreedyDual-Size base value: recomputation cost per byte cached.
fn gds_value(e: &EntryMeta) -> f64 {
    e.exec_micros as f64 / (e.size.max(1)) as f64
}

/// One entry's rank as it stood when the snapshot was pushed. Ordered by
/// exactly [`Policy::choose_victim`]'s comparator; `insert_seq` only
/// tells a re-inserted key's snapshot from its predecessor's.
#[derive(Debug, Clone)]
struct Candidate {
    score: f64,
    last_access_seq: u64,
    key: CacheKey,
    insert_seq: u64,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.last_access_seq.cmp(&other.last_access_seq))
            .then_with(|| self.key.cmp(&other.key))
            .then(self.insert_seq.cmp(&other.insert_seq))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// A [`Policy`] plus an ordered index of eviction candidates over one
/// table, so picking a victim costs O(log n) instead of a scan.
///
/// The index is a min-heap of rank snapshots, one pushed per insertion.
/// **Hits do no index work**: they let the entry's snapshot go stale, and
/// [`evict_one`](Self::evict_one) repairs on the way out — a popped
/// snapshot whose entry is gone or re-inserted is discarded, one whose
/// entry has since moved up is re-pushed at its current rank, and the
/// first snapshot that still matches its entry is the victim. That is
/// the scan's choice exactly: by the module's monotonicity contract every
/// live entry's rank is at or above its snapshot, so no live entry ranks
/// below the heap's minimum, and a minimum that equals its entry's rank
/// is the table's minimum.
///
/// The caller owns the table and must route every change to it through
/// here: [`on_insert`](Self::on_insert) / [`track`](Self::track) *before*
/// an entry joins, [`on_hit`](Self::on_hit) for hits. Removals need no
/// call. The live directory and `swala-sim` share this type, so they
/// evict identically by construction.
#[derive(Debug, Clone)]
pub struct VictimIndex {
    policy: Policy,
    heap: BinaryHeap<Reverse<Candidate>>,
    /// Snapshots popped by `evict_one` so far — the index's work counter.
    examined: u64,
}

impl VictimIndex {
    pub fn new(kind: PolicyKind) -> Self {
        VictimIndex {
            policy: Policy::new(kind),
            heap: BinaryHeap::new(),
            examined: 0,
        }
    }

    /// Snapshots currently held, stale ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshots popped by [`evict_one`](Self::evict_one) since creation.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Most snapshots the index keeps for a table of `live` entries
    /// before it rebuilds itself from the table.
    pub fn bound(live: usize) -> usize {
        2 * live + 64
    }

    /// `entry` is a fresh insertion about to join `table`: apply the
    /// policy's insert hook, then index it.
    pub fn on_insert(&mut self, entry: &mut EntryMeta, table: &HashMap<CacheKey, EntryMeta>) {
        self.policy.on_insert(entry);
        self.track(entry, table);
    }

    /// `entry` is about to join (or replace its key in) `table` as it
    /// stands, e.g. a snapshot load. Without evictions to drain it —
    /// TTL churn below capacity — the heap would collect one dead
    /// snapshot per removed entry, hence the bound.
    pub fn track(&mut self, entry: &EntryMeta, table: &HashMap<CacheKey, EntryMeta>) {
        if self.heap.len() >= Self::bound(table.len()) {
            self.rebuild(table);
        }
        let snapshot = self.snapshot(entry);
        self.heap.push(Reverse(snapshot));
    }

    /// `entry` was hit at logical time `seq`. No index work.
    pub fn on_hit(&mut self, entry: &mut EntryMeta, seq: u64) {
        let before = (self.policy.retention_score(entry), entry.last_access_seq);
        entry.record_hit(seq);
        self.policy.on_hit(entry);
        debug_assert!(
            (self.policy.retention_score(entry), entry.last_access_seq) >= before,
            "{} lowered {}'s rank on a hit: the monotonicity contract is broken",
            self.policy.kind(),
            entry.key
        );
    }

    /// Forget every snapshot (the table was emptied).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Remove and return the entry of `table` the policy ranks lowest.
    pub fn evict_one(&mut self, table: &mut HashMap<CacheKey, EntryMeta>) -> Option<EntryMeta> {
        loop {
            let Some(Reverse(top)) = self.heap.pop() else {
                debug_assert!(table.is_empty(), "live entries the index never saw");
                return None;
            };
            self.examined += 1;
            let Some(live) = table.get(&top.key) else {
                continue;
            };
            if live.insert_seq != top.insert_seq {
                continue;
            }
            let score = self.policy.retention_score(live);
            if score.total_cmp(&top.score).is_ne() || live.last_access_seq != top.last_access_seq {
                self.heap.push(Reverse(Candidate {
                    score,
                    last_access_seq: live.last_access_seq,
                    ..top
                }));
                continue;
            }
            let victim = table.remove(&top.key).expect("looked up above");
            self.policy.on_evict(&victim);
            return Some(victim);
        }
    }

    fn snapshot(&self, e: &EntryMeta) -> Candidate {
        Candidate {
            score: self.policy.retention_score(e),
            last_access_seq: e.last_access_seq,
            key: e.key.clone(),
            insert_seq: e.insert_seq,
        }
    }

    fn rebuild(&mut self, table: &HashMap<CacheKey, EntryMeta>) {
        let fresh: Vec<_> = table.values().map(|e| Reverse(self.snapshot(e))).collect();
        self.heap = fresh.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use std::time::Duration;

    fn entry(key: &str, size: u64, exec: u64, seq: u64) -> EntryMeta {
        EntryMeta::new(
            CacheKey::new(key),
            NodeId(0),
            size,
            "text/html",
            exec,
            None,
            seq,
        )
    }

    #[test]
    fn kind_parsing() {
        assert_eq!("LRU".parse::<PolicyKind>().unwrap(), PolicyKind::Lru);
        assert_eq!(
            "gds".parse::<PolicyKind>().unwrap(),
            PolicyKind::GreedyDualSize
        );
        assert!("clock".parse::<PolicyKind>().is_err());
        for k in PolicyKind::ALL {
            assert_eq!(k.as_str().parse::<PolicyKind>().unwrap(), k);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let p = Policy::new(PolicyKind::Lru);
        let mut a = entry("/a", 10, 10, 1);
        let b = entry("/b", 10, 10, 2);
        let mut c = entry("/c", 10, 10, 3);
        a.record_hit(10); // /a becomes most recent
        c.record_hit(5);
        let v = p.choose_victim([&a, &b, &c].into_iter()).unwrap();
        assert_eq!(v.as_str(), "/b");
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let p = Policy::new(PolicyKind::Lfu);
        let mut a = entry("/a", 10, 10, 1);
        let mut b = entry("/b", 10, 10, 2);
        let c = entry("/c", 10, 10, 3);
        a.record_hit(4);
        a.record_hit(5);
        b.record_hit(6);
        let v = p.choose_victim([&a, &b, &c].into_iter()).unwrap();
        assert_eq!(v.as_str(), "/c");
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let p = Policy::new(PolicyKind::Lfu);
        let a = entry("/a", 10, 10, 5); // 0 hits, later access
        let b = entry("/b", 10, 10, 2); // 0 hits, earlier access
        let v = p.choose_victim([&a, &b].into_iter()).unwrap();
        assert_eq!(v.as_str(), "/b");
    }

    #[test]
    fn size_evicts_largest() {
        let p = Policy::new(PolicyKind::Size);
        let a = entry("/a", 100, 10, 1);
        let b = entry("/b", 5000, 10, 2);
        let c = entry("/c", 700, 10, 3);
        assert_eq!(
            p.choose_victim([&a, &b, &c].into_iter()).unwrap().as_str(),
            "/b"
        );
    }

    #[test]
    fn cost_evicts_cheapest_to_recompute() {
        let p = Policy::new(PolicyKind::Cost);
        let a = entry("/a", 10, 900_000, 1);
        let b = entry("/b", 10, 1_000, 2);
        let c = entry("/c", 10, 50_000, 3);
        assert_eq!(
            p.choose_victim([&a, &b, &c].into_iter()).unwrap().as_str(),
            "/b"
        );
    }

    #[test]
    fn gds_prefers_high_cost_per_byte() {
        let mut p = Policy::new(PolicyKind::GreedyDualSize);
        let mut cheap_big = entry("/cheap-big", 100_000, 1_000, 1);
        let mut dear_small = entry("/dear-small", 100, 1_000_000, 2);
        p.on_insert(&mut cheap_big);
        p.on_insert(&mut dear_small);
        let v = p
            .choose_victim([&cheap_big, &dear_small].into_iter())
            .unwrap();
        assert_eq!(v.as_str(), "/cheap-big");
    }

    #[test]
    fn gds_inflation_rises_on_eviction_and_ages_residents() {
        let mut p = Policy::new(PolicyKind::GreedyDualSize);
        let mut old = entry("/old", 100, 10_000, 1); // credit 100
        p.on_insert(&mut old);
        assert_eq!(old.gds_credit, 100.0);

        let mut v1 = entry("/v1", 100, 5_000, 2); // credit 50
        p.on_insert(&mut v1);
        let victim = p.choose_victim([&old, &v1].into_iter()).unwrap();
        assert_eq!(victim.as_str(), "/v1");
        p.on_evict(&v1);
        assert_eq!(p.gds_inflation(), 50.0);

        // New insertions now start with the inflated floor: a newcomer of
        // equal value ranks above the aged resident on a future hit tie.
        let mut newer = entry("/newer", 100, 6_000, 3);
        p.on_insert(&mut newer);
        assert_eq!(newer.gds_credit, 110.0);
        // A hit refreshes the resident to the current floor.
        p.on_hit(&mut old);
        assert_eq!(old.gds_credit, 150.0);
    }

    #[test]
    fn empty_iterator_has_no_victim() {
        let p = Policy::new(PolicyKind::Lru);
        assert!(p.choose_victim(std::iter::empty()).is_none());
    }

    #[test]
    fn deterministic_tiebreak_by_key() {
        let p = Policy::new(PolicyKind::Lru);
        let a = entry("/b", 10, 10, 1);
        let b = entry("/a", 10, 10, 1);
        assert_eq!(
            p.choose_victim([&a, &b].into_iter()).unwrap().as_str(),
            "/a"
        );
    }

    #[test]
    fn non_gds_policies_keep_zero_credit() {
        let mut p = Policy::new(PolicyKind::Lru);
        let mut e = entry("/a", 10, 10, 1);
        p.on_insert(&mut e);
        p.on_hit(&mut e);
        p.on_evict(&e);
        assert_eq!(e.gds_credit, 0.0);
        assert_eq!(p.gds_inflation(), 0.0);
        // Suppress unused-field path: ttl-bearing entry also fine.
        let _ = EntryMeta::new(
            CacheKey::new("/t"),
            NodeId(0),
            1,
            "t",
            1,
            Some(Duration::from_secs(5)),
            1,
        );
    }
}
