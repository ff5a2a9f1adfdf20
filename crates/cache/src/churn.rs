//! Keeping a fixed-population `HashMap` from doubling under churn.
//!
//! A cache table pinned at N entries by eviction sees insert/remove churn
//! for ever, and every removal from a crowded probe window leaves a
//! tombstone. `HashMap` reclaims tombstones in place only while the live
//! entries fill under half the table; between half and full it doubles
//! instead, and it never shrinks. The default 2000-entry tables sit at
//! 56 % of a 4096-bucket table, so after some twenty thousand inserts each
//! one — two directory tables, two memory-tier indexes — had quietly moved
//! to 8192 buckets: about 2 MiB per node, a fifth of its resident memory
//! at 4 KiB bodies, for nothing.

use std::collections::HashMap;
use std::hash::Hash;

/// Call before inserting one entry into a map that lives under churn.
/// When the map has no free slot left — the next insert would make it
/// reallocate or rehash anyway — empty it, which clears its tombstones,
/// and put the entries back: a table truly full then grows as it would
/// have, one merely full of tombstones carries on in the allocation it
/// has. (Building the replacement beside the old table, as this once
/// did, left the allocator ping-ponging between two table-sized regions
/// of the heap: one table's worth of resident memory wasted per map.)
/// At least `len / 2` inserts pass between calls that do anything, so
/// the cost stays amortised O(1) per insert.
pub(crate) fn reserve_one<K: Eq + Hash, V>(map: &mut HashMap<K, V>) {
    if map.capacity() > map.len() {
        return;
    }
    let entries: Vec<(K, V)> = map.drain().collect();
    map.reserve(entries.len() + entries.len() / 2 + 1);
    map.extend(entries);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_at_a_fixed_population_never_grows_the_table() {
        // 2000 live entries, first in first out, 200 000 times over.
        let mut map: HashMap<u64, [u64; 4]> = HashMap::new();
        let mut peak = 0;
        for n in 0..200_000u64 {
            reserve_one(&mut map);
            map.insert(n, [n; 4]);
            if n >= 2000 {
                map.remove(&(n - 2000));
            }
            peak = peak.max(map.capacity());
        }
        assert_eq!(map.len(), 2000);
        // 4096 buckets hold 3584; the doubled table would report 7168.
        assert!(peak <= 3584, "table grew to capacity {peak}");
        // Without the call the same churn does double it.
        let mut plain: HashMap<u64, [u64; 4]> = HashMap::new();
        for n in 0..200_000u64 {
            plain.insert(n, [n; 4]);
            if n >= 2000 {
                plain.remove(&(n - 2000));
            }
        }
        assert!(
            plain.capacity() > 3584,
            "std no longer doubles: drop reserve_one"
        );
    }

    #[test]
    fn a_growing_map_still_grows() {
        let mut map: HashMap<u64, u64> = HashMap::new();
        for n in 0..10_000 {
            reserve_one(&mut map);
            map.insert(n, n);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000).all(|n| map[&n] == n));
    }
}
