//! The eviction index against the scan it replaced.
//!
//! * **Equivalence** — for every policy, any mix of inserts, hits (in and
//!   out of clock order), removals, TTL purges, replacements and
//!   evictions leaves the live [`CacheDirectory`] and a mirror table that
//!   evicts by [`Policy::choose_victim`] with the same victims in the same
//!   order, step for step, and the same table (GreedyDual-Size credits
//!   included, so the inflation value tracked too).
//! * **Cost** — counted, not timed: at capacity 50 000 an eviction
//!   examines a handful of snapshots however many hits ran in between,
//!   and the heap stays within its bound.
//!
//! Default config on purpose: CI raises `PROPTEST_CASES` and pins
//! `PROPTEST_RNG_SEED` for this file.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use swala_cache::entry::unix_now;
use swala_cache::{CacheDirectory, CacheKey, EntryMeta, NodeId, Policy, PolicyKind, VictimIndex};

const LOCAL: NodeId = NodeId(0);

#[derive(Debug, Clone)]
enum Op {
    /// A fresh result: admit it, then evict to the case's capacity, as
    /// `CacheManager::complete_execution` does. `expired` makes it purge
    /// fodder.
    Insert {
        id: u8,
        size: u16,
        cost: u16,
        expired: bool,
    },
    /// A hit stamped `lag` ticks in the past — 0 is the usual case, more
    /// is a racing hit reaching the table late.
    Hit {
        id: u8,
        lag: u8,
    },
    Remove {
        id: u8,
    },
    Purge,
    /// Put a copy of a resident entry back with `insert`, its expiry
    /// rewritten (what tests and operators do to age an entry), either as
    /// the same incarnation or as a new one. The fields the policies rank
    /// by stay as the policy left them — `insert` stores verbatim.
    Replace {
        id: u8,
        expired: bool,
        reincarnate: bool,
    },
    /// Shrink below the case's capacity.
    Evict {
        capacity: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u8..40, 1u16..4096, 1u16..500, any::<bool>(), any::<bool>()).prop_map(
            |(id, size, cost, a, b)| Op::Insert { id, size, cost, expired: a && b }
        ),
        8 => (0u8..40, prop_oneof![4 => Just(0u8), 1 => 1u8..30]).prop_map(|(id, lag)| Op::Hit { id, lag }),
        2 => (0u8..40).prop_map(|id| Op::Remove { id }),
        1 => Just(Op::Purge),
        2 => (0u8..40, any::<bool>(), any::<bool>())
            .prop_map(|(id, expired, reincarnate)| Op::Replace { id, expired, reincarnate }),
        1 => (0u8..24).prop_map(|capacity| Op::Evict { capacity }),
    ]
}

fn key_for(id: u8) -> CacheKey {
    CacheKey::new(format!("/cgi-bin/adl?id={id}"))
}

/// The table as the parent commit kept it: a map, a policy, and a full
/// scan per eviction.
struct ScanTable {
    entries: HashMap<CacheKey, EntryMeta>,
    policy: Policy,
}

impl ScanTable {
    fn evict_to(&mut self, capacity: usize) -> Vec<CacheKey> {
        let mut out = Vec::new();
        while self.entries.len() > capacity {
            let victim = self
                .policy
                .choose_victim(self.entries.values())
                .expect("non-empty");
            let meta = self.entries.remove(&victim).expect("chosen from the table");
            self.policy.on_evict(&meta);
            out.push(victim);
        }
        out
    }

    fn sorted(&self) -> Vec<EntryMeta> {
        let mut all: Vec<EntryMeta> = self.entries.values().cloned().collect();
        all.sort_by(|a, b| a.key.cmp(&b.key));
        all
    }
}

/// `prop_assert_eq!` that names the step and shows both sides.
macro_rules! same {
    ($policy:expr, $index:expr, $scan:expr, $step:expr, $what:expr) => {{
        let (index, scan) = ($index, $scan);
        prop_assert!(
            index == scan,
            "{}, step {}: {}: index {:?} != scan {:?}",
            $policy,
            $step,
            $what,
            index,
            scan
        );
    }};
}

fn keys(entries: &[EntryMeta]) -> Vec<CacheKey> {
    entries.iter().map(|e| e.key.clone()).collect()
}

fn run_equivalence(policy: PolicyKind, capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let live = CacheDirectory::with_policy(1, LOCAL, policy);
    let mut scan = ScanTable {
        entries: HashMap::new(),
        policy: Policy::new(policy),
    };
    let mut clock = 100u64;
    for (step, op) in ops.iter().enumerate() {
        clock += 1;
        match *op {
            Op::Insert {
                id,
                size,
                cost,
                expired,
            } => {
                let mut meta = EntryMeta::new(
                    key_for(id),
                    LOCAL,
                    size as u64,
                    "text/html",
                    cost as u64 * 1000,
                    None,
                    clock,
                );
                meta.expires_unix = expired.then_some(1);
                let stored = live.insert_fresh(meta.clone());
                scan.policy.on_insert(&mut meta);
                same!(policy, &stored, &meta, step, "stored entry");
                scan.entries.insert(meta.key.clone(), meta);
                same!(
                    policy,
                    keys(&live.evict_to_capacity(capacity).victims),
                    scan.evict_to(capacity),
                    step,
                    "victims after insert"
                );
            }
            Op::Hit { id, lag } => {
                let seq = clock - lag as u64;
                let hit = live.record_hit(LOCAL, &key_for(id), seq);
                let mirrored = scan.entries.get_mut(&key_for(id)).map(|e| {
                    e.record_hit(seq);
                    scan.policy.on_hit(e);
                });
                same!(policy, hit, mirrored.is_some(), step, "hit found");
            }
            Op::Remove { id } => {
                same!(
                    policy,
                    live.remove(LOCAL, &key_for(id)),
                    scan.entries.remove(&key_for(id)),
                    step,
                    "removed entry"
                );
            }
            Op::Purge => {
                let mut purged = keys(&live.purge_expired());
                purged.sort();
                let mut expected: Vec<CacheKey> = scan
                    .entries
                    .values()
                    .filter(|e| e.is_expired_at(unix_now()))
                    .map(|e| e.key.clone())
                    .collect();
                expected.sort();
                scan.entries.retain(|_, e| !e.is_expired_at(unix_now()));
                same!(policy, purged, expected, step, "purged keys");
            }
            Op::Replace {
                id,
                expired,
                reincarnate,
            } => {
                if let Some(mut meta) = scan.entries.get(&key_for(id)).cloned() {
                    meta.expires_unix = expired.then_some(1);
                    if reincarnate {
                        meta.insert_seq = clock;
                        meta.last_access_seq = clock;
                        meta.hits = 0;
                    }
                    live.insert(LOCAL, meta.clone());
                    scan.entries.insert(meta.key.clone(), meta);
                }
            }
            Op::Evict { capacity } => {
                same!(
                    policy,
                    keys(&live.evict_to_capacity(capacity as usize).victims),
                    scan.evict_to(capacity as usize),
                    step,
                    "victims of explicit eviction"
                );
            }
        }
        let mut resident = live.snapshot(LOCAL);
        resident.sort_by(|a, b| a.key.cmp(&b.key));
        same!(policy, resident, scan.sorted(), step, "table contents");
    }
    // Drain: the whole remaining order must agree, not just its head.
    same!(
        policy,
        keys(&live.evict_to_capacity(0).victims),
        scan.evict_to(0),
        ops.len(),
        "final drain order"
    );
    Ok(())
}

proptest! {
    #[test]
    fn index_evicts_what_the_scan_would(
        capacity in 1usize..24,
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        for policy in PolicyKind::ALL {
            run_equivalence(policy, capacity, &ops)?;
        }
    }
}

/// Small deterministic generator for the cost test's key choices.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Admit entry `id` at logical time `seq`, as the sim does.
fn admit(
    table: &mut HashMap<CacheKey, EntryMeta>,
    index: &mut VictimIndex,
    rng: &mut Lcg,
    id: u64,
    seq: u64,
) {
    let mut meta = EntryMeta::new(
        CacheKey::new(format!("/cgi-bin/adl?id={id}")),
        LOCAL,
        512 + rng.below(8192),
        "text/html",
        1_000 + rng.below(500_000),
        None,
        seq,
    );
    index.on_insert(&mut meta, table);
    table.insert(meta.key.clone(), meta);
}

#[test]
fn eviction_cost_is_flat_at_capacity_50k() {
    const CAPACITY: u64 = 50_000;
    const INSERTS: u64 = 10_000;
    for kind in PolicyKind::ALL {
        let mut table: HashMap<CacheKey, EntryMeta> = HashMap::new();
        let mut index = VictimIndex::new(kind);
        let mut rng = Lcg(kind as u64 + 1);
        let mut seq = 0u64;
        for id in 0..CAPACITY {
            seq += 1;
            admit(&mut table, &mut index, &mut rng, id, seq);
        }
        assert_eq!(index.examined(), 0, "{kind}: filling examined nothing");

        let mut evictions = 0u64;
        for n in 0..INSERTS {
            // One hit on a random resident per insert: under Lru and Lfu
            // each leaves a stale snapshot behind.
            let hot = CacheKey::new(format!("/cgi-bin/adl?id={}", rng.below(CAPACITY + n)));
            if let Some(entry) = table.get_mut(&hot) {
                seq += 1;
                index.on_hit(entry, seq);
            }
            seq += 1;
            admit(&mut table, &mut index, &mut rng, CAPACITY + n, seq);
            while table.len() as u64 > CAPACITY {
                index.evict_one(&mut table).expect("table is over capacity");
                evictions += 1;
            }
            assert!(
                index.len() <= VictimIndex::bound(table.len()),
                "{kind}: heap {} over bound {} at insert {n}",
                index.len(),
                VictimIndex::bound(table.len())
            );
        }
        assert_eq!(evictions, INSERTS);
        let per_eviction = index.examined() as f64 / evictions as f64;
        assert!(
            per_eviction <= 3.0,
            "{kind}: {per_eviction:.2} snapshots examined per eviction"
        );
    }
}

#[test]
fn ttl_churn_below_capacity_cannot_grow_the_heap() {
    // No eviction ever drains the heap here: entries come and go by
    // removal alone, as under TTL purges far below capacity.
    let mut table: HashMap<CacheKey, EntryMeta> = HashMap::new();
    let mut index = VictimIndex::new(PolicyKind::Lru);
    for seq in 0..100_000u64 {
        let mut meta = EntryMeta::new(
            CacheKey::new(format!("/cgi-bin/ttl?id={seq}")),
            LOCAL,
            100,
            "t",
            1000,
            None,
            seq,
        );
        index.on_insert(&mut meta, &table);
        table.insert(meta.key.clone(), meta);
        if seq >= 10 {
            table.remove(&CacheKey::new(format!("/cgi-bin/ttl?id={}", seq - 10)));
        }
        assert!(index.len() <= VictimIndex::bound(table.len()));
    }
    assert_eq!(table.len(), 10);
    // And the survivors still leave oldest-first.
    let first = index.evict_one(&mut table).unwrap();
    assert_eq!(first.key.as_str(), "/cgi-bin/ttl?id=99990");
}
