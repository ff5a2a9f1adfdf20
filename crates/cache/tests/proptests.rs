//! Property-based tests for cache invariants:
//!
//! * capacity is never exceeded, whatever the policy and request stream;
//! * the directory and the store never disagree after any operation mix;
//! * every policy evicts the entry its scoring function says it should;
//! * rules parsing accepts what it printed;
//! * segment-store records round-trip exactly, and truncation or any
//!   single bit flip is always detected (never mis-decoded, never a
//!   panic) — the store itself is checked against a model in
//!   `segstore_model.rs`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use swala_cache::store::HeaderMeta;
use swala_cache::{
    decode_record, encode_record, CacheKey, CacheManager, CacheManagerConfig, CacheRules, Digest,
    DiskStore, InsertOutcome, LookupResult, MemStore, NodeId, PolicyKind, Record, RemoteUpdate,
    Store,
};

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Lfu),
        Just(PolicyKind::Size),
        Just(PolicyKind::Cost),
        Just(PolicyKind::GreedyDualSize),
    ]
}

/// An operation against the manager, driven by small integers so shrunken
/// counterexamples stay readable.
#[derive(Debug, Clone)]
enum Op {
    Request {
        id: u8,
        cost_ms: u16,
        size: u16,
    },
    RemoveLocal {
        id: u8,
    },
    Purge,
    EvictNode,
    /// A peer's false-hit repair: a batched delete naming node 0.
    RepairDelete {
        id: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), 1u16..200, 1u16..2048)
            .prop_map(|(id, cost_ms, size)| Op::Request { id, cost_ms, size }),
        1 => any::<u8>().prop_map(|id| Op::RemoveLocal { id }),
        1 => Just(Op::Purge),
        1 => Just(Op::EvictNode),
        1 => any::<u8>().prop_map(|id| Op::RepairDelete { id }),
    ]
}

fn key_for(id: u8) -> CacheKey {
    CacheKey::new(format!("/cgi-bin/adl?id={id}"))
}

/// Apply a peer's repair notice for `id` naming node 0 as its owner.
fn repair_delete(m: &CacheManager, id: u8) {
    m.apply_remote_batch(vec![RemoteUpdate::Delete {
        owner: NodeId(0),
        key: key_for(id),
    }]);
}

// ---- segment-log wire format strategies ----

fn digest_strategy() -> impl Strategy<Value = Digest> {
    proptest::collection::vec(any::<u8>(), 16..17)
        .prop_map(|v| Digest(v.try_into().expect("exactly 16 bytes")))
}

fn meta_strategy() -> impl Strategy<Value = HeaderMeta> {
    (
        "[ -~]{0,24}",
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
    )
        .prop_map(
            |(content_type, exec_micros, expires_unix, created_unix)| HeaderMeta {
                content_type,
                exec_micros,
                expires_unix,
                created_unix,
            },
        )
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            any::<u64>(),
            "[ -~]{1,40}",
            digest_strategy(),
            meta_strategy(),
            any::<u64>()
        )
            .prop_map(|(seq, key, digest, meta, body_len)| Record::Put {
                seq,
                key: CacheKey::new(key),
                digest,
                meta,
                body_len,
            }),
        any::<u64>().prop_map(|len| Record::Free { len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn capacity_never_exceeded(
        policy in policy_strategy(),
        capacity in 1usize..20,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let m = CacheManager::new(
            CacheManagerConfig {
                num_nodes: 1,
                local: NodeId(0),
                capacity,
                policy,
                rules: CacheRules::allow_all(),
                mem_cache_bytes: 1 << 20,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        for op in ops {
            match op {
                Op::Request { id, cost_ms, size } => {
                    let k = key_for(id);
                    match m.lookup(&k, k.as_str()) {
                        LookupResult::Miss { decision, .. } => {
                            let body = vec![b'x'; size as usize];
                            let out = m.complete_execution(
                                &k,
                                &body,
                                "text/html",
                                Duration::from_millis(cost_ms as u64),
                                &decision,
                            ).unwrap();
                            if let InsertOutcome::Inserted { evicted, .. } = out {
                                // Evicted entries must be gone everywhere.
                                for v in evicted {
                                    prop_assert!(m.directory().get(NodeId(0), &v.key).is_none());
                                }
                            }
                        }
                        LookupResult::LocalHit { body, meta, .. } => {
                            prop_assert_eq!(body.len() as u64, meta.size);
                        }
                        LookupResult::RemoteHit { .. } => unreachable!("single node"),
                        LookupResult::Uncacheable => unreachable!("allow_all"),
                        // Sequential ops: every miss completes before the
                        // next lookup, so no flight is ever in progress.
                        LookupResult::CoalesceWait { .. } => unreachable!("sequential ops"),
                    }
                }
                Op::RemoveLocal { id } => { m.remove_local(&key_for(id)); }
                Op::Purge => { m.purge_expired(); }
                // Single node: out-of-range eviction must be a no-op.
                Op::EvictNode => { m.evict_node(NodeId(1)); }
                Op::RepairDelete { id } => repair_delete(&m, id),
            }
            prop_assert!(m.directory().len(NodeId(0)) <= capacity,
                "directory over capacity: {} > {}", m.directory().len(NodeId(0)), capacity);
        }
    }

    #[test]
    fn directory_and_store_stay_consistent(
        policy in policy_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        let m = CacheManager::new(
            CacheManagerConfig {
                num_nodes: 1,
                local: NodeId(0),
                capacity: 8,
                policy,
                rules: CacheRules::allow_all(),
                mem_cache_bytes: 1 << 20,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        for op in ops {
            if let Op::Request { id, cost_ms, size } = op {
                let k = key_for(id);
                if let LookupResult::Miss { decision, .. } = m.lookup(&k, k.as_str()) {
                    let body = vec![b'y'; size as usize];
                    m.complete_execution(&k, &body, "t",
                        Duration::from_millis(cost_ms as u64), &decision).unwrap();
                }
            } else if let Op::RemoveLocal { id } = op {
                m.remove_local(&key_for(id));
            } else if let Op::RepairDelete { id } = op {
                repair_delete(&m, id);
            }
            // Invariant: every directory entry has a readable body of the
            // advertised size.
            for meta in m.local_snapshot() {
                let hit = m.fetch_local_body(&meta.key);
                prop_assert!(hit.is_some(), "directory entry {} has no body", meta.key);
                prop_assert_eq!(hit.unwrap().1.len() as u64, meta.size);
            }
        }
    }

    #[test]
    fn hits_are_byte_identical_to_execution(
        ids in proptest::collection::vec(any::<u8>(), 1..60),
    ) {
        let m = CacheManager::new(
            CacheManagerConfig { capacity: 1000, ..Default::default() },
            Box::new(MemStore::new()),
        );
        let body_of = |id: u8| vec![id; (id as usize % 64) + 1];
        for id in ids {
            let k = key_for(id);
            match m.lookup(&k, k.as_str()) {
                LookupResult::Miss { decision, .. } => {
                    m.complete_execution(&k, &body_of(id), "t",
                        Duration::from_millis(10), &decision).unwrap();
                }
                LookupResult::LocalHit { body, .. } => {
                    prop_assert_eq!(&body[..], &body_of(id)[..]);
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    /// The body tier's rule: after any interleaving of insert / delete /
    /// evict / `evict_node` / a peer's delete naming this node, the disk
    /// holds exactly the local table's bodies, every body the manager
    /// serves (memory tier or not) byte-equals what an independent reader
    /// sees there, and the tier never holds more than its byte budget.
    #[test]
    fn mem_tier_coherent_with_disk_store(
        budget in 256usize..4096,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "swala-proptest-mem-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&root);
        let m = CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                capacity: 6,
                policy: PolicyKind::Lru,
                rules: CacheRules::allow_all(),
                mem_cache_bytes: budget,
                ..Default::default()
            },
            // fsync off: this property is about tier/disk coherence, not
            // durability, and 64 cases × 80 ops of syncs add up.
            Box::new(DiskStore::open_with_fsync(&root, false).unwrap()),
        );
        // Second handle on the same directory: reads the actual files,
        // bypassing the manager's memory tier entirely.
        let disk_view = DiskStore::open_with_fsync(&root, false).unwrap();
        for op in ops {
            match op {
                Op::Request { id, cost_ms, size } => {
                    let k = key_for(id);
                    match m.lookup(&k, k.as_str()) {
                        LookupResult::Miss { decision, .. } => {
                            let body = vec![id; (size as usize % 512) + 1];
                            m.complete_execution(&k, &body, "t",
                                Duration::from_millis(cost_ms as u64), &decision).unwrap();
                        }
                        LookupResult::LocalHit { .. } => {}
                        other => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::RemoveLocal { id } => { m.remove_local(&key_for(id)); }
                Op::Purge => { m.purge_expired(); }
                Op::EvictNode => { m.evict_node(NodeId(1)); }
                Op::RepairDelete { id } => repair_delete(&m, id),
            }
            prop_assert!(m.bodies().mem_bytes() <= budget,
                "tier holds {} bytes over budget {}", m.bodies().mem_bytes(), budget);
            // The second handle's own count is of its own puts, so the
            // files on disk are listed by what recovery would read.
            let on_disk: BTreeSet<CacheKey> =
                disk_view.recover().into_iter().map(|r| r.key).collect();
            let listed: BTreeSet<CacheKey> =
                m.local_snapshot().into_iter().map(|meta| meta.key).collect();
            prop_assert_eq!(on_disk.len(), m.directory().len(NodeId(0)));
            prop_assert_eq!(&on_disk, &listed, "disk and local table disagree");
            for key in &listed {
                prop_assert!(disk_view.contains(key), "no body on disk for {}", key);
            }
            for meta in m.local_snapshot() {
                let (_, served) = m.fetch_local_body(&meta.key).unwrap();
                let on_disk = disk_view.get(&meta.key).unwrap();
                prop_assert_eq!(&served[..], &on_disk[..],
                    "tier and disk disagree for {}", meta.key);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Single-flight invariant: whatever the burst width and body, every
    /// coalesced waiter observes bytes identical to what the leader
    /// inserted — the zero-copy fan-out never serves torn or stale data.
    #[test]
    fn coalesced_waiters_see_leader_bytes(
        waiters in 1usize..8,
        body in proptest::collection::vec(any::<u8>(), 1..2048),
        content_type in "[a-z]{2,10}/[a-z]{2,10}",
    ) {
        use std::sync::Arc;
        let m = Arc::new(CacheManager::new(
            CacheManagerConfig::default(),
            Box::new(MemStore::new()),
        ));
        let k = key_for(7);
        let decision = match m.lookup(&k, k.as_str()) {
            LookupResult::Miss { decision, first_in_flight: true } => decision,
            other => { prop_assert!(false, "unexpected {other:?}"); unreachable!() }
        };
        let mut handles = Vec::new();
        for _ in 0..waiters {
            let waiter = match m.lookup(&k, k.as_str()) {
                LookupResult::CoalesceWait { waiter, .. } => waiter,
                other => { prop_assert!(false, "unexpected {other:?}"); unreachable!() }
            };
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || m.wait_flight(waiter)));
        }
        m.complete_execution(&k, &body, &content_type,
            Duration::from_millis(60), &decision).unwrap();
        for h in handles {
            match h.join().unwrap() {
                swala_cache::FlightWaitOutcome::Served { content_type: ct, body: served } => {
                    prop_assert_eq!(&served[..], &body[..]);
                    prop_assert_eq!(ct, content_type.clone());
                }
                other => prop_assert!(false, "waiter not served: {other:?}"),
            }
        }
        let snap = m.stats().snapshot();
        prop_assert_eq!(snap.coalesce_waits, waiters as u64);
        prop_assert_eq!(snap.coalesce_fallbacks, 0);
    }

    /// Every record survives encode → decode byte-exactly, reports the
    /// right consumed length, and is insensitive to whatever follows it
    /// in the buffer (a record's body and the next extent follow it).
    #[test]
    fn segment_records_roundtrip(
        rec in record_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let encoded = encode_record(&rec);
        let (decoded, consumed) = decode_record(&encoded).expect("clean record decodes");
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(consumed, encoded.len());
        let mut with_tail = encoded.clone();
        with_tail.extend_from_slice(&junk);
        let (decoded, consumed) = decode_record(&with_tail).expect("tail must not matter");
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(consumed, encoded.len());
    }

    /// A torn record (any strict prefix, as left by a crash mid-write)
    /// never decodes and never panics.
    #[test]
    fn truncated_segment_records_never_decode(
        rec in record_strategy(),
        cut in any::<usize>(),
    ) {
        let encoded = encode_record(&rec);
        let cut = cut % encoded.len();
        prop_assert!(decode_record(&encoded[..cut]).is_none(),
            "prefix of {} of {} bytes decoded", cut, encoded.len());
    }

    /// Any single flipped bit — header, checksum field or payload — is
    /// caught by one of the two CRCs: the record never mis-decodes.
    #[test]
    fn bit_flipped_segment_records_never_decode(
        rec in record_strategy(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut encoded = encode_record(&rec);
        let pos = pos % encoded.len();
        encoded[pos] ^= 1 << bit;
        prop_assert!(decode_record(&encoded).is_none(),
            "bit {bit} of byte {pos} flipped yet the record decoded");
    }

    #[test]
    fn rules_roundtrip_through_text(
        patterns in proptest::collection::vec(("[a-z]{1,8}", any::<bool>(), proptest::option::of(1u64..5000), 0u64..5000), 1..10),
    ) {
        let mut text = String::new();
        for (seg, cacheable, ttl, min_ms) in &patterns {
            if *cacheable {
                text.push_str(&format!("cache /cgi-bin/{seg}*"));
                if let Some(t) = ttl { text.push_str(&format!(" ttl={t}")); }
                if *min_ms > 0 { text.push_str(&format!(" min_ms={min_ms}")); }
            } else {
                text.push_str(&format!("nocache /cgi-bin/{seg}*"));
            }
            text.push('\n');
        }
        let rules = CacheRules::parse(&text).unwrap();
        prop_assert_eq!(rules.len(), patterns.len());
        // First-match-wins: the decision for each pattern's exemplar path
        // equals the decision of the first rule whose prefix matches.
        for (seg, _, _, _) in &patterns {
            let path = format!("/cgi-bin/{seg}");
            let expected = patterns.iter()
                .find(|(s, _, _, _)| seg.starts_with(s.as_str()))
                .map(|(_, cacheable, ttl, min_ms)| (*cacheable, *ttl, *min_ms));
            match (rules.decide(&path), expected) {
                (swala_cache::CacheDecision::Uncacheable, Some((false, _, _))) => {}
                (swala_cache::CacheDecision::Cacheable { ttl, min_exec }, Some((true, exp_ttl, exp_min))) => {
                    prop_assert_eq!(ttl.map(|d| d.as_secs()), exp_ttl);
                    prop_assert_eq!(min_exec.as_millis() as u64, exp_min);
                }
                (got, exp) => prop_assert!(false, "mismatch: {got:?} vs {exp:?}"),
            }
        }
    }
}
