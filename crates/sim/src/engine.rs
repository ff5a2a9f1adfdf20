//! The simulation engine.

use crate::model::{Routing, SimConfig, SimResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use swala_cache::{CacheKey, DirectoryKind, EntryMeta, HashRing, NodeId, VictimIndex};
use swala_workload::{RequestKind, Trace};

/// One simulated node's cache and its (possibly stale) view of peers.
struct Node {
    /// Entries this node actually holds.
    cache: HashMap<CacheKey, EntryMeta>,
    /// Replacement policy + victim index over `cache` — the live
    /// directory's own type, so both evict the same entries.
    victims: VictimIndex,
    /// This node's directory view of *remote* entries: key → owner.
    /// Updated only by (delayed) insert/delete notices.
    view: HashMap<CacheKey, NodeId>,
}

/// An in-flight directory notice.
struct Notice {
    /// Visible from the request with this index onward.
    deliver_at: u64,
    from: NodeId,
    key: CacheKey,
    insert: bool,
}

/// Payload-byte estimate per directory message, mirroring the live
/// wire format: the key itself plus the framing/meta overhead of a
/// `DirUpdate` (inserts carry `EntryMeta`, deletes only the key).
fn update_bytes(key: &CacheKey, insert: bool) -> u64 {
    key.as_str().len() as u64 + if insert { 48 } else { 16 }
}

/// Queue one insert/delete notice, charging the mode's wire cost:
/// replicated pays N−1 point-to-point messages, partitioned exactly one
/// (to the key's home) or zero when the sender *is* the home — its own
/// directory table is already the authoritative copy.
#[allow(clippy::too_many_arguments)]
fn send_notice(
    pending: &mut Vec<Notice>,
    result: &mut SimResult,
    ring: Option<&HashRing>,
    nodes: usize,
    deliver_at: u64,
    from: NodeId,
    key: CacheKey,
    insert: bool,
) {
    let fanout = match ring {
        None => nodes as u64 - 1,
        Some(ring) if ring.home(&key) == from => return,
        Some(_) => 1,
    };
    result.dir_update_msgs += fanout;
    result.dir_update_bytes += fanout * update_bytes(&key, insert);
    pending.push(Notice {
        deliver_at,
        from,
        key,
        insert,
    });
}

/// Replay `trace` through a simulated cluster.
///
/// Requests are processed one at a time in trace order (the §5.3
/// experiments are closed-loop and the quantities of interest are
/// counts, so sequential replay loses nothing). A notice emitted while
/// processing request `t` becomes visible from request
/// `t + 1 + broadcast_delay`; with delay 0 that is the idealized
/// next-request visibility, and larger delays widen §4.2's
/// false-miss/false-hit window.
pub fn simulate(cfg: &SimConfig, trace: &Trace) -> SimResult {
    assert!(cfg.nodes >= 1);
    assert!(cfg.capacity >= 1);
    let mut nodes: Vec<Node> = (0..cfg.nodes)
        .map(|_| Node {
            cache: HashMap::new(),
            victims: VictimIndex::new(cfg.policy),
            view: HashMap::new(),
        })
        .collect();
    let mut pending: Vec<Notice> = Vec::new();
    let mut result = SimResult::default();
    // Partitioned mode uses the same ring as the live cluster (same
    // hash, same virtual-node count), so simulated key placement is
    // exactly the live placement.
    let ring = (cfg.cooperative && cfg.directory == DirectoryKind::Partitioned)
        .then(|| HashRing::with_members((0..cfg.nodes as u16).map(NodeId), cfg.ring_vnodes));
    let mut route_rng = match cfg.routing {
        Routing::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        Routing::RoundRobin => None,
    };

    for (t, req) in trace.requests.iter().enumerate() {
        let t = t as u64;
        result.requests += 1;

        // Deliver due notices: replicated to every node but the sender,
        // partitioned to the key's home node only.
        if cfg.cooperative {
            let mut i = 0;
            while i < pending.len() {
                if pending[i].deliver_at <= t {
                    let n = pending.swap_remove(i);
                    match &ring {
                        None => {
                            for (id, node) in nodes.iter_mut().enumerate() {
                                if id == n.from.index() {
                                    continue;
                                }
                                if n.insert {
                                    node.view.insert(n.key.clone(), n.from);
                                } else if node.view.get(&n.key) == Some(&n.from) {
                                    node.view.remove(&n.key);
                                }
                            }
                        }
                        Some(ring) => {
                            let home = &mut nodes[ring.home(&n.key).index()];
                            if n.insert {
                                home.view.insert(n.key.clone(), n.from);
                            } else if home.view.get(&n.key) == Some(&n.from) {
                                home.view.remove(&n.key);
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }

        let cost = req.service_micros;
        if req.kind != RequestKind::Dynamic {
            // Static fetches bypass the cache entirely (§4.1).
            result.exec_micros += cost;
            continue;
        }
        let here = match &mut route_rng {
            Some(rng) => rng.random_range(0..cfg.nodes),
            None => (t as usize) % cfg.nodes,
        };
        let key = CacheKey::new(&req.target);

        // Local hit?
        if nodes[here].cache.contains_key(&key) {
            let node = &mut nodes[here];
            let entry = node.cache.get_mut(&key).expect("checked");
            node.victims.on_hit(entry, t);
            result.local_hits += 1;
            result.saved_micros += cost;
            continue;
        }

        // Remote hit (cooperative only)? Replicated consults the local
        // replica of the directory; partitioned asks the key's home node
        // (one lookup round-trip when that is not the requester itself —
        // the home answers from its own cache or its directory table).
        if cfg.cooperative {
            let owner_hint: Option<NodeId> = match &ring {
                None => nodes[here].view.get(&key).copied(),
                Some(ring) => {
                    let home = ring.home(&key);
                    if home.index() != here {
                        result.dir_lookups += 1;
                    }
                    if nodes[home.index()].cache.contains_key(&key) {
                        Some(home)
                    } else {
                        nodes[home.index()].view.get(&key).copied()
                    }
                }
            };
            if let Some(owner) = owner_hint {
                if nodes[owner.index()].cache.contains_key(&key) {
                    let peer = &mut nodes[owner.index()];
                    let entry = peer.cache.get_mut(&key).expect("checked");
                    peer.victims.on_hit(entry, t);
                    result.remote_hits += 1;
                    result.saved_micros += cost;
                    continue;
                }
                // §4.2 false hit: the directory said owner had it, the
                // fetch comes back empty, we execute locally.
                result.false_hits += 1;
                match &ring {
                    None => {
                        nodes[here].view.remove(&key);
                    }
                    Some(ring) => {
                        nodes[ring.home(&key).index()].view.remove(&key);
                    }
                }
            } else if nodes
                .iter()
                .enumerate()
                .any(|(id, n)| id != here && n.cache.contains_key(&key))
            {
                // Entry exists at a peer, but the insert notice has not
                // arrived: §4.2 false miss (the delayed-broadcast kind).
                result.false_misses += 1;
            }
        }

        // Miss: execute and insert locally.
        result.misses += 1;
        result.exec_micros += cost;
        let mut meta = EntryMeta::new(
            key.clone(),
            NodeId(here as u16),
            1024,
            "text/html",
            cost,
            None,
            t,
        );
        let node = &mut nodes[here];
        node.victims.on_insert(&mut meta, &node.cache);
        node.cache.insert(key.clone(), meta);
        if cfg.cooperative {
            send_notice(
                &mut pending,
                &mut result,
                ring.as_ref(),
                cfg.nodes,
                t + 1 + cfg.broadcast_delay,
                NodeId(here as u16),
                key.clone(),
                true,
            );
        }

        // Evict to capacity, broadcasting deletions.
        while node.cache.len() > cfg.capacity {
            let victim = node
                .victims
                .evict_one(&mut node.cache)
                .expect("cache is non-empty");
            result.evictions += 1;
            if cfg.cooperative {
                send_notice(
                    &mut pending,
                    &mut result,
                    ring.as_ref(),
                    cfg.nodes,
                    t + 1 + cfg.broadcast_delay,
                    NodeId(here as u16),
                    victim.key,
                    false,
                );
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_cache::PolicyKind;
    use swala_workload::{section53_trace, Trace, TraceRequest};

    fn tiny_trace(ids: &[u64]) -> Trace {
        Trace::new(
            ids.iter()
                .map(|&id| TraceRequest::dynamic(id, 1_000_000, 10))
                .collect(),
        )
    }

    #[test]
    fn single_node_behaves_like_a_plain_cache() {
        let cfg = SimConfig {
            nodes: 1,
            ..Default::default()
        };
        let r = simulate(&cfg, &tiny_trace(&[1, 2, 1, 1, 3, 2]));
        assert_eq!(r.requests, 6);
        assert_eq!(r.misses, 3);
        assert_eq!(r.local_hits, 3);
        assert_eq!(r.remote_hits, 0);
        assert_eq!(r.false_misses, 0);
        assert_eq!(r.saved_micros, 3_000_000);
        assert_eq!(r.exec_micros, 3_000_000);
    }

    #[test]
    fn cooperative_round_robin_turns_repeats_into_remote_hits() {
        // Round-robin over 2 nodes: ids 1,1 land on different nodes.
        let cfg = SimConfig {
            nodes: 2,
            ..Default::default()
        };
        let r = simulate(&cfg, &tiny_trace(&[1, 1]));
        assert_eq!(r.misses, 1);
        assert_eq!(r.remote_hits, 1);
        assert_eq!(r.local_hits, 0);
    }

    #[test]
    fn standalone_round_robin_misses_cross_node_repeats() {
        let cfg = SimConfig {
            nodes: 2,
            cooperative: false,
            ..Default::default()
        };
        let r = simulate(&cfg, &tiny_trace(&[1, 1, 1]));
        // Request 0 → node 0 (miss), request 1 → node 1 (miss),
        // request 2 → node 0 (local hit).
        assert_eq!(r.misses, 2);
        assert_eq!(r.local_hits, 1);
        assert_eq!(r.remote_hits, 0);
    }

    #[test]
    fn broadcast_delay_produces_false_misses() {
        // With delay 3, the second access to id=1 (next request) cannot
        // see node 0's insert yet.
        let cfg = SimConfig {
            nodes: 2,
            broadcast_delay: 3,
            ..Default::default()
        };
        let r = simulate(&cfg, &tiny_trace(&[1, 1]));
        assert_eq!(r.misses, 2);
        assert_eq!(r.false_misses, 1);
        assert_eq!(r.remote_hits, 0);

        // Zero delay: no false miss.
        let cfg0 = SimConfig {
            nodes: 2,
            broadcast_delay: 0,
            ..Default::default()
        };
        let r0 = simulate(&cfg0, &tiny_trace(&[1, 1]));
        assert_eq!(r0.false_misses, 0);
        assert_eq!(r0.remote_hits, 1);
    }

    #[test]
    fn eviction_with_delayed_delete_notice_yields_false_hits() {
        // Node 0 caches id 1 then evicts it (capacity 1) by caching id 3
        // (both land on node 0 under round-robin). Node 1 learned about
        // id 1 but — with a large delete delay — not about the eviction,
        // so its access to id 1 false-hits.
        let cfg = SimConfig {
            nodes: 2,
            capacity: 1,
            broadcast_delay: 0,
            ..Default::default()
        };
        // t0: id1 → node0 (insert). t1: id2 → node1. t2: id3 → node0
        // (evicts id1, delete notice visible from t3).
        // To make the delete arrive *late*, use delay for the window:
        let cfg_delayed = SimConfig {
            broadcast_delay: 2,
            ..cfg
        };
        // t3: id1 → node1: node1's view has id1@node0 (insert notice from
        // t0 arrives at t3 with delay 2), but node0 evicted it at t2.
        let r = simulate(&cfg_delayed, &tiny_trace(&[1, 2, 3, 1]));
        assert_eq!(r.false_hits, 1);
        // id1 evicted at node 0 (by id3); the fallback insert of id1 at
        // node 1 then evicts id2 there.
        assert_eq!(r.evictions, 2);
    }

    #[test]
    fn capacity_is_respected_per_node() {
        let cfg = SimConfig {
            nodes: 2,
            capacity: 5,
            cooperative: false,
            ..Default::default()
        };
        let ids: Vec<u64> = (0..100).collect();
        let r = simulate(&cfg, &tiny_trace(&ids));
        // 100 unique ids, 50 per node, capacity 5 → 45 evictions each.
        assert_eq!(r.evictions, 90);
        assert_eq!(r.misses, 100);
    }

    #[test]
    fn section53_large_cache_matches_paper_regime() {
        let trace = section53_trace(53, 10);
        let upper = trace.upper_bound_hits() as u64; // 478

        // Cooperative, any node count, capacity 2000: ≈ upper bound
        // (paper Table 5: 97.5–99.4 %; the simulator's idealized network
        // gives exactly 100 %).
        for nodes in [1, 2, 4, 8] {
            let cfg = SimConfig {
                nodes,
                capacity: 2000,
                ..Default::default()
            };
            let r = simulate(&cfg, &trace);
            assert_eq!(r.hits(), upper, "coop {nodes} nodes");
        }

        // Stand-alone degrades with node count (paper: 62.8 % at 2
        // nodes, 23.8 % at 8 — monotone decline).
        let mut prev = u64::MAX;
        for nodes in [1, 2, 4, 8] {
            let cfg = SimConfig {
                nodes,
                capacity: 2000,
                cooperative: false,
                ..Default::default()
            };
            let r = simulate(&cfg, &trace);
            assert!(r.hits() <= prev, "standalone hits must not grow with nodes");
            prev = r.hits();
            if nodes == 1 {
                assert_eq!(r.hits(), upper, "one stand-alone node is a plain cache");
            }
        }
        let eight = simulate(
            &SimConfig {
                nodes: 8,
                capacity: 2000,
                cooperative: false,
                ..Default::default()
            },
            &trace,
        );
        let pct = eight.pct_of_upper_bound(upper);
        assert!(
            pct < 50.0,
            "8-node stand-alone at {pct}% of upper bound; paper ~24%"
        );
    }

    #[test]
    fn section53_small_cache_cooperative_still_wins() {
        let trace = section53_trace(53, 10);
        let upper = trace.upper_bound_hits() as u64;
        for nodes in [2, 4, 8] {
            let coop = simulate(
                &SimConfig {
                    nodes,
                    capacity: 20,
                    ..Default::default()
                },
                &trace,
            );
            let alone = simulate(
                &SimConfig {
                    nodes,
                    capacity: 20,
                    cooperative: false,
                    ..Default::default()
                },
                &trace,
            );
            assert!(
                coop.hits() > alone.hits(),
                "{nodes} nodes: coop {} ≤ standalone {}",
                coop.hits(),
                alone.hits()
            );
            // Paper Table 6 at 8 nodes: coop ≈ 73.6 % vs standalone < 40 %.
            if nodes == 8 {
                assert!(coop.pct_of_upper_bound(upper) > 55.0);
                assert!(alone.pct_of_upper_bound(upper) < 45.0);
            }
        }
    }

    #[test]
    fn policies_all_run_and_respect_capacity() {
        let trace = section53_trace(9, 10);
        for policy in PolicyKind::ALL {
            let cfg = SimConfig {
                nodes: 4,
                capacity: 20,
                policy,
                ..Default::default()
            };
            let r = simulate(&cfg, &trace);
            assert_eq!(r.requests, 1600, "{policy}");
            assert!(r.hits() + r.misses == 1600, "{policy}");
            assert!(r.evictions > 0, "{policy} should evict at capacity 20");
        }
    }

    #[test]
    fn random_routing_is_deterministic_per_seed() {
        let trace = section53_trace(9, 10);
        let cfg = |seed| SimConfig {
            nodes: 4,
            routing: Routing::Random(seed),
            ..Default::default()
        };
        assert_eq!(simulate(&cfg(5), &trace), simulate(&cfg(5), &trace));
        assert_ne!(simulate(&cfg(5), &trace), simulate(&cfg(6), &trace));
    }

    #[test]
    fn partitioned_matches_replicated_hits_with_fewer_update_messages() {
        let trace = section53_trace(53, 10);
        let mut prev_ratio = 0.0_f64;
        for nodes in [2usize, 4, 8, 16] {
            let repl = simulate(
                &SimConfig {
                    nodes,
                    capacity: 2000,
                    ..Default::default()
                },
                &trace,
            );
            let part = simulate(
                &SimConfig {
                    nodes,
                    capacity: 2000,
                    directory: swala_cache::DirectoryKind::Partitioned,
                    ..Default::default()
                },
                &trace,
            );
            // Idealized network (delay 0): every notice is visible by the
            // next request in both families, so caching behaviour — and
            // therefore the §5.3 hit counts — must be identical.
            assert_eq!(part.hits(), repl.hits(), "{nodes} nodes");
            assert_eq!(part.misses, repl.misses, "{nodes} nodes");
            assert_eq!(part.local_hits, repl.local_hits, "{nodes} nodes");

            // Replicated pays N−1 messages per insert/delete notice;
            // partitioned pays at most one (zero for self-homed keys).
            let notices = repl.misses + repl.evictions;
            assert_eq!(repl.dir_update_msgs, notices * (nodes as u64 - 1));
            assert!(
                part.dir_update_msgs <= notices,
                "{nodes} nodes: partitioned sent {} updates for {} notices",
                part.dir_update_msgs,
                notices
            );
            assert_eq!(repl.dir_lookups, 0);

            // The update-cost gap is the crossover: it must widen
            // monotonically with cluster size.
            let ratio = repl.dir_update_msgs as f64 / part.dir_update_msgs.max(1) as f64;
            assert!(
                ratio > prev_ratio,
                "{nodes} nodes: ratio {ratio} did not grow past {prev_ratio}"
            );
            prev_ratio = ratio;
        }
    }

    #[test]
    fn partitioned_wire_bytes_at_least_four_times_cheaper_at_eight_nodes() {
        let trace = section53_trace(7, 10);
        let mk = |directory| SimConfig {
            nodes: 8,
            capacity: 2000,
            directory,
            ..Default::default()
        };
        let repl = simulate(&mk(swala_cache::DirectoryKind::Replicated), &trace);
        let part = simulate(&mk(swala_cache::DirectoryKind::Partitioned), &trace);
        assert!(repl.dir_update_bytes > 0);
        assert!(
            repl.dir_update_bytes >= 4 * part.dir_update_bytes,
            "replicated {} bytes vs partitioned {} bytes",
            repl.dir_update_bytes,
            part.dir_update_bytes
        );
        // Partitioned trades update fan-out for per-miss home lookups.
        assert!(part.dir_lookups > 0);
    }

    #[test]
    fn partitioned_delay_still_produces_false_misses() {
        // A huge delay means the home never learns of any insert before
        // the repeat access: every cross-node repeat is a false miss in
        // both families.
        let trace = section53_trace(21, 4);
        let mk = |directory| SimConfig {
            nodes: 4,
            capacity: 2000,
            broadcast_delay: 100_000,
            directory,
            ..Default::default()
        };
        let repl = simulate(&mk(swala_cache::DirectoryKind::Replicated), &trace);
        let part = simulate(&mk(swala_cache::DirectoryKind::Partitioned), &trace);
        assert!(repl.false_misses > 0);
        assert!(part.false_misses > 0);
        assert_eq!(repl.remote_hits, 0);
        // Self-homed inserts are visible at the home synchronously (they
        // never cross the wire), so a home node's own copies remain
        // discoverable no matter the delay: partitioned false-misses at
        // most match replicated's and some become remote hits instead.
        assert!(part.false_misses <= repl.false_misses);
    }

    #[test]
    fn saved_plus_paid_equals_total_dynamic_cost() {
        let trace = section53_trace(11, 10);
        let cfg = SimConfig {
            nodes: 4,
            capacity: 2000,
            ..Default::default()
        };
        let r = simulate(&cfg, &trace);
        let (_, total) = trace.dynamic_stats();
        assert_eq!(r.exec_micros + r.saved_micros, total);
    }
}
