//! The simulation engine. Each node is a live [`CacheDirectory`] (the
//! server's classification, hit bookkeeping, victim index and eviction),
//! each request runs the server's [`Flow`] (Figure 2's decisions) and
//! each notice is a [`RemoteUpdate`] applied as the cache daemon applies
//! it. The engine adds only what the network would: request routing,
//! notice delay and wire-cost counting.

use crate::model::{Routing, SimConfig, SimResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use swala_cache::flow::class::{LOCAL_HIT, MISS, REMOTE_HIT};
use swala_cache::flow::{Event, Flow, Step};
use swala_cache::Classification::{Local, NotCached, Remote};
use swala_cache::{BodyTier, CacheDirectory, CacheKey, EntryMeta, NodeId, Placement, RemoteUpdate};
use swala_workload::{RequestKind, Trace};

/// A payload-byte estimate for `update`: its key, plus an allowance for
/// the rest of an `InsertNotice` (the entry's metadata) or `DeleteNotice`
/// (the owner) that the sim tables were produced with, not the live size.
fn notice_bytes(update: &RemoteUpdate) -> u64 {
    let overhead = match update {
        RemoteUpdate::Insert(_) => 48,
        RemoteUpdate::Delete { .. } => 16,
    };
    update.key().as_str().len() as u64 + overhead
}

/// Replay `trace` through a simulated cluster.
///
/// Requests are replayed one at a time in trace order (the §5.3
/// experiments are closed-loop and count events, so sequential replay
/// loses nothing). A notice sent at request `t` is visible from request
/// `t + 1 + broadcast_delay`: delay 0 is the idealized next-request
/// visibility, and larger delays widen §4.2's false-miss/false-hit window.
pub fn simulate(cfg: &SimConfig, trace: &Trace) -> SimResult {
    assert!(cfg.nodes >= 1);
    assert!(cfg.capacity >= 1);
    let dirs: Vec<CacheDirectory> = (0..cfg.nodes)
        .map(|i| CacheDirectory::with_policy(cfg.nodes, NodeId(i as u16), cfg.policy))
        .collect();
    // Notices in flight, in send order: (visible from, recipient, update).
    // One delay for every notice keeps the queue sorted by due time.
    let mut pending: VecDeque<(u64, usize, RemoteUpdate)> = VecDeque::new();
    let mut result = SimResult::default();
    // The live cluster's placement rule (same ring), so simulated key
    // placement is exactly the live placement.
    let placement = Placement::new(cfg.directory, cfg.nodes);
    let mut route_rng = match cfg.routing {
        Routing::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        Routing::RoundRobin => None,
    };

    for (t, req) in trace.requests.iter().enumerate() {
        let t = t as u64;
        result.requests += 1;
        while pending.front().is_some_and(|&(due, ..)| due <= t) {
            let (_, to, update) = pending.pop_front().expect("front checked");
            dirs[to].apply_updates(vec![update]);
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
        let me = NodeId(here as u16);
        let key = CacheKey::new(&req.target);
        // A stand-alone node is its keys' only home: its miss is final.
        let homes = match cfg.cooperative {
            true => placement.homes(&key),
            false => std::slice::from_ref(&me),
        };
        let in_flight = false;
        let mut event = match dirs[here].classify_for_hit(&key, || t) {
            Local(_) => Event::LocalHit(BodyTier::Memory),
            Remote(EntryMeta { owner, .. }) => Event::RemoteHit { owner, in_flight },
            NotCached => Event::Miss { homes },
        };
        let (mut flow, mut outbox) = (Flow::new(me), Vec::new());
        loop {
            let (step, marks) = flow.next(event);
            event = match step {
                Step::Serve { class, .. } => {
                    match class {
                        Some(LOCAL_HIT) => result.local_hits += 1,
                        Some(REMOTE_HIT) => result.remote_hits += 1,
                        _ => break,
                    }
                    result.saved_micros += cost;
                    break;
                }
                // One round trip, answered from the home's table.
                Step::AskHome { home } => {
                    result.dir_lookups += 1;
                    let answer = dirs[home.index()].classify(&key).into_meta();
                    Event::Home(answer.map(|meta| meta.owner))
                }
                Step::Fetch { owner, .. } => match dirs[owner.index()].record_hit(owner, &key, t) {
                    true => Event::Hit,
                    false => Event::Gone,
                },
                Step::Wait => unreachable!("a sequential replay has no flights"),
                Step::Execute { class, .. } => {
                    // A peer's own table has the entry, but its insert
                    // notice has not arrived: §4.2's false miss.
                    let held =
                        |i: usize| i != here && dirs[i].get(NodeId(i as u16), &key).is_some();
                    if class == MISS && cfg.cooperative && (0..cfg.nodes).any(held) {
                        result.false_misses += 1;
                    }
                    result.misses += 1;
                    result.exec_micros += cost;
                    let meta = EntryMeta::new(key.clone(), me, 1024, "text/html", cost, None, t);
                    outbox.push(RemoteUpdate::Insert(dirs[here].insert_fresh(meta)));
                    let owner = me;
                    for m in dirs[here].evict_to_capacity(cfg.capacity).victims {
                        result.evictions += 1;
                        outbox.push(RemoteUpdate::Delete { owner, key: m.key });
                    }
                    Event::Inserted
                }
                Step::Announce => Event::Done,
                Step::Repair { owner } => {
                    if marks.false_hit {
                        result.false_hits += 1;
                        dirs[here].remove(owner, &key);
                    }
                    let key = key.clone();
                    outbox.push(RemoteUpdate::Delete { owner, key });
                    Event::Done
                }
            };
        }

        // To each of the key's homes but this node: N−1 peers replicated,
        // the one home partitioned (none when the sender is the home).
        let due = t + 1 + cfg.broadcast_delay;
        for update in outbox.into_iter().filter(|_| cfg.cooperative) {
            let bytes = notice_bytes(&update);
            for &to in placement.homes(update.key()).iter().filter(|&&n| n != me) {
                result.dir_update_msgs += 1;
                result.dir_update_bytes += bytes;
                pending.push_back((due, to.index(), update.clone()));
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
        // t3: id1 → node1: node1's replica has id1@node0 (insert notice from
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
