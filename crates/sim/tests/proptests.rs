//! Property tests for the simulator:
//!
//! * a single-node simulation must agree exactly with an independent
//!   reference LRU implementation (oracle test);
//! * conservation laws hold on any trace and configuration;
//! * zero broadcast delay ⇒ zero false misses and zero false hits;
//! * zero broadcast delay ⇒ the partitioned directory caches exactly
//!   what the replicated one does, for fewer update messages;
//! * determinism.
//!
//! Every multi-node property runs under both directory organisations.

use proptest::prelude::*;
use swala_cache::{DirectoryKind, PolicyKind};
use swala_sim::{simulate, Routing, SimConfig};
use swala_workload::{Trace, TraceRequest};

fn directory_strategy() -> impl Strategy<Value = DirectoryKind> {
    prop_oneof![
        Just(DirectoryKind::Replicated),
        Just(DirectoryKind::Partitioned)
    ]
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u8..40, 1u16..100), 1..400).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(id, cost)| TraceRequest::dynamic(id as u64, cost as u64 * 1000, 1))
                .collect(),
        )
    })
}

/// Textbook LRU cache returning its hit count for an id stream.
fn reference_lru_hits(ids: &[u64], capacity: usize) -> u64 {
    let mut stack: Vec<u64> = Vec::new();
    let mut hits = 0;
    for &id in ids {
        match stack.iter().position(|&x| x == id) {
            Some(pos) => {
                hits += 1;
                stack.remove(pos);
                stack.insert(0, id);
            }
            None => {
                stack.insert(0, id);
                stack.truncate(capacity);
            }
        }
    }
    hits
}

fn ids_of(trace: &Trace) -> Vec<u64> {
    trace
        .requests
        .iter()
        .map(|r| {
            r.target
                .split("id=")
                .nth(1)
                .and_then(|s| s.split('&').next())
                .and_then(|s| s.parse().ok())
                .expect("dynamic target")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_node_lru_matches_reference(trace in trace_strategy(), capacity in 1usize..30) {
        let sim = simulate(
            &SimConfig { nodes: 1, capacity, policy: PolicyKind::Lru, ..Default::default() },
            &trace,
        );
        let oracle = reference_lru_hits(&ids_of(&trace), capacity);
        prop_assert_eq!(sim.hits(), oracle);
        prop_assert_eq!(sim.remote_hits, 0);
    }

    #[test]
    fn conservation_laws(
        trace in trace_strategy(),
        nodes in 1usize..6,
        capacity in 1usize..30,
        cooperative in any::<bool>(),
        delay in 0u64..8,
        directory in directory_strategy(),
    ) {
        let r = simulate(
            &SimConfig {
                nodes,
                capacity,
                cooperative,
                broadcast_delay: delay,
                directory,
                ..Default::default()
            },
            &trace,
        );
        // Every request is exactly one of {hit, miss}.
        prop_assert_eq!(r.hits() + r.misses, trace.len() as u64);
        // Paid + saved = total work in the trace.
        let (_, total) = trace.dynamic_stats();
        prop_assert_eq!(r.exec_micros + r.saved_micros, total);
        // Anomalies only exist in cooperative mode.
        if !cooperative {
            prop_assert_eq!(r.false_misses, 0);
            prop_assert_eq!(r.false_hits, 0);
            prop_assert_eq!(r.remote_hits, 0);
        }
        // Evictions can never exceed insertions (= misses).
        prop_assert!(r.evictions <= r.misses);
    }

    #[test]
    fn zero_delay_has_no_anomalies(
        trace in trace_strategy(),
        nodes in 1usize..6,
        capacity in 1usize..30,
        directory in directory_strategy(),
    ) {
        let r = simulate(
            &SimConfig { nodes, capacity, broadcast_delay: 0, directory, ..Default::default() },
            &trace,
        );
        prop_assert_eq!(r.false_misses, 0, "notices are visible by the next request");
        // False hits require a delete racing a stale insert notice; with
        // delay 0 both propagate before the next request.
        prop_assert_eq!(r.false_hits, 0);
    }

    #[test]
    fn zero_delay_partitioned_caches_like_replicated(
        trace in trace_strategy(),
        nodes in 1usize..6,
        capacity in 1usize..30,
    ) {
        for policy in PolicyKind::ALL {
            let mk = |directory| SimConfig {
                nodes,
                capacity,
                policy,
                broadcast_delay: 0,
                directory,
                ..Default::default()
            };
            let repl = simulate(&mk(DirectoryKind::Replicated), &trace);
            let part = simulate(&mk(DirectoryKind::Partitioned), &trace);
            // Every notice lands before the next request in both
            // families, so they cache exactly the same entries.
            prop_assert_eq!(part.hits(), repl.hits(), "{}", policy);
            prop_assert_eq!(part.misses, repl.misses, "{}", policy);
            prop_assert_eq!(part.local_hits, repl.local_hits, "{}", policy);
            prop_assert_eq!(part.evictions, repl.evictions, "{}", policy);
            // Replicated pays N−1 messages per notice, partitioned at
            // most one (none for keys homed at the sender).
            let notices = repl.misses + repl.evictions;
            prop_assert_eq!(repl.dir_update_msgs, notices * (nodes as u64 - 1), "{}", policy);
            prop_assert!(part.dir_update_msgs <= notices, "{}", policy);
        }
    }

    #[test]
    fn cooperative_never_fewer_hits_than_standalone_at_zero_delay(
        trace in trace_strategy(),
        nodes in 2usize..6,
    ) {
        // With ample capacity (no eviction interference), cooperation can
        // only add remote hits on top of stand-alone behaviour.
        let coop = simulate(
            &SimConfig { nodes, capacity: 10_000, cooperative: true, ..Default::default() },
            &trace,
        );
        let alone = simulate(
            &SimConfig { nodes, capacity: 10_000, cooperative: false, ..Default::default() },
            &trace,
        );
        prop_assert!(coop.hits() >= alone.hits());
    }

    #[test]
    fn deterministic(
        trace in trace_strategy(),
        seed in any::<u64>(),
        directory in directory_strategy(),
    ) {
        let cfg = SimConfig {
            nodes: 3,
            capacity: 16,
            routing: Routing::Random(seed),
            directory,
            ..Default::default()
        };
        prop_assert_eq!(simulate(&cfg, &trace), simulate(&cfg, &trace));
    }

    #[test]
    fn all_policies_satisfy_conservation(trace in trace_strategy()) {
        for policy in PolicyKind::ALL {
            let r = simulate(
                &SimConfig { nodes: 2, capacity: 8, policy, ..Default::default() },
                &trace,
            );
            prop_assert_eq!(r.hits() + r.misses, trace.len() as u64, "{}", policy);
        }
    }
}
