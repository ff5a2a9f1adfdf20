//! Closed-loop queueing simulation — the time-domain model behind
//! Figure 4.
//!
//! The count simulator ([`crate::engine`]) answers *how many* hits a
//! configuration gets; this module answers *how long requests take*:
//! `C` closed-loop clients replay a trace against `N` single-CPU nodes,
//! misses occupy the owning node's CPU for the request's service time
//! (FCFS), and cache hits bypass the CPU entirely at a small constant
//! cost — precisely the §5.2 experiment, with virtual time instead of
//! wall-clock. Being deterministic and instantaneous, it extends
//! Figure 4 to node counts and loads the live harness cannot reach.
//!
//! The model: each client issues its next request the moment the
//! previous one completes (closed loop, like WebStone). A request routed
//! to node `n` first consults the cache (shared logic with the count
//! simulator's zero-delay semantics):
//!
//! * local hit → completes after `local_hit_micros`;
//! * remote hit → completes after `remote_hit_micros` (the owner's
//!   daemon serves it without occupying the CPU);
//! * miss → queues FCFS for node `n`'s CPU, holds it for the request's
//!   service time, then completes (and the result is cached at `n`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use swala_cache::{CacheKey, EntryMeta, NodeId, PolicyKind, VictimIndex};
use swala_workload::Trace;

/// Queueing-model parameters.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Closed-loop clients (the paper's "two clients × eight threads").
    pub clients: usize,
    /// Per-node cache capacity in entries.
    pub capacity: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cooperative caching on/off.
    pub cooperative: bool,
    /// Cost of serving a local cache hit, in microseconds.
    pub local_hit_micros: u64,
    /// Cost of serving a remote cache fetch, in microseconds.
    pub remote_hit_micros: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            nodes: 1,
            clients: 16,
            capacity: 2000,
            policy: PolicyKind::Lru,
            cooperative: true,
            // Figure 3's measured orders of magnitude: ~0.4 ms local,
            // ~2 ms remote at our scale; in paper-time both ≪ a CGI.
            local_hit_micros: 500,
            remote_hit_micros: 2_000,
        }
    }
}

/// Aggregate timing results of one queueing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueResult {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    /// Mean response time in microseconds of virtual time.
    pub mean_response_micros: f64,
    /// Median response time (microseconds of virtual time).
    pub p50_response_micros: u64,
    /// 95th-percentile response time (microseconds of virtual time).
    pub p95_response_micros: u64,
    /// Virtual makespan: when the last request completed.
    pub makespan_micros: u64,
}

impl QueueResult {
    /// Completed requests per virtual second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan_micros == 0 {
            0.0
        } else {
            self.requests as f64 / (self.makespan_micros as f64 / 1e6)
        }
    }
}

struct Node {
    cache: HashMap<CacheKey, EntryMeta>,
    victims: VictimIndex,
    /// Virtual time at which this node's CPU frees up.
    cpu_free_at: u64,
}

/// Run the closed-loop replay. Requests are handed to clients in trace
/// order; request `i` is routed to node `i % nodes`.
pub fn simulate_queueing(cfg: &QueueConfig, trace: &Trace) -> QueueResult {
    assert!(cfg.nodes >= 1 && cfg.clients >= 1 && cfg.capacity >= 1);
    let mut nodes: Vec<Node> = (0..cfg.nodes)
        .map(|_| Node {
            cache: HashMap::new(),
            victims: VictimIndex::new(cfg.policy),
            cpu_free_at: 0,
        })
        .collect();

    // Min-heap of client availability times; all free at t = 0.
    let mut clients: BinaryHeap<Reverse<u64>> = (0..cfg.clients).map(|_| Reverse(0)).collect();
    let mut result = QueueResult {
        requests: 0,
        hits: 0,
        misses: 0,
        mean_response_micros: 0.0,
        p50_response_micros: 0,
        p95_response_micros: 0,
        makespan_micros: 0,
    };
    let mut total_response: u64 = 0;
    let mut responses: Vec<u64> = Vec::with_capacity(trace.len());

    for (i, req) in trace.requests.iter().enumerate() {
        let Reverse(now) = clients.pop().expect("clients >= 1");
        let here = i % cfg.nodes;
        let key = CacheKey::new(&req.target);
        let seq = i as u64;

        // Zero-delay cache consultation (the count simulator's semantics).
        let done = if nodes[here].cache.contains_key(&key) {
            let node = &mut nodes[here];
            let entry = node.cache.get_mut(&key).expect("checked");
            node.victims.on_hit(entry, seq);
            result.hits += 1;
            now + cfg.local_hit_micros
        } else if cfg.cooperative && nodes.iter().any(|n| n.cache.contains_key(&key)) {
            // Remote hit: refresh the owner's recency, pay the fetch.
            let owner = nodes
                .iter()
                .position(|n| n.cache.contains_key(&key))
                .expect("just found");
            let peer = &mut nodes[owner];
            let entry = peer.cache.get_mut(&key).expect("checked");
            peer.victims.on_hit(entry, seq);
            result.hits += 1;
            now + cfg.remote_hit_micros
        } else {
            // Miss: queue for this node's CPU.
            result.misses += 1;
            let node = &mut nodes[here];
            let start = now.max(node.cpu_free_at);
            let done = start + req.service_micros;
            node.cpu_free_at = done;
            let mut meta = EntryMeta::new(
                key.clone(),
                NodeId(here as u16),
                1024,
                "text/html",
                req.service_micros,
                None,
                seq,
            );
            node.victims.on_insert(&mut meta, &node.cache);
            node.cache.insert(key, meta);
            while node.cache.len() > cfg.capacity {
                node.victims
                    .evict_one(&mut node.cache)
                    .expect("cache is non-empty");
            }
            done
        };

        result.requests += 1;
        total_response += done - now;
        responses.push(done - now);
        result.makespan_micros = result.makespan_micros.max(done);
        clients.push(Reverse(done));
    }
    if result.requests > 0 {
        result.mean_response_micros = total_response as f64 / result.requests as f64;
        responses.sort_unstable();
        let pct = |p: f64| responses[((responses.len() - 1) as f64 * p).round() as usize];
        result.p50_response_micros = pct(0.50);
        result.p95_response_micros = pct(0.95);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_workload::{synthesize_adl_trace, AdlTraceConfig, TraceRequest};

    fn uniform_trace(n: usize, unique: usize, micros: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| TraceRequest::dynamic((i % unique) as u64, micros, 1))
                .collect(),
        )
    }

    #[test]
    fn single_client_single_node_no_repeats_is_pure_service_time() {
        let trace = uniform_trace(10, 10, 1_000_000);
        let r = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 1,
                ..Default::default()
            },
            &trace,
        );
        assert_eq!(r.requests, 10);
        assert_eq!(r.misses, 10);
        assert!((r.mean_response_micros - 1_000_000.0).abs() < 1e-6);
        assert_eq!(r.makespan_micros, 10_000_000);
    }

    #[test]
    fn queueing_delay_grows_with_concurrency() {
        let trace = uniform_trace(64, 64, 1_000_000);
        let solo = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 1,
                ..Default::default()
            },
            &trace,
        );
        let crowded = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 16,
                ..Default::default()
            },
            &trace,
        );
        // 16 clients share one CPU: mean response ≈ 16× the service time.
        assert!(crowded.mean_response_micros > 8.0 * solo.mean_response_micros);
        // But the makespan (total work) is the same: CPU-bound.
        assert_eq!(crowded.makespan_micros, solo.makespan_micros);
    }

    #[test]
    fn more_nodes_cut_response_time_nearly_linearly() {
        let trace = uniform_trace(256, 256, 1_000_000);
        let one = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 16,
                ..Default::default()
            },
            &trace,
        );
        let eight = simulate_queueing(
            &QueueConfig {
                nodes: 8,
                clients: 16,
                ..Default::default()
            },
            &trace,
        );
        let speedup = one.mean_response_micros / eight.mean_response_micros;
        assert!((6.0..=9.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn caching_reduces_mean_response_on_adl_trace() {
        let trace = synthesize_adl_trace(&AdlTraceConfig::scaled_to(1000));
        for nodes in [1usize, 4, 8] {
            let coop = simulate_queueing(
                &QueueConfig {
                    nodes,
                    clients: 16,
                    cooperative: true,
                    ..Default::default()
                },
                &trace,
            );
            let nocache = simulate_queueing(
                &QueueConfig {
                    nodes,
                    clients: 16,
                    capacity: 1,
                    cooperative: false,
                    ..Default::default()
                },
                &trace,
            );
            assert!(
                coop.mean_response_micros < nocache.mean_response_micros,
                "{nodes} nodes: coop {} ≥ nocache {}",
                coop.mean_response_micros,
                nocache.mean_response_micros
            );
        }
    }

    #[test]
    fn hits_bypass_the_cpu_queue() {
        // One expensive unique request saturates the CPU; repeated hits
        // on an already-cached key must complete at hit cost regardless.
        let mut reqs = vec![TraceRequest::dynamic(1, 1_000, 1)]; // cache id 1
        reqs.push(TraceRequest::dynamic(2, 10_000_000, 1)); // hog the CPU
        for _ in 0..8 {
            reqs.push(TraceRequest::dynamic(1, 1_000, 1)); // all hits
        }
        let trace = Trace::new(reqs);
        let r = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 2,
                ..Default::default()
            },
            &trace,
        );
        assert_eq!(r.hits, 8);
        // Mean is dominated by the single 10s request spread over 10
        // requests, not by hits queueing behind it.
        assert!(
            r.mean_response_micros < 1_200_000.0,
            "{}",
            r.mean_response_micros
        );
    }

    #[test]
    fn percentiles_are_ordered_and_meaningful() {
        let trace = uniform_trace(64, 64, 1_000_000);
        let r = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 16,
                ..Default::default()
            },
            &trace,
        );
        assert!(r.p50_response_micros <= r.p95_response_micros);
        assert!(r.p95_response_micros as f64 >= r.mean_response_micros * 0.5);
        // With 16 clients on one CPU the p95 queueing delay is large.
        assert!(
            r.p95_response_micros >= 10_000_000,
            "{}",
            r.p95_response_micros
        );
    }

    #[test]
    fn deterministic() {
        let trace = synthesize_adl_trace(&AdlTraceConfig::scaled_to(500));
        let cfg = QueueConfig {
            nodes: 4,
            clients: 8,
            ..Default::default()
        };
        assert_eq!(
            simulate_queueing(&cfg, &trace),
            simulate_queueing(&cfg, &trace)
        );
    }

    #[test]
    fn throughput_accounting() {
        let trace = uniform_trace(10, 10, 1_000_000);
        let r = simulate_queueing(
            &QueueConfig {
                nodes: 1,
                clients: 1,
                ..Default::default()
            },
            &trace,
        );
        assert!((r.throughput_per_sec() - 1.0).abs() < 1e-9);
    }
}
