//! Simulation configuration and results.

use swala_cache::{DirectoryKind, PolicyKind};

/// How requests are spread over the cluster's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Strict rotation, as a front-end sprayer (the paper's SWEB
    /// heritage) would do under uniform load.
    RoundRobin,
    /// Uniform random node per request, seeded.
    Random(u64),
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Per-node cache capacity in entries (the paper's "cache size").
    pub capacity: usize,
    /// Replacement policy (all nodes alike).
    pub policy: PolicyKind,
    /// Cooperative caching on, or §5.3's stand-alone mode where "each
    /// node caches what it receives and is unaware of any other node".
    pub cooperative: bool,
    /// Broadcast latency in *request ticks*: a notice sent at request
    /// `t` becomes visible to other nodes before request `t + delay`.
    /// `0` models an idealized instant network; larger values widen the
    /// §4.2 false-miss/false-hit window.
    pub broadcast_delay: u64,
    /// Request routing.
    pub routing: Routing,
    /// Directory organisation: the paper's replicated directory (every
    /// node hears every insert/delete) or the partitioned variant where
    /// a consistent-hash ring assigns each key one *home* node that is
    /// the single recipient of its updates and the oracle for lookups.
    pub directory: DirectoryKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 2,
            capacity: 2000,
            policy: PolicyKind::Lru,
            cooperative: true,
            broadcast_delay: 0,
            routing: Routing::RoundRobin,
            directory: DirectoryKind::Replicated,
        }
    }
}

/// Exact event counts from one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Requests replayed.
    pub requests: u64,
    /// Hits served from the receiving node's own cache.
    pub local_hits: u64,
    /// Hits served from a peer's cache (cooperative only).
    pub remote_hits: u64,
    /// Requests that executed because nothing usable was cached.
    pub misses: u64,
    /// Executions that a perfectly consistent directory would have
    /// avoided (the entry existed somewhere but was not yet visible).
    pub false_misses: u64,
    /// Remote fetches that found the entry already deleted.
    pub false_hits: u64,
    /// Entries evicted by the replacement policy.
    pub evictions: u64,
    /// Total execution time paid, in microseconds.
    pub exec_micros: u64,
    /// Execution time avoided by hits, in microseconds.
    pub saved_micros: u64,
    /// Directory-update messages put on the (simulated) wire: each
    /// insert/delete notice costs N−1 messages replicated, at most one
    /// partitioned (zero when the inserting node is the key's home).
    pub dir_update_msgs: u64,
    /// Estimated payload bytes of those update messages.
    pub dir_update_bytes: u64,
    /// Partitioned-mode directory lookups: a miss on a non-home node
    /// asks the key's home before deciding remote-hit vs execute.
    pub dir_lookups: u64,
}

impl SimResult {
    /// All hits.
    pub fn hits(&self) -> u64 {
        self.local_hits + self.remote_hits
    }

    /// Hits as a percentage of `upper_bound` (the trace's repeat count).
    pub fn pct_of_upper_bound(&self, upper_bound: u64) -> f64 {
        if upper_bound == 0 {
            0.0
        } else {
            100.0 * self.hits() as f64 / upper_bound as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_of_upper_bound() {
        let r = SimResult {
            local_hits: 30,
            remote_hits: 20,
            ..Default::default()
        };
        assert_eq!(r.hits(), 50);
        assert!((r.pct_of_upper_bound(100) - 50.0).abs() < 1e-12);
        assert_eq!(r.pct_of_upper_bound(0), 0.0);
    }
}
