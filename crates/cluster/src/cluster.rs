//! Cluster bring-up and coordination.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{ServerOptions, SwalaServer};
use swala_cgi::{CpuGate, GatedProgram, ProgramRegistry, SimulatedProgram, WorkKind};

/// Configuration for a whole cluster: uniform across nodes, as in the
/// paper's experiments ("the CPU power is roughly equivalent on all
/// nodes"), so one [`ServerOptions`] template serves every node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Every node's options; `node` and `num_nodes` are set per node.
    /// When `cache_dir` is set it is the base directory that holds each
    /// node's `node{i}` store directory.
    pub node: ServerOptions,
    /// Simulated-CGI work kind. `Sleep` lets large clusters run on few
    /// cores without CPU contention skew; `Spin` is faithful to the
    /// paper's CPU-bound workload.
    pub work: WorkKind,
    /// When set, each node's CGI executions pass through a per-node
    /// [`CpuGate`] with this many slots, restoring the paper's
    /// one-CPU-per-node resource model on any host (see swala-cgi::gate).
    pub cores_per_node: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            node: ServerOptions {
                pool_size: 8,
                ..Default::default()
            },
            work: WorkKind::Sleep,
            cores_per_node: None,
        }
    }
}

/// The standard program registry every cluster node runs: the paper's
/// `nullcgi` plus the trace-driven `adl` program.
pub fn standard_registry(work: WorkKind) -> ProgramRegistry {
    gated_registry(work, None)
}

/// [`standard_registry`] with every program routed through a per-node
/// CPU gate when `cores` is set.
pub fn gated_registry(work: WorkKind, cores: Option<usize>) -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    let mut programs: Vec<Arc<dyn swala_cgi::Program>> = vec![
        Arc::new(swala_cgi::null_cgi()),
        Arc::new(SimulatedProgram::trace_driven("adl", work)),
    ];
    if let Some(cores) = cores {
        let gate = CpuGate::new(cores);
        programs = programs
            .into_iter()
            .map(|p| GatedProgram::wrap(p, Arc::clone(&gate)))
            .collect();
    }
    for p in programs {
        registry.register(p);
    }
    registry
}

/// Whether the nodes own `expected_total` entries between them and every
/// directory holds exactly what the placement rule puts there — all
/// notices have landed.
pub fn directories_converged(servers: &[SwalaServer], expected_total: usize) -> bool {
    let owned: usize = servers
        .iter()
        .map(|s| s.manager().directory().len(s.manager().local_node()))
        .sum();
    owned == expected_total && directories_settled(servers)
}

/// Whether every node's directory holds exactly the entries the
/// placement rule puts there: for each other node, that node's own
/// entries whose homes include this one — none missing (a notice still in
/// flight) and none extra (a delete lost, or sent but not yet applied).
/// The same predicate for the replicated directory, where every node is
/// every key's home, and the partitioned one, where a key has one home.
fn directories_settled(servers: &[SwalaServer]) -> bool {
    servers.iter().all(|holder| {
        let here = holder.manager();
        let me = here.local_node();
        servers.iter().all(|owner| {
            let m = owner.manager();
            let o = m.local_node();
            if o == me {
                return true;
            }
            let due: Vec<_> = m
                .directory()
                .snapshot(o)
                .into_iter()
                .filter(|e| m.placement().homes(&e.key).contains(&me))
                .collect();
            here.directory().len(o) == due.len()
                && due
                    .iter()
                    .all(|e| here.directory().get(o, &e.key).is_some())
        })
    })
}

/// A running cluster of Swala nodes.
pub struct SwalaCluster {
    servers: Vec<SwalaServer>,
}

impl SwalaCluster {
    /// Bring up a cluster: bind every node, learn all cache addresses,
    /// then start the nodes fully wired to each other.
    pub fn start(cfg: &ClusterConfig) -> io::Result<SwalaCluster> {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
        let servers = swala::start_cluster(cfg.nodes, |id| {
            let options = ServerOptions {
                // `id` displays as `node{i}`.
                cache_dir: cfg.node.cache_dir.as_ref().map(|b| b.join(id.to_string())),
                ..cfg.node.clone()
            };
            (options, gated_registry(cfg.work, cfg.cores_per_node))
        })?;
        Ok(SwalaCluster { servers })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True for a zero-node cluster (cannot be constructed; for clippy).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// One node.
    pub fn node(&self, i: usize) -> &SwalaServer {
        &self.servers[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SwalaServer] {
        &self.servers
    }

    /// Every node's HTTP address, in node order.
    pub fn http_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.http_addr()).collect()
    }

    /// Every node's cache-protocol address, in node order.
    pub fn cache_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.cache_addr()).collect()
    }

    /// Sum of a per-node statistic across the cluster.
    pub fn total_cache_stat(&self, f: impl Fn(&swala_cache::stats::StatsSnapshot) -> u64) -> u64 {
        self.servers.iter().map(|s| f(&s.cache_stats())).sum()
    }

    /// Wait until the directories have converged on `expected_total`
    /// entries ([`directories_converged`]). Returns whether that happened
    /// within `timeout`.
    pub fn wait_for_directory_convergence(&self, expected_total: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if directories_converged(&self.servers, expected_total) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Wait until the cluster's notice traffic has settled: every node's
    /// broadcast queues are flushed and every directory holds exactly
    /// what the placement rule puts there, with the same entry counts
    /// across two consecutive polls. Unlike
    /// [`wait_for_directory_convergence`](Self::wait_for_directory_convergence)
    /// this needs no expected count, so replay harnesses can call it
    /// between requests without tracking insertions themselves. Returns
    /// whether the cluster settled within `timeout`.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut last_agreed: Option<usize> = None;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let flushed = self.servers.iter().all(|s| s.flush_broadcasts(remaining));
            let agreed = flushed && directories_settled(&self.servers);
            let signature = self
                .servers
                .iter()
                .map(|s| s.manager().directory().total_len())
                .sum::<usize>();
            if agreed && last_agreed == Some(signature) {
                return true;
            }
            last_agreed = if agreed { Some(signature) } else { None };
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Issue `targets` against node `node` once each (cache warm-up, as
    /// in §5.1: "The cache on the first node is initially warmed").
    pub fn warm(&self, node: usize, targets: &[String]) -> io::Result<()> {
        let mut client = swala::HttpClient::new(self.servers[node].http_addr());
        for t in targets {
            client
                .get(t)
                .map_err(|e| io::Error::other(format!("warm-up GET {t} failed: {e}")))?;
        }
        Ok(())
    }

    /// Shut every node down.
    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
    }

    /// Dismantle the cluster into its servers — used by partial-failure
    /// tests that crash individual nodes while others keep serving.
    pub fn into_nodes(self) -> Vec<SwalaServer> {
        self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala::HttpClient;
    use swala_cache::{CacheKey, DirectoryKind, EntryMeta, NodeId};

    fn start(nodes: usize, directory: DirectoryKind) -> SwalaCluster {
        let mut cfg = ClusterConfig {
            nodes,
            ..Default::default()
        };
        cfg.node.directory = directory;
        SwalaCluster::start(&cfg).unwrap()
    }

    #[test]
    fn four_node_cluster_cooperates() {
        for directory in DirectoryKind::ALL {
            let cluster = start(4, directory);
            assert_eq!(cluster.len(), 4);

            // Warm node 0 with three entries.
            let targets: Vec<String> = (0..3)
                .map(|i| format!("/cgi-bin/adl?id={i}&ms=0"))
                .collect();
            cluster.warm(0, &targets).unwrap();
            // Every directory holds what the placement rule puts there.
            assert!(
                cluster.wait_for_directory_convergence(3, Duration::from_secs(5)),
                "{directory:?}"
            );
            // Replicated broadcasts every insert; partitioned sends it to
            // the key's home only, and not at all when the owner is the
            // home.
            let notices = cluster.total_cache_stat(|s| s.broadcasts_sent);
            match directory {
                DirectoryKind::Replicated => assert_eq!(notices, 3),
                DirectoryKind::Partitioned => assert!(notices <= 3, "{notices}"),
            }

            // Every other node now serves them as remote hits, resolving
            // through the key's home where its own table is silent.
            for n in 1..4 {
                let mut client = HttpClient::new(cluster.node(n).http_addr());
                let resp = client.get(&targets[0]).unwrap();
                assert_eq!(
                    resp.headers.get("X-Swala-Cache"),
                    Some("remote-hit"),
                    "{directory:?} node {n}"
                );
            }
            assert_eq!(
                cluster.total_cache_stat(|s| s.remote_hits),
                3,
                "{directory:?}"
            );
            cluster.shutdown();
        }
    }

    #[test]
    fn no_cache_cluster_has_empty_directories() {
        // One directory organization: with caching off there is no
        // directory traffic for the choice to shape.
        let mut cfg = ClusterConfig::default();
        cfg.node.caching_enabled = false;
        let cluster = SwalaCluster::start(&cfg).unwrap();
        cluster
            .warm(0, &["/cgi-bin/adl?id=1&ms=0".to_string()])
            .unwrap();
        assert_eq!(cluster.node(0).manager().directory().total_len(), 0);
        assert_eq!(cluster.total_cache_stat(|s| s.inserts), 0);
        cluster.shutdown();
    }

    #[test]
    fn single_node_cluster_works() {
        let cluster = start(1, DirectoryKind::Replicated);
        let mut client = HttpClient::new(cluster.node(0).http_addr());
        client.get("/cgi-bin/adl?id=9&ms=0").unwrap();
        let hit = client.get("/cgi-bin/adl?id=9&ms=0").unwrap();
        assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));
        cluster.shutdown();
    }

    #[test]
    fn an_entry_where_the_placement_puts_none_is_not_settled() {
        // A record node 0 does not own, planted at node 1 under node 0's
        // name — what a lost or not-yet-applied delete leaves behind. It
        // is extra wherever the key's homes are, so the cluster must not
        // read as settled in either directory organization.
        for directory in DirectoryKind::ALL {
            let cluster = start(2, directory);
            assert!(cluster.quiesce(Duration::from_secs(5)), "{directory:?}");
            let stale = EntryMeta::new(
                CacheKey::new("/cgi-bin/adl?id=stale&ms=0"),
                NodeId(0),
                4,
                "text/html",
                1000,
                None,
                1,
            );
            cluster
                .node(1)
                .manager()
                .directory()
                .insert(NodeId(0), stale);
            assert!(
                !cluster.quiesce(Duration::from_millis(200)),
                "{directory:?}"
            );
            assert!(
                !cluster.wait_for_directory_convergence(0, Duration::from_millis(200)),
                "{directory:?}"
            );
            cluster.shutdown();
        }
    }

    #[test]
    fn convergence_times_out_honestly() {
        for directory in DirectoryKind::ALL {
            let cluster = start(2, directory);
            // Nothing was inserted; expecting entries must time out.
            assert!(
                !cluster.wait_for_directory_convergence(99, Duration::from_millis(100)),
                "{directory:?}"
            );
            cluster.shutdown();
        }
    }
}
