//! Cluster bring-up and coordination.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{BoundSwala, ServerOptions, SwalaServer};
use swala_cache::{CacheRules, NodeId, PolicyKind};
use swala_cgi::{CpuGate, GatedProgram, ProgramRegistry, SimulatedProgram, WorkKind};
use swala_proto::FaultInjector;

/// Configuration for a whole cluster (uniform across nodes, as in the
/// paper's experiments — "the CPU power is roughly equivalent on all
/// nodes").
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Cooperative caching on (`true`) or the no-cache baseline.
    pub caching: bool,
    /// Per-node cache capacity in entries.
    pub capacity: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Request threads per node.
    pub pool_size: usize,
    /// Cacheability rules (shared by all nodes).
    pub rules: CacheRules,
    /// Purge-daemon interval.
    pub purge_interval: Duration,
    /// Docroot served by every node (e.g. the WebStone files).
    pub docroot: Option<PathBuf>,
    /// Base directory for per-node disk stores; `None` = memory stores.
    pub cache_dir_base: Option<PathBuf>,
    /// Simulated-CGI work kind. `Sleep` lets large clusters run on few
    /// cores without CPU contention skew; `Spin` is faithful to the
    /// paper's CPU-bound workload.
    pub work: WorkKind,
    /// When set, each node's CGI executions pass through a per-node
    /// [`CpuGate`] with this many slots, restoring the paper's
    /// one-CPU-per-node resource model on any host (see swala-cgi::gate).
    pub cores_per_node: Option<usize>,
    /// Shared fault injector threaded into every node's transport seams
    /// (chaos tests); `None` = fault-free cluster.
    pub faults: Option<Arc<FaultInjector>>,
    /// Remote-fetch attempts per request (1 = no retry).
    pub fetch_retries: u32,
    /// Base backoff between fetch retries.
    pub fetch_backoff: Duration,
    /// Consecutive fetch failures before a peer is quarantined.
    pub quarantine_after: u32,
    /// How often a quarantined peer is probed by live traffic.
    pub probe_interval: Duration,
    /// Per-node byte budget for the in-memory body tier; 0 disables it.
    pub mem_cache_bytes: usize,
    /// Warm fetch connections kept per peer; 0 dials on every fetch.
    pub fetch_pool_size: usize,
    /// Single-flight coalescing of identical concurrent misses and
    /// remote fetches; off = paper-faithful re-runs.
    pub coalesce: bool,
    /// Bounded wait before a coalesced miss falls back to executing.
    pub coalesce_wait: Duration,
    /// Telemetry (histograms + request tracing) on every node.
    pub obs_enabled: bool,
    /// Completed traces each node retains for `/swala-traces`.
    pub trace_ring: usize,
    /// Heat-sketch capacity (hot keys tracked per node); 0 disables.
    pub hotkeys: usize,
    /// Slow-trace exemplars retained per outcome class; 0 disables.
    pub slow_traces: usize,
    /// Directory organization on every node (replicated broadcast or
    /// consistent-hash partitioned). Defaults to the process default,
    /// which honors `SWALA_DIRECTORY`.
    pub directory: swala_cache::DirectoryKind,
    /// Virtual nodes per member on the consistent-hash ring.
    pub ring_vnodes: usize,
    /// Body-store layout on every node (one file per entry, or the
    /// crash-safe segment log). Defaults to the process default, which
    /// honors `SWALA_STORE`. Only matters with `cache_dir_base` set.
    pub store: swala_cache::StoreKind,
    /// Sync body-store writes before acking (durability) on every node.
    pub fsync: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            caching: true,
            capacity: 2000,
            policy: PolicyKind::Lru,
            pool_size: 8,
            rules: CacheRules::allow_all(),
            purge_interval: Duration::from_secs(2),
            docroot: None,
            cache_dir_base: None,
            work: WorkKind::Sleep,
            cores_per_node: None,
            faults: None,
            fetch_retries: 3,
            fetch_backoff: Duration::from_millis(25),
            quarantine_after: 3,
            probe_interval: Duration::from_secs(5),
            mem_cache_bytes: ServerOptions::default().mem_cache_bytes,
            fetch_pool_size: ServerOptions::default().fetch_pool_size,
            coalesce: ServerOptions::default().coalesce,
            coalesce_wait: ServerOptions::default().coalesce_wait,
            obs_enabled: ServerOptions::default().obs_enabled,
            trace_ring: ServerOptions::default().trace_ring,
            hotkeys: ServerOptions::default().hotkeys,
            slow_traces: ServerOptions::default().slow_traces,
            directory: ServerOptions::default().directory,
            ring_vnodes: ServerOptions::default().ring_vnodes,
            store: ServerOptions::default().store,
            fsync: ServerOptions::default().fsync,
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
        let bounds: Vec<BoundSwala> = (0..cfg.nodes)
            .map(|i| {
                let options = ServerOptions {
                    node: NodeId(i as u16),
                    num_nodes: cfg.nodes,
                    pool_size: cfg.pool_size,
                    capacity: cfg.capacity,
                    policy: cfg.policy,
                    rules: cfg.rules.clone(),
                    caching_enabled: cfg.caching,
                    purge_interval: cfg.purge_interval,
                    docroot: cfg.docroot.clone(),
                    cache_dir: cfg
                        .cache_dir_base
                        .as_ref()
                        .map(|base| base.join(format!("node{i}"))),
                    server_name: format!("Swala/0.1 (node {i}/{})", cfg.nodes),
                    faults: cfg.faults.clone(),
                    fetch_retries: cfg.fetch_retries,
                    fetch_backoff: cfg.fetch_backoff,
                    quarantine_after: cfg.quarantine_after,
                    probe_interval: cfg.probe_interval,
                    mem_cache_bytes: cfg.mem_cache_bytes,
                    fetch_pool_size: cfg.fetch_pool_size,
                    coalesce: cfg.coalesce,
                    coalesce_wait: cfg.coalesce_wait,
                    obs_enabled: cfg.obs_enabled,
                    trace_ring: cfg.trace_ring,
                    hotkeys: cfg.hotkeys,
                    slow_traces: cfg.slow_traces,
                    directory: cfg.directory,
                    ring_vnodes: cfg.ring_vnodes,
                    store: cfg.store,
                    fsync: cfg.fsync,
                    ..Default::default()
                };
                BoundSwala::bind(options, gated_registry(cfg.work, cfg.cores_per_node))
            })
            .collect::<io::Result<_>>()?;
        let cache_addrs: Vec<Option<SocketAddr>> =
            bounds.iter().map(|b| Some(b.cache_addr())).collect();
        let servers = bounds
            .into_iter()
            .map(|b| b.start(cache_addrs.clone()))
            .collect::<io::Result<_>>()?;
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
    use swala_cache::{CacheKey, DirectoryKind, EntryMeta};

    #[test]
    fn four_node_cluster_cooperates() {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 4,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(cluster.len(), 4);

        // Warm node 0 with three entries.
        let targets: Vec<String> = (0..3)
            .map(|i| format!("/cgi-bin/adl?id={i}&ms=0"))
            .collect();
        cluster.warm(0, &targets).unwrap();
        // Every node's directory view must show the 3 cluster-wide entries.
        assert!(cluster.wait_for_directory_convergence(3, Duration::from_secs(5)));

        // Every other node now serves them as remote hits.
        for n in 1..4 {
            let mut client = HttpClient::new(cluster.node(n).http_addr());
            let resp = client.get(&targets[0]).unwrap();
            assert_eq!(
                resp.headers.get("X-Swala-Cache"),
                Some("remote-hit"),
                "node {n}"
            );
        }
        assert_eq!(cluster.total_cache_stat(|s| s.remote_hits), 3);
        cluster.shutdown();
    }

    #[test]
    fn partitioned_cluster_cooperates() {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 4,
            directory: DirectoryKind::Partitioned,
            ..Default::default()
        })
        .unwrap();
        let targets: Vec<String> = (0..3)
            .map(|i| format!("/cgi-bin/adl?id={i}&ms=0"))
            .collect();
        cluster.warm(0, &targets).unwrap();
        assert!(cluster.wait_for_directory_convergence(3, Duration::from_secs(5)));
        // Inserts were announced to their key's home only: at most one
        // notice each (none when the owner is the home).
        assert!(cluster.total_cache_stat(|s| s.broadcasts_sent) <= 3);

        // Every other node still serves the warm entries as remote hits,
        // resolving through the home node where needed.
        for n in 1..4 {
            let mut client = HttpClient::new(cluster.node(n).http_addr());
            let resp = client.get(&targets[0]).unwrap();
            assert_eq!(
                resp.headers.get("X-Swala-Cache"),
                Some("remote-hit"),
                "node {n}"
            );
        }
        assert_eq!(cluster.total_cache_stat(|s| s.remote_hits), 3);
        cluster.shutdown();
    }

    #[test]
    fn no_cache_cluster_has_empty_directories() {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            caching: false,
            ..Default::default()
        })
        .unwrap();
        cluster
            .warm(0, &["/cgi-bin/adl?id=1&ms=0".to_string()])
            .unwrap();
        assert_eq!(cluster.node(0).manager().directory().total_len(), 0);
        assert_eq!(cluster.total_cache_stat(|s| s.inserts), 0);
        cluster.shutdown();
    }

    #[test]
    fn single_node_cluster_works() {
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 1,
            ..Default::default()
        })
        .unwrap();
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
        for directory in [DirectoryKind::Replicated, DirectoryKind::Partitioned] {
            let cluster = SwalaCluster::start(&ClusterConfig {
                nodes: 2,
                directory,
                ..Default::default()
            })
            .unwrap();
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
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            ..Default::default()
        })
        .unwrap();
        // Nothing was inserted; expecting entries must time out.
        assert!(!cluster.wait_for_directory_convergence(99, Duration::from_millis(100)));
        cluster.shutdown();
    }
}
