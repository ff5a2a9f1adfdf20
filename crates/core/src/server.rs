//! The Swala server: binds the pieces into one node.

use crate::config::ServerOptions;
use crate::handler::{NodeContext, FETCH_TIMEOUT};
use crate::monitor::SourceMonitor;
use crate::pool::RequestPool;
use crate::stats::{register_engine_stats, RequestStats, RequestStatsSnapshot};
use parking_lot::RwLock;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use swala_cache::{
    CacheManager, CacheManagerConfig, DiskStore, MemStore, NodeId, SegmentConfig, SegmentStore,
    Store, StoreKind, HOTKEYS,
};
use swala_cgi::ProgramRegistry;
use swala_obs::Telemetry;
use swala_proto::{
    default_dialer, BroadcastConfig, Broadcaster, CacheDaemons, FetchPool, HealthSnapshot,
    HealthTracker, PoolStats, RetryPolicy, DEFAULT_POOL_SIZE,
};

/// A node whose listeners are bound but whose daemons and pool have not
/// started — the point at which ephemeral port numbers become known, so a
/// cluster can collect every node's addresses before wiring broadcasters.
pub struct BoundSwala {
    options: ServerOptions,
    registry: ProgramRegistry,
    http_listener: TcpListener,
    cache_listener: TcpListener,
    http_addr: SocketAddr,
    cache_addr: SocketAddr,
}

impl BoundSwala {
    /// Bind both listeners.
    pub fn bind(options: ServerOptions, registry: ProgramRegistry) -> io::Result<BoundSwala> {
        let http_listener = TcpListener::bind(options.http_addr)?;
        let cache_listener = TcpListener::bind(options.cache_addr)?;
        let http_addr = http_listener.local_addr()?;
        let cache_addr = cache_listener.local_addr()?;
        Ok(BoundSwala {
            options,
            registry,
            http_listener,
            cache_listener,
            http_addr,
            cache_addr,
        })
    }

    /// HTTP address clients connect to.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Cache-protocol address peers connect to.
    pub fn cache_addr(&self) -> SocketAddr {
        self.cache_addr
    }

    /// Start the node. `peer_cache_addrs[i]` must hold node `i`'s
    /// cache-protocol address for every remote peer (this node's own slot
    /// is filled automatically; extra `None`s are tolerated).
    pub fn start(self, peer_cache_addrs: Vec<Option<SocketAddr>>) -> io::Result<SwalaServer> {
        let BoundSwala {
            options,
            registry,
            http_listener,
            cache_listener,
            http_addr,
            cache_addr,
        } = self;

        let store: Box<dyn Store> = match &options.cache_dir {
            Some(dir) => match options.store {
                StoreKind::Files => Box::new(DiskStore::open_with_fsync(dir, options.fsync)?),
                StoreKind::Segment => Box::new(SegmentStore::open_with(
                    dir,
                    SegmentConfig {
                        fsync: options.fsync,
                    },
                )?),
            },
            None => Box::new(MemStore::new()),
        };
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: options.num_nodes,
                local: options.node,
                capacity: options.capacity,
                policy: options.policy,
                rules: options.rules.clone(),
                mem_cache_bytes: options.mem_cache_bytes,
                coalesce: options.coalesce,
                directory: options.directory,
                // The heat sketch is part of the `obs off` honest
                // baseline: disabled entirely when telemetry is off.
                hotkeys: if options.obs_enabled { HOTKEYS } else { 0 },
                clock: options.clock.clone(),
                ..CacheManagerConfig::default()
            },
            store,
        ));
        if options.caching_enabled && options.recover_cache && options.cache_dir.is_some() {
            manager.recover_from_store();
        }

        let mut addrs = peer_cache_addrs;
        addrs.resize(options.num_nodes, None);
        addrs[options.node.index()] = Some(cache_addr);
        let peers: Vec<(NodeId, SocketAddr)> = addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != options.node.index())
            .filter_map(|(i, a)| a.map(|a| (NodeId(i as u16), a)))
            .collect();
        let mut broadcast_config = BroadcastConfig {
            clock: options.clock.clone(),
            ..BroadcastConfig::default()
        };
        if let Some(faults) = &options.faults {
            broadcast_config.connector = faults.connector(options.node);
        }
        let broadcaster = Arc::new(Broadcaster::with_config(
            options.node,
            peers,
            broadcast_config,
        ));

        // One registry + trace ring per node. Disabled telemetry keeps a
        // working (scrapeable) registry but never touches the clock on the
        // request path.
        let telemetry = if options.obs_enabled {
            Telemetry::new(options.node.0)
        } else {
            Telemetry::disabled(options.node.0)
        };
        let reg = telemetry.registry();
        let stats = Arc::new(RequestStats::new());
        stats.register_into(reg, "swala_http");
        let engine_stats = Arc::default();
        register_engine_stats(&engine_stats, reg);
        manager.register_into(reg);
        let accept_filter = options.faults.as_ref().map(|f| f.acceptor(options.node));
        let daemons = CacheDaemons::start_with_listener_observed(
            cache_listener,
            Arc::clone(&manager),
            Arc::clone(&broadcaster),
            accept_filter,
            Some(Arc::clone(&telemetry)),
        )?;

        let dialer = match &options.faults {
            Some(f) => f.dialer(options.node),
            None => default_dialer(),
        };

        let fetch_pool = Arc::new(FetchPool::new(dialer.clone(), DEFAULT_POOL_SIZE));
        // Late-join directory sync: pull every reachable peer's table so
        // this node starts with a warm directory instead of learning the
        // cluster's contents one notice at a time.
        if options.sync_on_join {
            for (i, addr) in addrs.iter().enumerate() {
                if i == options.node.index() {
                    continue;
                }
                let Some(addr) = addr else { continue };
                if let Ok((peer, entries)) = fetch_pool.sync(NodeId(i as u16), *addr, FETCH_TIMEOUT)
                {
                    manager.directory().load_snapshot(peer, entries);
                }
            }
        }

        let monitor = if options.monitors.is_empty() {
            None
        } else {
            Some(SourceMonitor::start(
                Arc::clone(&manager),
                Arc::clone(&broadcaster),
                options.monitors.clone(),
            ))
        };

        let access_log = match &options.access_log {
            Some(path) => Some(crate::accesslog::AccessLog::open_with(
                path,
                options.log_format,
            )?),
            None => None,
        };

        {
            // Fetch-pool and broadcaster internals expose their own
            // atomics; closures adapt them into registry counters.
            let reg = telemetry.registry();
            let p = Arc::clone(&fetch_pool);
            reg.register_counter(
                "swala_fetch_connects_opened",
                "Fetch-pool TCP connections opened",
                move || p.stats().connects_opened,
            );
            let p = Arc::clone(&fetch_pool);
            reg.register_counter(
                "swala_fetch_reuses",
                "Fetch-pool connection reuses",
                move || p.stats().reuses,
            );
            let p = Arc::clone(&fetch_pool);
            reg.register_counter(
                "swala_fetch_stale_drops",
                "Fetch-pool pooled connections dropped as stale",
                move || p.stats().stale_drops,
            );
            let b = Arc::clone(&broadcaster);
            reg.register_counter(
                "swala_broadcast_enqueued",
                "Cache notices enqueued for peers",
                move || b.counters().0,
            );
            let b = Arc::clone(&broadcaster);
            reg.register_counter(
                "swala_broadcast_dropped",
                "Cache notices dropped on full peer queues",
                move || b.counters().1,
            );
            let b = Arc::clone(&broadcaster);
            reg.register_counter(
                "swala_broadcast_frames",
                "Wire frames the delivered cache notices travelled in",
                move || b.frames(),
            );
            reg.register_histogram(
                "swala_notice_delay_microseconds",
                "Delay from a cache notice's enqueue to its write to the peer socket",
                Arc::clone(broadcaster.notice_delay()),
            );
            let b = Arc::clone(&broadcaster);
            reg.register_gauge_fn(
                "swala_notice_hold_microseconds",
                "Longest current hold over this node's notice links (500 = idle, 4000 = saturated)",
                move || b.max_hold().as_micros() as i64,
            );
        }

        // Cluster-scrape degradation counter: bumped whenever a peer's
        // stats pull fails and the merged view goes partial.
        let scrape_failures = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let f = Arc::clone(&scrape_failures);
            telemetry.registry().register_counter(
                "swala_cluster_scrape_failures",
                "Peer stats pulls that failed or were quarantine-skipped during a cluster scrape",
                move || f.load(std::sync::atomic::Ordering::Relaxed),
            );
        }

        let ctx = Arc::new(NodeContext {
            node: options.node,
            caching_enabled: options.caching_enabled,
            docroot: options.docroot.clone(),
            registry,
            manager: Arc::clone(&manager),
            broadcaster: Arc::clone(&broadcaster),
            cache_addrs: RwLock::new(addrs),
            stats,
            telemetry,
            http_port: http_addr.port(),
            access_log,
            fetch_pool,
            dialer,
            retry_policy: RetryPolicy {
                // Distinct per node so simultaneous retries against one
                // struggling peer don't arrive in lockstep.
                jitter_seed: options.node.0 as u64,
                ..RetryPolicy::default()
            },
            health: Arc::new(HealthTracker::new(options.clock.clone())),
            engine_stats,
            started: std::time::Instant::now(),
            scrape_failures,
        });

        let pool = RequestPool::start(http_listener, Arc::clone(&ctx), options.pool_size)?;

        Ok(SwalaServer {
            ctx,
            manager,
            daemons: Some(daemons),
            pool: Some(pool),
            monitor,
            http_addr,
            cache_addr,
        })
    }
}

/// Bring up an `n`-node cluster in this process: bind every node, so
/// each cache address is known, then start each node wired to all the
/// others. `node_for(id)` gives node `id`'s options and programs; its
/// `node` and `num_nodes` are set here.
pub fn start_cluster(
    n: usize,
    mut node_for: impl FnMut(NodeId) -> (ServerOptions, ProgramRegistry),
) -> io::Result<Vec<SwalaServer>> {
    let bounds: Vec<BoundSwala> = (0..n)
        .map(|i| {
            let node = NodeId(i as u16);
            let (options, registry) = node_for(node);
            let options = ServerOptions {
                node,
                num_nodes: n,
                ..options
            };
            BoundSwala::bind(options, registry)
        })
        .collect::<io::Result<_>>()?;
    let addrs: Vec<Option<SocketAddr>> = bounds.iter().map(|b| Some(b.cache_addr())).collect();
    bounds.into_iter().map(|b| b.start(addrs.clone())).collect()
}

/// A running Swala node.
pub struct SwalaServer {
    ctx: Arc<NodeContext>,
    manager: Arc<CacheManager>,
    daemons: Option<CacheDaemons>,
    pool: Option<RequestPool>,
    monitor: Option<SourceMonitor>,
    http_addr: SocketAddr,
    cache_addr: SocketAddr,
}

impl SwalaServer {
    /// Bind and start a stand-alone node (no peers) in one call.
    pub fn start_single(
        options: ServerOptions,
        registry: ProgramRegistry,
    ) -> io::Result<SwalaServer> {
        BoundSwala::bind(options, registry)?.start(Vec::new())
    }

    /// HTTP address clients connect to.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Cache-protocol address peers connect to.
    pub fn cache_addr(&self) -> SocketAddr {
        self.cache_addr
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.ctx.node
    }

    /// The cache manager (stats, directory inspection).
    pub fn manager(&self) -> &Arc<CacheManager> {
        &self.manager
    }

    /// Late-wire a peer's cache address (nodes started before the peer).
    pub fn set_peer_cache_addr(&self, node: NodeId, addr: SocketAddr) {
        let mut addrs = self.ctx.cache_addrs.write();
        if node.index() < addrs.len() {
            addrs[node.index()] = Some(addr);
        }
    }

    /// HTTP-level statistics.
    pub fn request_stats(&self) -> RequestStatsSnapshot {
        self.ctx.stats.snapshot()
    }

    /// Per-peer health states (quarantine tracking).
    pub fn peer_health(&self) -> Vec<HealthSnapshot> {
        self.ctx.health.snapshot()
    }

    /// Block until queued broadcast notices have been written to every
    /// reachable peer (or the timeout passes). Test/quiesce helper.
    pub fn flush_broadcasts(&self, timeout: std::time::Duration) -> bool {
        self.ctx.broadcaster.flush(timeout)
    }

    /// Cache-level statistics.
    pub fn cache_stats(&self) -> swala_cache::stats::StatsSnapshot {
        self.manager.stats().snapshot()
    }

    /// Per-link broadcast/send statistics (queued, sent, payload bytes).
    pub fn broadcast_link_stats(&self) -> Vec<swala_proto::LinkStats> {
        self.ctx.broadcaster.link_stats()
    }

    /// The node's pool of warm fetch connections: its counters, and
    /// `purge_peer` to make the next fetch dial.
    pub fn fetch_pool(&self) -> &FetchPool {
        &self.ctx.fetch_pool
    }

    /// The state this node's request threads share, for driving
    /// [`crate::pool::respond`] without a socket.
    pub fn context(&self) -> &Arc<NodeContext> {
        &self.ctx
    }

    /// The node's telemetry layer (metrics registry + trace ring).
    pub fn telemetry(&self) -> &Arc<swala_obs::Telemetry> {
        &self.ctx.telemetry
    }

    /// The source monitor, when configured.
    pub fn source_monitor(&self) -> Option<&SourceMonitor> {
        self.monitor.as_ref()
    }

    /// Gauges and counters of the request pool.
    pub fn engine_stats(&self) -> &Arc<PoolStats> {
        &self.ctx.engine_stats
    }

    /// Gauges and counters of the cache port's pool.
    pub fn cache_port_stats(&self) -> &PoolStats {
        self.daemons.as_ref().expect("running").port_stats()
    }

    /// Stop the node and return once it has stopped (what dropping it
    /// does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SwalaServer {
    /// Stop the request pool, the monitor and the daemons. The
    /// broadcaster is drained in between: once no new requests can enqueue
    /// notices, writer threads flush what is queued to live peers before
    /// the cache daemons stop listening.
    fn drop(&mut self) {
        drop(self.pool.take());
        drop(self.monitor.take());
        self.ctx.broadcaster.shutdown();
        drop(self.daemons.take());
    }
}
