//! Server configuration.

use crate::monitor::MonitorRule;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use swala_cache::{CacheRules, DirectoryKind, NodeId, PolicyKind, StoreKind};
use swala_proto::FaultInjector;

/// Access-log line format (`log_format text|json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Common Log Format with the trace suffix — the default.
    Text,
    /// One JSON object per request, same fields as the text line.
    Json,
}

impl LogFormat {
    pub fn as_str(self) -> &'static str {
        match self {
            LogFormat::Text => "text",
            LogFormat::Json => "json",
        }
    }
}

impl std::str::FromStr for LogFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<LogFormat, String> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("log_format must be text|json, got {other:?}")),
        }
    }
}

/// Everything needed to run one Swala node.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// This node's id within the cluster.
    pub node: NodeId,
    /// Cluster size (including this node).
    pub num_nodes: usize,
    /// HTTP listen address (port 0 = ephemeral).
    pub http_addr: SocketAddr,
    /// Cache-protocol listen address (port 0 = ephemeral).
    pub cache_addr: SocketAddr,
    /// Request-handler thread-pool size.
    pub pool_size: usize,
    /// Document root for static files; `None` disables file serving.
    pub docroot: Option<PathBuf>,
    /// Directory for the disk cache store; `None` = in-memory store.
    pub cache_dir: Option<PathBuf>,
    /// Local cache capacity in entries (the paper's "cache size").
    pub capacity: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cacheability rules.
    pub rules: CacheRules,
    /// Master switch: false = "Swala no-cache" baseline mode.
    pub caching_enabled: bool,
    /// Timeout for remote cache fetches.
    pub fetch_timeout: Duration,
    /// Purge-daemon wake interval.
    pub purge_interval: Duration,
    /// Value of the `Server:` header.
    pub server_name: String,
    /// Source-monitoring rules (automatic invalidation, after \[16\]).
    pub monitors: Vec<MonitorRule>,
    /// How often monitored sources are polled.
    pub monitor_interval: Duration,
    /// Pull peers' directory snapshots at startup (late-joining nodes).
    pub sync_on_join: bool,
    /// Warm restart: rebuild the directory from a disk store's
    /// self-describing entries at startup (no effect on memory stores).
    pub recover_cache: bool,
    /// Write a Common-Log-Format access log to this file.
    pub access_log: Option<PathBuf>,
    /// Access-log line format (`log_format text|json`). Text is the
    /// CLF default; json emits one object per request with the same
    /// fields (including the trace suffix's `trace=`/`owner=`).
    pub log_format: LogFormat,
    /// Per-peer broadcast queue depth; overflow drops the oldest notice
    /// (asynchronous weak consistency tolerates the loss).
    pub broadcast_queue: usize,
    /// Total remote-fetch attempts per request (1 = no retries).
    pub fetch_retries: u32,
    /// Backoff before the second fetch attempt; doubles per retry, with
    /// deterministic jitter.
    pub fetch_backoff: Duration,
    /// Consecutive fetch failures before a peer is marked suspect.
    pub suspect_after: u32,
    /// Consecutive fetch failures before a peer is quarantined (its
    /// directory entries are evicted and a `NodeDown` is broadcast).
    pub quarantine_after: u32,
    /// Rest period before a quarantined peer gets one probe fetch.
    pub probe_interval: Duration,
    /// Byte budget for the in-memory body tier over the store; 0
    /// disables it (every local hit reads the store).
    pub mem_cache_bytes: usize,
    /// Max idle fetch connections kept warm per peer; 0 disables
    /// pooling (every remote fetch dials).
    pub fetch_pool_size: usize,
    /// Single-flight coalescing: concurrent identical misses wait for
    /// the first execution (and concurrent identical remote fetches
    /// share one owner fetch) instead of duplicating the work. Off
    /// preserves the paper's re-run semantics for the §5 experiments.
    pub coalesce: bool,
    /// Bound on how long a coalesced miss waits for the leader before
    /// falling back to its own execution.
    pub coalesce_wait: Duration,
    /// Fault injector shared by the node's transports. `None` (always,
    /// outside chaos tests — there is no config-file syntax for it) means
    /// clean production transports.
    pub faults: Option<Arc<FaultInjector>>,
    /// Telemetry master switch: off = no tracing, no latency histograms
    /// (counters stay scrapeable). The `obs off` baseline is what the
    /// hitpath bench compares against to bound telemetry overhead.
    pub obs_enabled: bool,
    /// Completed traces kept in the in-memory ring (`/swala-traces`);
    /// 0 keeps none.
    pub trace_ring: usize,
    /// Monitored slots in the per-key heat sketch (`/swala-hotkeys`);
    /// 0 disables the sketch. Forced to 0 when `obs` is off.
    pub hotkeys: usize,
    /// Slowest completed traces retained per outcome class
    /// (`/swala-traces?slow=1`); 0 keeps none.
    pub slow_traces: usize,
    /// Directory organization (`directory replicated|partitioned`).
    /// Replicated is the paper-faithful default: every insert/delete
    /// broadcasts to all peers. Partitioned assigns each key a home node
    /// on a consistent-hash ring and sends one point-to-point update
    /// instead. The `SWALA_DIRECTORY` environment variable overrides the
    /// *default* only — explicit config lines and programmatic settings
    /// win, so a test that pins a mode is immune to a suite-wide env
    /// sweep.
    pub directory: DirectoryKind,
    /// Virtual nodes per member on the consistent-hash ring
    /// (partitioned mode only).
    pub ring_vnodes: usize,
    /// Body-store layout (`store segment|files`). `segment`, the default,
    /// keeps every body in one data file of checksummed records and
    /// reuses space in place; `files` is the paper's §4.1 layout (one OS
    /// file per cached result), which the paper experiments pin. Like
    /// `directory`, the `SWALA_STORE` environment variable overrides the
    /// *default* only — explicit config lines and programmatic settings
    /// win, so tests that pin a store are immune to a suite-wide env
    /// sweep.
    pub store: StoreKind,
    /// Durability of body-store writes (`fsync on|off`): sync the data
    /// (and, for `store files`, the directory) before acking a put or a
    /// delete, so an acked entry survives power loss. `off` trades that for
    /// write throughput (benches, ephemeral caches).
    pub fsync: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            node: NodeId(0),
            num_nodes: 1,
            http_addr: "127.0.0.1:0".parse().expect("static addr"),
            cache_addr: "127.0.0.1:0".parse().expect("static addr"),
            pool_size: 16,
            docroot: None,
            cache_dir: None,
            capacity: 2000,
            policy: PolicyKind::Lru,
            rules: CacheRules::allow_all(),
            caching_enabled: true,
            fetch_timeout: Duration::from_secs(2),
            purge_interval: Duration::from_secs(2),
            server_name: "Swala/0.1".to_string(),
            monitors: Vec::new(),
            monitor_interval: Duration::from_secs(2),
            sync_on_join: false,
            recover_cache: true,
            access_log: None,
            log_format: LogFormat::Text,
            broadcast_queue: 1024,
            fetch_retries: 3,
            fetch_backoff: Duration::from_millis(25),
            suspect_after: 1,
            quarantine_after: 3,
            probe_interval: Duration::from_secs(5),
            mem_cache_bytes: 64 * 1024 * 1024,
            fetch_pool_size: swala_proto::DEFAULT_POOL_SIZE,
            coalesce: true,
            coalesce_wait: Duration::from_secs(10),
            faults: None,
            obs_enabled: true,
            trace_ring: 256,
            hotkeys: 128,
            slow_traces: 8,
            directory: match std::env::var("SWALA_DIRECTORY").as_deref() {
                Ok("partitioned") => DirectoryKind::Partitioned,
                _ => DirectoryKind::Replicated,
            },
            ring_vnodes: swala_cache::DEFAULT_VNODES,
            store: match std::env::var("SWALA_STORE").as_deref() {
                Ok("files") => StoreKind::Files,
                _ => StoreKind::Segment,
            },
            fsync: true,
        }
    }
}

impl ServerOptions {
    /// Parse the `swala.conf` line format. Unknown keys are errors.
    ///
    /// ```text
    /// node 0
    /// nodes 4
    /// listen 127.0.0.1:8080
    /// cache_listen 127.0.0.1:9080
    /// pool 16
    /// docroot /var/www
    /// cache_dir /var/cache/swala
    /// capacity 2000
    /// policy gds
    /// caching on
    /// fetch_timeout_ms 2000
    /// purge_interval_ms 2000
    /// # cacheability rules use the rule syntax directly:
    /// cache /cgi-bin/adl* ttl=300 min_ms=50
    /// nocache /cgi-bin/private/*
    /// ```
    pub fn parse(text: &str) -> Result<ServerOptions, String> {
        let mut opts = ServerOptions::default();
        let mut rule_lines = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match keyword {
                "node" => opts.node = NodeId(rest.parse().map_err(|_| err("bad node id"))?),
                "nodes" => opts.num_nodes = rest.parse().map_err(|_| err("bad node count"))?,
                "listen" => opts.http_addr = rest.parse().map_err(|_| err("bad listen addr"))?,
                "cache_listen" => {
                    opts.cache_addr = rest.parse().map_err(|_| err("bad cache_listen addr"))?
                }
                "pool" => opts.pool_size = rest.parse().map_err(|_| err("bad pool size"))?,
                "docroot" => opts.docroot = Some(PathBuf::from(rest)),
                "cache_dir" => opts.cache_dir = Some(PathBuf::from(rest)),
                "capacity" => opts.capacity = rest.parse().map_err(|_| err("bad capacity"))?,
                "policy" => opts.policy = rest.parse().map_err(|e: String| err(&e))?,
                "caching" => {
                    opts.caching_enabled = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("caching must be on|off")),
                    }
                }
                "fetch_timeout_ms" => {
                    opts.fetch_timeout = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad fetch_timeout_ms"))?,
                    )
                }
                "purge_interval_ms" => {
                    opts.purge_interval = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad purge_interval_ms"))?,
                    )
                }
                "server_name" => opts.server_name = rest.to_string(),
                "monitor" => {
                    let (prefix, source) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err("monitor needs <key-prefix> <source-file>"))?;
                    if !prefix.starts_with('/') {
                        return Err(err("monitor key-prefix must start with '/'"));
                    }
                    opts.monitors.push(MonitorRule {
                        key_prefix: prefix.to_string(),
                        source: PathBuf::from(source.trim()),
                    });
                }
                "monitor_interval_ms" => {
                    opts.monitor_interval = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad monitor_interval_ms"))?,
                    )
                }
                "sync_on_join" => {
                    opts.sync_on_join = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("sync_on_join must be on|off")),
                    }
                }
                "recover_cache" => {
                    opts.recover_cache = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("recover_cache must be on|off")),
                    }
                }
                "access_log" => opts.access_log = Some(PathBuf::from(rest)),
                "log_format" => {
                    opts.log_format = rest.parse().map_err(|e: String| err(&e))?;
                }
                "broadcast_queue" => {
                    opts.broadcast_queue = rest.parse().map_err(|_| err("bad broadcast_queue"))?;
                    if opts.broadcast_queue == 0 {
                        return Err(err("broadcast_queue must be positive"));
                    }
                }
                "fetch_retries" => {
                    opts.fetch_retries = rest.parse().map_err(|_| err("bad fetch_retries"))?;
                    if opts.fetch_retries == 0 {
                        return Err(err("fetch_retries must be positive"));
                    }
                }
                "fetch_backoff_ms" => {
                    opts.fetch_backoff = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad fetch_backoff_ms"))?,
                    )
                }
                "suspect_after" => {
                    opts.suspect_after = rest.parse().map_err(|_| err("bad suspect_after"))?;
                    if opts.suspect_after == 0 {
                        return Err(err("suspect_after must be positive"));
                    }
                }
                "quarantine_after" => {
                    opts.quarantine_after =
                        rest.parse().map_err(|_| err("bad quarantine_after"))?;
                    if opts.quarantine_after == 0 {
                        return Err(err("quarantine_after must be positive"));
                    }
                }
                "probe_interval_ms" => {
                    opts.probe_interval = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad probe_interval_ms"))?,
                    )
                }
                // 0 is legal for both hot-path knobs: it turns the
                // optimization off rather than breaking the server.
                "mem_cache_bytes" => {
                    opts.mem_cache_bytes = rest.parse().map_err(|_| err("bad mem_cache_bytes"))?;
                }
                "fetch_pool_size" => {
                    opts.fetch_pool_size = rest.parse().map_err(|_| err("bad fetch_pool_size"))?;
                }
                "coalesce" => {
                    opts.coalesce = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("coalesce must be on|off")),
                    }
                }
                "coalesce_wait_ms" => {
                    opts.coalesce_wait = Duration::from_millis(
                        rest.parse().map_err(|_| err("bad coalesce_wait_ms"))?,
                    );
                    if opts.coalesce_wait.is_zero() {
                        return Err(err("coalesce_wait_ms must be positive"));
                    }
                }
                "obs" => {
                    opts.obs_enabled = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("obs must be on|off")),
                    }
                }
                // 0 is legal: no traces retained, histograms still record.
                "trace_ring" => {
                    opts.trace_ring = rest.parse().map_err(|_| err("bad trace_ring"))?;
                }
                // 0 is legal for both: it disables that instrument only.
                "hotkeys" => {
                    opts.hotkeys = rest.parse().map_err(|_| err("bad hotkeys"))?;
                }
                "slow_traces" => {
                    opts.slow_traces = rest.parse().map_err(|_| err("bad slow_traces"))?;
                }
                "engine" => {
                    return Err(err(
                        "the engine option is gone: the one request pool parks idle connections",
                    ));
                }
                "directory" => {
                    opts.directory = rest.parse().map_err(|e: String| err(&e))?;
                }
                "ring_vnodes" => {
                    opts.ring_vnodes = rest.parse().map_err(|_| err("bad ring_vnodes"))?;
                    if opts.ring_vnodes == 0 {
                        return Err(err("ring_vnodes must be positive"));
                    }
                }
                "store" => {
                    opts.store = rest.parse().map_err(|e: String| err(&e))?;
                }
                "fsync" => {
                    opts.fsync = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("fsync must be on|off")),
                    }
                }
                // Cacheability rules pass through to the rules parser.
                "cache" | "nocache" => {
                    rule_lines.push_str(line);
                    rule_lines.push('\n');
                }
                other => return Err(err(&format!("unknown keyword {other:?}"))),
            }
        }
        if !rule_lines.is_empty() {
            opts.rules = CacheRules::parse(&rule_lines)?;
        }
        if opts.node.index() >= opts.num_nodes {
            return Err(format!(
                "node {} out of range for {} nodes",
                opts.node, opts.num_nodes
            ));
        }
        if opts.pool_size == 0 {
            return Err("pool size must be positive".into());
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = ServerOptions::default();
        assert_eq!(o.num_nodes, 1);
        assert!(o.caching_enabled);
        assert_eq!(o.capacity, 2000);
        assert!(o.pool_size > 0);
    }

    #[test]
    fn full_config_parses() {
        let text = "\
# Swala node 2 of 4
node 2
nodes 4
listen 127.0.0.1:8082
cache_listen 127.0.0.1:9082
pool 24
docroot /srv/www
cache_dir /srv/cache
capacity 500
policy gds
caching on
fetch_timeout_ms 1500
purge_interval_ms 750
server_name TestSwala
nocache /cgi-bin/private/*
cache /cgi-bin/* ttl=60 min_ms=20
";
        let o = ServerOptions::parse(text).unwrap();
        assert_eq!(o.node, NodeId(2));
        assert_eq!(o.num_nodes, 4);
        assert_eq!(o.http_addr.port(), 8082);
        assert_eq!(o.cache_addr.port(), 9082);
        assert_eq!(o.pool_size, 24);
        assert_eq!(o.docroot.as_deref(), Some(std::path::Path::new("/srv/www")));
        assert_eq!(o.capacity, 500);
        assert_eq!(o.policy, PolicyKind::GreedyDualSize);
        assert_eq!(o.fetch_timeout, Duration::from_millis(1500));
        assert_eq!(o.purge_interval, Duration::from_millis(750));
        assert_eq!(o.server_name, "TestSwala");
        assert_eq!(o.rules.len(), 2);
        assert_eq!(
            o.rules.decide("/cgi-bin/private/x"),
            swala_cache::CacheDecision::Uncacheable
        );
    }

    #[test]
    fn monitor_and_sync_keywords() {
        let o = ServerOptions::parse(
            "monitor /cgi-bin/gaz* /srv/gazetteer.db
monitor_interval_ms 500
sync_on_join on
",
        )
        .unwrap();
        assert_eq!(o.monitors.len(), 1);
        assert_eq!(o.monitors[0].key_prefix, "/cgi-bin/gaz*");
        assert_eq!(o.monitors[0].source, PathBuf::from("/srv/gazetteer.db"));
        assert_eq!(o.monitor_interval, Duration::from_millis(500));
        assert!(o.sync_on_join);
        assert!(ServerOptions::parse("monitor nopath file").is_err());
        assert!(ServerOptions::parse("monitor /x").is_err());
        assert!(ServerOptions::parse("sync_on_join maybe").is_err());
    }

    #[test]
    fn broadcast_keywords() {
        let o = ServerOptions::parse("broadcast_queue 256\n").unwrap();
        assert_eq!(o.broadcast_queue, 256);
        assert!(ServerOptions::parse("broadcast_queue 0")
            .unwrap_err()
            .contains("positive"));
        // The linger and batch-size knobs are gone: links pace themselves
        // (NOTICE_PACE .. NOTICE_PACE_MAX) and a frame carries whatever a
        // hold gathered.
        assert!(ServerOptions::parse("broadcast_window_ms 5").is_err());
        assert!(ServerOptions::parse("broadcast_batch 16").is_err());
    }

    #[test]
    fn failure_model_keywords() {
        let o = ServerOptions::parse(
            "fetch_retries 5
fetch_backoff_ms 10
suspect_after 2
quarantine_after 4
probe_interval_ms 750
",
        )
        .unwrap();
        assert_eq!(o.fetch_retries, 5);
        assert_eq!(o.fetch_backoff, Duration::from_millis(10));
        assert_eq!(o.suspect_after, 2);
        assert_eq!(o.quarantine_after, 4);
        assert_eq!(o.probe_interval, Duration::from_millis(750));
        assert!(ServerOptions::parse("fetch_retries 0")
            .unwrap_err()
            .contains("positive"));
        assert!(ServerOptions::parse("quarantine_after 0")
            .unwrap_err()
            .contains("positive"));
        assert!(ServerOptions::parse("suspect_after none")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn hot_path_keywords() {
        let o = ServerOptions::parse(
            "mem_cache_bytes 1048576
fetch_pool_size 8
",
        )
        .unwrap();
        assert_eq!(o.mem_cache_bytes, 1_048_576);
        assert_eq!(o.fetch_pool_size, 8);
        // Zero disables each optimization; both remain valid configs.
        let off = ServerOptions::parse("mem_cache_bytes 0\nfetch_pool_size 0\n").unwrap();
        assert_eq!(off.mem_cache_bytes, 0);
        assert_eq!(off.fetch_pool_size, 0);
        assert!(ServerOptions::parse("mem_cache_bytes lots")
            .unwrap_err()
            .contains("bad"));
        assert!(ServerOptions::parse("fetch_pool_size many")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn coalesce_keywords() {
        let d = ServerOptions::parse("").unwrap();
        assert!(d.coalesce, "single-flight defaults on");
        assert_eq!(d.coalesce_wait, Duration::from_secs(10));
        let o = ServerOptions::parse("coalesce off\ncoalesce_wait_ms 2500\n").unwrap();
        assert!(!o.coalesce);
        assert_eq!(o.coalesce_wait, Duration::from_millis(2500));
        assert!(ServerOptions::parse("coalesce maybe")
            .unwrap_err()
            .contains("on|off"));
        assert!(ServerOptions::parse("coalesce_wait_ms 0")
            .unwrap_err()
            .contains("positive"));
        assert!(ServerOptions::parse("coalesce_wait_ms soon")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn telemetry_keywords() {
        let o = ServerOptions::parse(
            "obs off
trace_ring 64
",
        )
        .unwrap();
        assert!(!o.obs_enabled);
        assert_eq!(o.trace_ring, 64);
        let d = ServerOptions::parse("").unwrap();
        assert!(d.obs_enabled);
        assert_eq!(d.trace_ring, 256);
        assert_eq!(
            ServerOptions::parse(
                "trace_ring 0
"
            )
            .unwrap()
            .trace_ring,
            0
        );
        assert!(ServerOptions::parse("obs maybe")
            .unwrap_err()
            .contains("on|off"));
        assert!(ServerOptions::parse("trace_ring lots")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn observability_keywords() {
        let d = ServerOptions::parse("").unwrap();
        assert_eq!(d.log_format, LogFormat::Text, "text log is the default");
        assert_eq!(d.hotkeys, 128);
        assert_eq!(d.slow_traces, 8);
        let o = ServerOptions::parse(
            "log_format json
hotkeys 512
slow_traces 16
",
        )
        .unwrap();
        assert_eq!(o.log_format, LogFormat::Json);
        assert_eq!(o.hotkeys, 512);
        assert_eq!(o.slow_traces, 16);
        // 0 disables each instrument; both remain valid configs.
        let off = ServerOptions::parse("hotkeys 0\nslow_traces 0\n").unwrap();
        assert_eq!(off.hotkeys, 0);
        assert_eq!(off.slow_traces, 0);
        assert!(ServerOptions::parse("log_format xml")
            .unwrap_err()
            .contains("text|json"));
        assert!(ServerOptions::parse("hotkeys lots")
            .unwrap_err()
            .contains("bad"));
        assert!(ServerOptions::parse("slow_traces crawl")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn engine_keyword_is_gone_and_says_so() {
        for line in ["engine event", "engine threaded"] {
            let err = ServerOptions::parse(line).unwrap_err();
            assert!(err.contains("engine option is gone"), "{err}");
        }
    }

    #[test]
    fn directory_keywords() {
        // Note: the default depends on SWALA_DIRECTORY (env override of
        // the default), so only explicit settings are asserted here.
        let o = ServerOptions::parse("directory partitioned\nring_vnodes 64\n").unwrap();
        assert_eq!(o.directory, DirectoryKind::Partitioned);
        assert_eq!(o.ring_vnodes, 64);
        let o = ServerOptions::parse("directory replicated\n").unwrap();
        assert_eq!(o.directory, DirectoryKind::Replicated);
        assert_eq!(o.ring_vnodes, swala_cache::DEFAULT_VNODES);
        assert!(ServerOptions::parse("directory sharded")
            .unwrap_err()
            .contains("replicated|partitioned"));
        assert!(ServerOptions::parse("ring_vnodes 0")
            .unwrap_err()
            .contains("positive"));
        assert!(ServerOptions::parse("ring_vnodes many")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn store_keywords() {
        // Note: the default depends on SWALA_STORE (env override of the
        // default), so only explicit settings are asserted here.
        let o = ServerOptions::parse("store segment\n").unwrap();
        assert_eq!(o.store, StoreKind::Segment);
        let o = ServerOptions::parse("store files\n").unwrap();
        assert_eq!(o.store, StoreKind::Files);
        assert!(o.fsync, "durable acks are the default");
        let o = ServerOptions::parse("fsync off\n").unwrap();
        assert!(!o.fsync);
        let o = ServerOptions::parse("fsync on\n").unwrap();
        assert!(o.fsync);
        assert!(ServerOptions::parse("store ramdisk")
            .unwrap_err()
            .contains("files|segment"));
        assert!(ServerOptions::parse("fsync maybe")
            .unwrap_err()
            .contains("on|off"));
    }

    #[test]
    fn caching_off() {
        let o = ServerOptions::parse("caching off\n").unwrap();
        assert!(!o.caching_enabled);
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(ServerOptions::parse("nonsense 1")
            .unwrap_err()
            .contains("unknown keyword"));
        assert!(ServerOptions::parse("node abc")
            .unwrap_err()
            .contains("bad node id"));
        assert!(ServerOptions::parse("caching sideways")
            .unwrap_err()
            .contains("on|off"));
        assert!(ServerOptions::parse("policy mystery")
            .unwrap_err()
            .contains("line 1"));
        assert!(ServerOptions::parse("node 5\nnodes 2")
            .unwrap_err()
            .contains("out of range"));
        assert!(ServerOptions::parse("pool 0")
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn empty_config_is_defaults() {
        let o = ServerOptions::parse("  \n# only a comment\n").unwrap();
        assert_eq!(o.num_nodes, ServerOptions::default().num_nodes);
    }
}
