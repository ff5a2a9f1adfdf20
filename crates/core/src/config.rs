//! Server configuration.

use crate::monitor::MonitorRule;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use swala_cache::{CacheRules, Clock, DirectoryKind, NodeId, PolicyKind};
use swala_proto::FaultInjector;

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
    /// Request-handler thread-pool size (16 by default).
    pub pool_size: usize,
    /// Document root for static files; `None` disables file serving.
    pub docroot: Option<PathBuf>,
    /// Directory for the body store (`SegmentStore`); `None` = in-memory
    /// store. A node always rebuilds its table from what this holds, so a
    /// cold start is an empty directory.
    pub cache_dir: Option<PathBuf>,
    /// Local cache capacity in entries (the paper's "cache size").
    pub capacity: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cacheability rules.
    pub rules: CacheRules,
    /// Master switch: false = "Swala no-cache" baseline mode.
    pub caching_enabled: bool,
    /// Source-monitoring rules (automatic invalidation, after \[16\]).
    pub monitors: Vec<MonitorRule>,
    /// Pull peers' directory snapshots at startup (late-joining nodes).
    pub sync_on_join: bool,
    /// Write a Common-Log-Format access log to this file.
    pub access_log: Option<PathBuf>,
    /// Byte budget for the in-memory body tier over the store; 0
    /// disables it (every local hit reads the store).
    pub mem_cache_bytes: usize,
    /// Single-flight coalescing: concurrent identical misses and remote
    /// hits wait for the one request producing the key's body (an
    /// execution, or a fetch from the owner) instead of duplicating the
    /// work. Off preserves the paper's re-run semantics for the §5
    /// experiments.
    pub coalesce: bool,
    /// Fault injector shared by the node's transports. `None` (always,
    /// outside chaos tests — there is no config-file syntax for it) means
    /// clean production transports.
    pub faults: Option<Arc<FaultInjector>>,
    /// The node's clock: TTL expiry, the purge and monitor intervals,
    /// the probe window, notice holds and reconnect backoff. `Real`
    /// (always, outside tests that move a `ManualClock` instead of
    /// sleeping — there is no config-file syntax for it).
    pub clock: Clock,
    /// Telemetry master switch: off = no tracing, no latency histograms,
    /// no heat sketch (counters stay scrapeable). Nothing measures what
    /// telemetry costs against an `obs off` node yet; that A/B is
    /// ROADMAP item 10's.
    pub obs_enabled: bool,
    /// Directory organization (`directory replicated|partitioned`).
    /// Replicated is the paper-faithful default: every insert/delete
    /// broadcasts to all peers. Partitioned assigns each key a home node
    /// on a consistent-hash ring and sends one point-to-point update
    /// instead.
    pub directory: DirectoryKind,
    /// Durability of body-store writes (`fsync on|off`): sync the data
    /// before acking a put or a delete, so an acked entry survives power
    /// loss. `off` trades that for write throughput (benches, ephemeral
    /// caches).
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
            monitors: Vec::new(),
            sync_on_join: false,
            access_log: None,
            mem_cache_bytes: 64 * 1024 * 1024,
            coalesce: true,
            faults: None,
            clock: Clock::Real,
            obs_enabled: true,
            directory: DirectoryKind::Replicated,
            fsync: true,
        }
    }
}

/// Keywords that no longer parse, each with why. `parse` rejects each
/// one with `line N: the <keyword> option is gone: <why>`; nothing else
/// knows them.
#[rustfmt::skip]
const RETIRED: &[(&str, &str)] = &[
    ("engine", "the one request pool parks idle connections"),
    ("broadcast_window_ms", "links pace themselves (swala_proto::NOTICE_PACE, NOTICE_PACE_MAX)"),
    ("broadcast_batch", "a frame carries whatever one hold gathered"),
    ("broadcast_queue", "a link queues swala_proto::NOTICE_QUEUE_DEPTH notices"),
    ("fetch_timeout_ms", "peer exchanges are bounded by swala::handler::FETCH_TIMEOUT"),
    ("server_name", "the Server header is swala::handler::SERVER_NAME"),
    ("suspect_after", "one failure makes a peer suspect (swala_proto::SUSPECT_AFTER)"),
    ("coalesce_wait_ms", "a coalesced miss waits at most swala_cache::COALESCE_WAIT"),
    ("trace_ring", "the trace ring keeps swala_obs::TRACE_RING traces"),
    ("hotkeys", "the heat sketch has swala_cache::HOTKEYS slots (none with obs off)"),
    ("slow_traces", "swala_obs::SLOW_TRACES exemplars are kept per outcome"),
    ("ring_vnodes", "every ring has swala_cache::DEFAULT_VNODES points per node"),
    ("purge_interval_ms", "the purge daemon wakes every swala_proto::PURGE_INTERVAL"),
    ("monitor_interval_ms", "sources are polled every swala::monitor::MONITOR_INTERVAL"),
    ("probe_interval_ms", "a quarantined peer is probed every swala_proto::PROBE_INTERVAL"),
    ("fetch_backoff_ms", "retries back off from swala_proto::FETCH_BACKOFF"),
    ("fetch_retries", "a remote fetch makes swala_proto::FETCH_ATTEMPTS attempts"),
    ("quarantine_after", "swala_proto::QUARANTINE_AFTER failures in a row quarantine a peer"),
    ("fetch_pool_size", "a node opens at most swala_proto::DEFAULT_POOL_SIZE connections per peer"),
    ("log_format", "the access log is Common Log Format plus the trace suffix, the format swala-workload reads"),
    ("store", "a node with a cache_dir keeps its bodies in one swala_cache::SegmentStore data file"),
    ("recover_cache", "a node always rebuilds its table from its cache_dir; a cold start is an empty cache_dir"),
];

impl ServerOptions {
    /// Parse the `swala.conf` line format. Unknown keys are errors, and a
    /// retired key says why it went.
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
    /// # cacheability rules use the rule syntax directly:
    /// cache /cgi-bin/adl* ttl=300 min_ms=50
    /// nocache /cgi-bin/private/*
    /// ```
    pub fn parse(text: &str) -> Result<ServerOptions, String> {
        let mut opts = ServerOptions::default();
        let mut rule_lines = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let (keyword, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            match keyword {
                // A blank or comment-only line.
                "" => {}
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
                "sync_on_join" => {
                    opts.sync_on_join = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("sync_on_join must be on|off")),
                    }
                }
                "access_log" => opts.access_log = Some(PathBuf::from(rest)),
                // 0 is legal: it turns the memory tier off rather than
                // breaking the server.
                "mem_cache_bytes" => {
                    opts.mem_cache_bytes = rest.parse().map_err(|_| err("bad mem_cache_bytes"))?;
                }
                "coalesce" => {
                    opts.coalesce = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("coalesce must be on|off")),
                    }
                }
                "obs" => {
                    opts.obs_enabled = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("obs must be on|off")),
                    }
                }
                "directory" => {
                    opts.directory = rest.parse().map_err(|e: String| err(&e))?;
                }
                "fsync" => {
                    opts.fsync = match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(err("fsync must be on|off")),
                    }
                }
                // Cacheability rules go to the rules parser, every other line
                // as a blank one, so the line numbers it reports are the file's.
                "cache" | "nocache" => rule_lines.push_str(line),
                other => {
                    return Err(err(&match RETIRED.iter().find(|(kw, _)| *kw == other) {
                        Some((_, why)) => format!("the {other} option is gone: {why}"),
                        None => format!("unknown keyword {other:?}"),
                    }))
                }
            }
            rule_lines.push('\n');
        }
        if !rule_lines.trim().is_empty() {
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
    use proptest::collection;
    use proptest::prelude::*;

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
sync_on_join on
",
        )
        .unwrap();
        assert_eq!(o.monitors.len(), 1);
        assert_eq!(o.monitors[0].key_prefix, "/cgi-bin/gaz*");
        assert_eq!(o.monitors[0].source, PathBuf::from("/srv/gazetteer.db"));
        assert!(o.sync_on_join);
        assert!(ServerOptions::parse("monitor nopath file").is_err());
        assert!(ServerOptions::parse("monitor /x").is_err());
        assert!(ServerOptions::parse("sync_on_join maybe").is_err());
    }

    #[test]
    fn mem_cache_keyword() {
        let o = ServerOptions::parse("mem_cache_bytes 1048576\n").unwrap();
        assert_eq!(o.mem_cache_bytes, 1_048_576);
        // Zero disables the memory tier and remains a valid config.
        let off = ServerOptions::parse("mem_cache_bytes 0\n").unwrap();
        assert_eq!(off.mem_cache_bytes, 0);
        assert!(ServerOptions::parse("mem_cache_bytes lots")
            .unwrap_err()
            .contains("bad"));
    }

    #[test]
    fn coalesce_keywords() {
        let d = ServerOptions::parse("").unwrap();
        assert!(d.coalesce, "single-flight defaults on");
        let o = ServerOptions::parse("coalesce off\n").unwrap();
        assert!(!o.coalesce);
        assert!(ServerOptions::parse("coalesce maybe")
            .unwrap_err()
            .contains("on|off"));
    }

    #[test]
    fn observability_keywords() {
        let d = ServerOptions::parse("").unwrap();
        assert!(d.obs_enabled);
        let o = ServerOptions::parse("obs off\n").unwrap();
        assert!(!o.obs_enabled);
        assert!(ServerOptions::parse("obs maybe")
            .unwrap_err()
            .contains("on|off"));
        assert!(ServerOptions::parse("log_format json")
            .unwrap_err()
            .starts_with("line 1: the log_format option is gone: "));
    }

    #[test]
    fn directory_keywords() {
        let d = ServerOptions::parse("").unwrap();
        assert_eq!(
            d.directory,
            DirectoryKind::Replicated,
            "the paper's default"
        );
        let o = ServerOptions::parse("directory partitioned\n").unwrap();
        assert_eq!(o.directory, DirectoryKind::Partitioned);
        let o = ServerOptions::parse("directory replicated\n").unwrap();
        assert_eq!(o.directory, DirectoryKind::Replicated);
        assert!(ServerOptions::parse("directory sharded")
            .unwrap_err()
            .contains("replicated|partitioned"));
    }

    #[test]
    fn store_keywords() {
        let o = ServerOptions::parse("").unwrap();
        assert!(o.fsync, "durable acks are the default");
        let o = ServerOptions::parse("fsync off\n").unwrap();
        assert!(!o.fsync);
        let o = ServerOptions::parse("fsync on\n").unwrap();
        assert!(o.fsync);
        assert!(ServerOptions::parse("fsync maybe")
            .unwrap_err()
            .contains("on|off"));
        assert!(ServerOptions::parse("store files")
            .unwrap_err()
            .starts_with("line 1: the store option is gone: "));
        assert!(ServerOptions::parse("recover_cache off")
            .unwrap_err()
            .starts_with("line 1: the recover_cache option is gone: "));
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
        // A bad rule is reported at its line in the file, not at its
        // place among the rules.
        assert_eq!(
            ServerOptions::parse("pool 4\ncache /x\n# note\ncache relative/y").unwrap_err(),
            "line 4: pattern must start with '/' or be '*'"
        );
    }

    #[test]
    fn empty_config_is_defaults() {
        let o = ServerOptions::parse("  \n# only a comment\n").unwrap();
        assert_eq!(o.num_nodes, ServerOptions::default().num_nodes);
    }

    /// One row of README.md's "Configuration" table.
    struct Row {
        /// The keywords that set the field (`cache`, `nocache` share one).
        keywords: Vec<String>,
        field: String,
        kind: String,
        /// `None` where the table says "unset": the default is no line.
        default: Option<String>,
    }

    /// The rows of README.md's "Configuration" table, the one list of
    /// every keyword the parser accepts.
    fn readme_rows() -> Vec<Row> {
        const README: &str = include_str!("../../../README.md");
        let section = README
            .split("\n## Configuration\n")
            .nth(1)
            .expect("README.md has a Configuration section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(String::from)
                .collect()
        };
        section
            .lines()
            .filter(|l| l.starts_with("| `") || l.starts_with("| —"))
            .map(|l| {
                let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
                assert_eq!(cells.len(), 4, "README row {l:?}");
                Row {
                    keywords: ticked(cells[0]),
                    field: ticked(cells[1]).remove(0),
                    kind: cells[2].to_string(),
                    default: ticked(cells[3]).into_iter().next(),
                }
            })
            .collect()
    }

    /// The README's knob table is the struct: one row per field, each
    /// documented default parses back to the default, a test seam has no
    /// keyword, and every retired keyword is rejected with its reason and
    /// documented nowhere.
    #[test]
    fn readme_configuration_table_matches_the_struct() {
        let defaults = format!("{:#?}", ServerOptions::default());
        let rows = readme_rows();
        let mut fields: Vec<&str> = defaults
            .lines()
            .filter_map(|l| l.strip_prefix("    "))
            .filter_map(|l| l.split_once(": ").map(|(field, _)| field))
            .filter(|f| !f.starts_with(' '))
            .collect();
        fields.sort_unstable();
        let mut documented: Vec<&str> = rows.iter().map(|r| r.field.as_str()).collect();
        documented.sort_unstable();
        assert_eq!(
            documented, fields,
            "README.md's Configuration table needs exactly one row per ServerOptions field"
        );
        for row in &rows {
            assert!(
                ["deployment", "paper", "tuning", "seam"].contains(&row.kind.as_str()),
                "{}: kind {:?}",
                row.field,
                row.kind
            );
            if row.kind == "seam" {
                // Set in code by tests, never by a config line.
                assert!(row.keywords.is_empty(), "seam {} has a keyword", row.field);
                let value = row
                    .default
                    .as_deref()
                    .expect("a seam row names its default");
                assert!(
                    defaults
                        .lines()
                        .any(|l| l == format!("    {}: {value},", row.field)),
                    "README.md documents `{value}` as the default of {}",
                    row.field
                );
                continue;
            }
            let keyword = &row.keywords[0];
            match &row.default {
                Some(value) => {
                    let line = format!("{keyword} {value}");
                    let parsed = ServerOptions::parse(&line).unwrap_or_else(|e| panic!("{e}"));
                    assert_eq!(
                        format!("{parsed:#?}"),
                        defaults,
                        "README.md documents `{line}` as the default of {}",
                        row.field
                    );
                }
                None => {
                    let unset = [
                        format!("    {}: None,", row.field),
                        format!("    {}: [],", row.field),
                    ];
                    assert!(
                        defaults.lines().any(|l| unset.contains(&l.to_string())),
                        "README.md documents {} as unset by default",
                        row.field
                    );
                }
            }
        }
        for (keyword, why) in RETIRED {
            assert!(
                !rows.iter().any(|r| r.keywords.iter().any(|k| k == keyword)),
                "{keyword} is retired"
            );
            assert_eq!(
                ServerOptions::parse(&format!("pool 4\n{keyword} 1")).unwrap_err(),
                format!("line 2: the {keyword} option is gone: {why}")
            );
        }
    }

    /// Every keyword the parser accepts, from the README table.
    fn live_keywords() -> &'static [String] {
        static LIVE: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        LIVE.get_or_init(|| readme_rows().into_iter().flat_map(|r| r.keywords).collect())
    }

    /// A line the fuzzer may write: a keyword (live, retired, or any
    /// identifier) and a value built to break parsers.
    fn config_line() -> impl Strategy<Value = String> {
        let keyword = prop_oneof![
            (0..live_keywords().len()).prop_map(|i| live_keywords()[i].clone()),
            (0..RETIRED.len()).prop_map(|i| RETIRED[i].0.to_string()),
            "[a-z_]{1,20}",
        ];
        let value = prop_oneof![
            Just(String::new()),
            any::<u64>().prop_map(|n| n.to_string()),
            any::<u64>().prop_map(|n| format!("-{n}")),
            Just("340282366920938463463374607431768211456".to_string()),
            "\\PC{0,40}",
            "[\u{0}\u{1}\u{7f}\u{80}\u{ff}\u{e9}\u{fffd}\u{feff}\u{2028}x]{1,12}",
            "[a-z0-9./:*=_ ]{0,16}#[a-z #]{0,8}",
            "/[a-z/*?=]{0,12} [a-z_=0-9 ]{0,16}",
        ];
        (keyword, "[ \t]{1,3}", value).prop_map(|(k, sep, v)| format!("{k}{sep}{v}"))
    }

    proptest! {
        /// Whatever a config file holds, the parser returns: every error
        /// either names a line that is wrong on its own, with the same
        /// message, or is one of the two whole-file checks; a retired
        /// keyword says why, and any other word it does not know is an
        /// unknown keyword.
        #[test]
        fn parser_errors_name_the_line_at_fault(
            lines in collection::vec(
                prop_oneof![6 => config_line(), 1 => "[ \t]{0,3}", 1 => "#\\PC{0,20}"],
                1..12,
            )
        ) {
            if let Err(e) = ServerOptions::parse(&lines.join("\n")) {
                match e.strip_prefix("line ").and_then(|r| r.split_once(": ")) {
                    Some((n, msg)) => {
                        let n: usize = n.parse().unwrap_or(0);
                        prop_assert!((1..=lines.len()).contains(&n), "{}", e);
                        prop_assert_eq!(
                            ServerOptions::parse(&lines[n - 1]).err(),
                            Some(format!("line 1: {msg}"))
                        );
                    }
                    None => prop_assert!(
                        e.contains("out of range") || e == "pool size must be positive",
                        "{}", e
                    ),
                }
            }
            for line in &lines {
                let content = line.split('#').next().unwrap_or("");
                let Some(keyword) = content.split_whitespace().next() else { continue };
                let alone = ServerOptions::parse(line).err();
                if let Some((_, why)) = RETIRED.iter().find(|(kw, _)| *kw == keyword) {
                    let gone = format!("line 1: the {keyword} option is gone: {why}");
                    prop_assert_eq!(alone, Some(gone));
                } else if !live_keywords().iter().any(|kw| kw == keyword) {
                    let unknown = format!("line 1: unknown keyword {keyword:?}");
                    prop_assert_eq!(alone, Some(unknown));
                } else if let Some(e) = alone {
                    let misread = e.contains("unknown keyword") || e.contains("is gone");
                    prop_assert!(!misread, "{}", e);
                }
            }
        }
    }
}
