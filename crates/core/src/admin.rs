//! Administrative endpoints.
//!
//! Reserved paths, in the spirit of 1998 server status screens:
//!
//! * `GET /swala-status` — an HTML page with the node's request and
//!   cache statistics, per-outcome latency quantiles and the directory's
//!   view of the cluster;
//! * `GET /swala-metrics` — the machine-readable metrics registry in
//!   Prometheus text exposition format (version 0.0.4);
//! * `GET /swala-threads` — user and system CPU seconds of this node's
//!   live threads, summed by thread role (`swala-request`,
//!   `swala-notice-writer`, `swala-cacher`, …), read from
//!   `/proc/self/task` when asked and in the same exposition format. Its
//!   own page, so that whoever polls `/swala-metrics` does not pay for a
//!   walk over `/proc`;
//! * `GET /swala-traces?n=K` — the most recent `K` completed request
//!   traces from the bounded trace ring, as JSON (newest last); with
//!   `?slow=1`, the slowest retained traces per outcome class instead
//!   (the exemplar set survives ring churn, so the pathological tail
//!   stays inspectable);
//! * `GET /swala-hotkeys?n=K` — the space-saving heat sketch's hottest
//!   keys with per-key error bounds, as JSON; `?cluster=1` merges every
//!   reachable node's shipped top keys into one ranking;
//! * `GET /swala-cluster-metrics` — every reachable node's registry in
//!   one Prometheus exposition, each sample labeled `node="N"` (values
//!   pass through verbatim, so summing over the label is exact);
//! * `GET /swala-cluster-status` — a per-node table of the cluster
//!   (hit rates, health, directory and memory footprint) plus merged
//!   latency histograms and the cluster-wide hot-key ranking;
//! * `GET /swala-admin/invalidate?key=<target>` — application-driven
//!   invalidation (§4.2's planned extension after Iyengar & Challenger
//!   \[12\]): removes the entry wherever it lives. If this node owns it,
//!   it is deleted and the deletion broadcast; if a peer owns it, an
//!   `Invalidate` message is forwarded to the owner.
//!
//! The cluster views are federated pulls: the serving node asks every
//! peer for a [`swala_proto::NodeStats`] snapshot over the warm fetch
//! pool and merges locally. An unreachable or quarantined peer costs a
//! `swala_cluster_scrape_failures` bump and a partial view — never an
//! error status, because a degraded cluster is exactly when the view
//! matters most.
//!
//! The admin prefix is reserved before program and file resolution, so a
//! CGI program or file cannot shadow it.

use crate::handler::{NodeContext, FETCH_TIMEOUT};
use std::sync::atomic::Ordering;
use swala_cache::directory::Classification;
use swala_cache::{CacheKey, NodeId};
use swala_http::{Request, Response, StatusCode};
use swala_obs::{HeatEntry, HistogramSnapshot, MetricSnapshot, MetricValue, Trace};
use swala_proto::{request_invalidate, NodeStats};

/// Path prefix reserved for administration.
pub const ADMIN_PREFIX: &str = "/swala-admin/";
/// The status page path.
pub const STATUS_PATH: &str = "/swala-status";
/// Prometheus text exposition of the metrics registry.
pub const METRICS_PATH: &str = "/swala-metrics";
/// Per-thread-role CPU seconds, Prometheus text exposition.
pub const THREADS_PATH: &str = "/swala-threads";
/// JSON dump of recent completed traces.
pub const TRACES_PATH: &str = "/swala-traces";
/// JSON dump of the heat sketch's hottest keys.
pub const HOTKEYS_PATH: &str = "/swala-hotkeys";
/// Cluster-merged Prometheus exposition (every node, `node` label).
pub const CLUSTER_METRICS_PATH: &str = "/swala-cluster-metrics";
/// Cluster-merged HTML status table.
pub const CLUSTER_STATUS_PATH: &str = "/swala-cluster-status";

/// Hot-key entries requested from each node during a cluster scrape
/// (mirrors the daemon's per-snapshot cap).
const SCRAPE_HOTKEYS: usize = 64;

/// True when `path` is handled by the admin module.
pub fn is_admin_path(path: &str) -> bool {
    path == STATUS_PATH
        || path == METRICS_PATH
        || path == THREADS_PATH
        || path == TRACES_PATH
        || path == HOTKEYS_PATH
        || path == CLUSTER_METRICS_PATH
        || path == CLUSTER_STATUS_PATH
        || path.starts_with(ADMIN_PREFIX)
}

/// Dispatch an admin request.
pub fn handle_admin(ctx: &NodeContext, req: &Request) -> Response {
    match req.target.path.as_str() {
        STATUS_PATH => status_page(ctx),
        METRICS_PATH => metrics_page(ctx),
        THREADS_PATH => threads_page(),
        TRACES_PATH => traces_page(ctx, req),
        HOTKEYS_PATH => hotkeys_page(ctx, req),
        CLUSTER_METRICS_PATH => cluster_metrics_page(ctx),
        CLUSTER_STATUS_PATH => cluster_status_page(ctx),
        "/swala-admin/invalidate" => invalidate(ctx, req),
        _ => Response::error(StatusCode::NOT_FOUND),
    }
}

/// One node's slice of a cluster scrape.
struct ScrapedNode {
    node: NodeId,
    /// Why `stats` is present or not: `ok`, `unreachable`,
    /// `quarantined` or `unknown-addr`.
    state: &'static str,
    stats: Option<NodeStats>,
}

/// Pull every peer's stats snapshot over the fetch pool; this node's
/// own snapshot is read directly. Failures degrade the view to the
/// reachable subset — each bumps `swala_cluster_scrape_failures` and
/// feeds the shared health tracker exactly like a failed body fetch
/// (including the quarantine-transition bookkeeping), so an admin
/// scrape both benefits from and contributes to peer-health evidence.
fn collect_cluster(ctx: &NodeContext) -> Vec<ScrapedNode> {
    let n = ctx.cache_addrs.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let peer = NodeId(i as u16);
        if peer == ctx.node {
            // Placeholder; filled after the peer pulls so the local
            // snapshot includes this very scrape's failure counts.
            out.push(ScrapedNode {
                node: peer,
                state: "ok",
                stats: None,
            });
            continue;
        }
        let Some(addr) = ctx.peer_cache_addr(peer) else {
            out.push(ScrapedNode {
                node: peer,
                state: "unknown-addr",
                stats: None,
            });
            continue;
        };
        // Quarantine gate, as on the fetch path: a peer declared dead is
        // skipped without touching the network. The view still went
        // partial, so the scrape-failure counter covers skips too.
        if !ctx.health.should_attempt(peer) {
            ctx.scrape_failures.fetch_add(1, Ordering::Relaxed);
            out.push(ScrapedNode {
                node: peer,
                state: "quarantined",
                stats: None,
            });
            continue;
        }
        match ctx.fetch_pool.stats_pull(peer, addr, FETCH_TIMEOUT, None) {
            Ok(stats) => {
                ctx.health.record_success(peer);
                out.push(ScrapedNode {
                    node: peer,
                    state: "ok",
                    stats: Some(stats),
                });
            }
            Err(_) => {
                ctx.scrape_failures.fetch_add(1, Ordering::Relaxed);
                ctx.note_peer_failure(peer);
                out.push(ScrapedNode {
                    node: peer,
                    state: "unreachable",
                    stats: None,
                });
            }
        }
    }
    out[ctx.node.index()].stats = Some(NodeStats {
        node: ctx.node,
        metrics: ctx.telemetry.registry().snapshot(),
        hotkeys: ctx.manager.heat().top(SCRAPE_HOTKEYS),
    });
    out
}

/// Every reachable node's metrics in one exposition document, each
/// sample re-labeled with its origin node.
fn cluster_metrics_page(ctx: &NodeContext) -> Response {
    let scraped = collect_cluster(ctx);
    let nodes: Vec<(u16, Vec<MetricSnapshot>)> = scraped
        .iter()
        .filter_map(|s| s.stats.as_ref().map(|st| (s.node.0, st.metrics.clone())))
        .collect();
    let body = swala_obs::render_cluster(&nodes);
    Response::ok("text/plain; version=0.0.4", body.into_bytes())
}

/// Pull a named counter out of a metrics snapshot (0 when absent).
fn counter_of(metrics: &[MetricSnapshot], name: &str) -> u64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match &m.value {
            MetricValue::Counter(v) => *v,
            _ => 0,
        })
}

/// Pull a named gauge out of a metrics snapshot (0 when absent).
fn gauge_of(metrics: &[MetricSnapshot], name: &str) -> i64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match &m.value {
            MetricValue::Gauge(v) => *v,
            _ => 0,
        })
}

/// The cluster at a glance: one row per node, merged latency, global
/// hot keys.
fn cluster_status_page(ctx: &NodeContext) -> Response {
    let scraped = collect_cluster(ctx);
    let mut rows = String::new();
    for s in &scraped {
        match &s.stats {
            Some(st) => {
                let m = &st.metrics;
                let lookups = counter_of(m, "swala_cache_lookups");
                let hits = counter_of(m, "swala_cache_local_hits")
                    + counter_of(m, "swala_cache_remote_hits");
                let rate = if lookups == 0 {
                    "–".to_string()
                } else {
                    format!("{:.1}%", 100.0 * hits as f64 / lookups as f64)
                };
                rows.push_str(&format!(
                    "<tr><td>node{}{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    s.node.0,
                    if s.node == ctx.node {
                        " (this node)"
                    } else {
                        ""
                    },
                    s.state,
                    counter_of(m, "swala_http_requests"),
                    lookups,
                    rate,
                    counter_of(m, "swala_cache_inserts"),
                    gauge_of(m, "swala_cache_dir_entries_owned"),
                    gauge_of(m, "swala_cache_mem_bytes"),
                ));
            }
            None => rows.push_str(&format!(
                "<tr><td>node{}</td><td>{}</td>\
                 <td colspan=6>no snapshot (partial scrape)</td></tr>\n",
                s.node.0, s.state,
            )),
        }
    }
    // Merged per-outcome latency: raw bucket sums across nodes, so the
    // quantiles are those of one cluster-wide histogram, not an average
    // of per-node quantiles.
    let mut by_outcome: Vec<(String, HistogramSnapshot)> = Vec::new();
    for s in &scraped {
        let Some(st) = &s.stats else { continue };
        for m in &st.metrics {
            if m.name != "swala_request_duration_microseconds" {
                continue;
            }
            if let (Some((_, outcome)), MetricValue::Histogram(h)) = (&m.label, &m.value) {
                match by_outcome.iter_mut().find(|(o, _)| o == outcome) {
                    Some((_, agg)) => agg.merge(h),
                    None => by_outcome.push((outcome.clone(), h.clone())),
                }
            }
        }
    }
    let mut latency = String::new();
    for (outcome, h) in &by_outcome {
        if h.count == 0 {
            continue;
        }
        latency.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            outcome,
            h.count,
            h.p50(),
            h.p99(),
            h.max,
        ));
    }
    if latency.is_empty() {
        latency.push_str("<tr><td colspan=5>no completed requests yet</td></tr>\n");
    }
    let lists: Vec<Vec<HeatEntry>> = scraped
        .iter()
        .filter_map(|s| s.stats.as_ref().map(|st| st.hotkeys.clone()))
        .collect();
    let mut hot = String::new();
    for e in swala_obs::merge_hotkeys(&lists, 16) {
        hot.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            e.key,
            e.count,
            e.count - e.error,
            e.cost_us,
        ));
    }
    if hot.is_empty() {
        hot.push_str("<tr><td colspan=4>no observations yet</td></tr>\n");
    }
    let failures = ctx.scrape_failures.load(Ordering::Relaxed);
    let body = format!(
        "<html><head><title>Swala cluster — via node {node}</title></head><body>\
         <h1>Swala cluster (scraped by node {node}; {failures} scrape failures total)</h1>\
         <h2>Nodes</h2>\
         <table border=1>\
         <tr><th>node</th><th>scrape</th><th>requests</th><th>lookups</th>\
         <th>hit rate</th><th>inserts</th><th>dir owned</th><th>mem bytes</th></tr>\
         {rows}</table>\
         <h2>Cluster latency by outcome (&micro;s, merged histograms)</h2>\
         <table border=1>\
         <tr><th>outcome</th><th>count</th><th>p50</th><th>p99</th>\
         <th>max</th></tr>{latency}</table>\
         <h2>Cluster hot keys (estimated count; lower bound; cost &micro;s)</h2>\
         <table border=1>\
         <tr><th>key</th><th>count</th><th>&ge;</th><th>cost</th></tr>{hot}</table>\
         <p><a href=\"/swala-cluster-metrics\">cluster metrics</a> &middot; \
         <a href=\"/swala-hotkeys?cluster=1\">cluster hotkeys</a> &middot; \
         <a href=\"/swala-status\">this node</a></p>\
         </body></html>\n",
        node = ctx.node,
    );
    Response::ok("text/html", body.into_bytes())
}

/// The heat sketch's hottest keys (`?n=K`, default 32), with per-key
/// error bounds. `?cluster=1` merges every reachable node's shipped
/// top keys; the merged totals cover shipped entries only, so the
/// cluster document reports no unmonitored-count bound (0).
fn hotkeys_page(ctx: &NodeContext, req: &Request) -> Response {
    let pairs = req.target.query_pairs();
    let n = pairs
        .iter()
        .find(|(k, _)| k == "n")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(32);
    let cluster = pairs.iter().any(|(k, v)| k == "cluster" && v != "0");
    let body = if cluster {
        let scraped = collect_cluster(ctx);
        let lists: Vec<Vec<HeatEntry>> = scraped
            .iter()
            .filter_map(|s| s.stats.as_ref().map(|st| st.hotkeys.clone()))
            .collect();
        let total: u64 = lists.iter().flatten().map(|e| e.count).sum();
        let merged = swala_obs::merge_hotkeys(&lists, n);
        swala_obs::render_hotkeys_json(ctx.manager.heat().capacity(), total, 0, &merged)
    } else {
        ctx.manager.heat().to_json(n)
    };
    Response::ok("application/json", body.into_bytes())
}

/// The whole registry in Prometheus text exposition format. Rendering
/// reads live atomics; no locks are held across the scrape.
fn metrics_page(ctx: &NodeContext) -> Response {
    let body = ctx.telemetry.registry().render();
    Response::ok("text/plain; version=0.0.4", body.into_bytes())
}

fn threads_page() -> Response {
    match crate::threads::cpu_by_role() {
        Ok(roles) => Response::ok(
            "text/plain; version=0.0.4",
            crate::threads::render(&roles).into_bytes(),
        ),
        Err(e) => {
            let mut r = Response::ok("text/plain", format!("/proc/self/task: {e}\n"));
            r.status = StatusCode::SERVICE_UNAVAILABLE;
            r
        }
    }
}

/// The last `n` completed traces (`?n=K`, default 32), oldest first.
/// `?slow=1` switches to the slow-exemplar set: the slowest retained
/// traces per outcome class, which survive ring churn.
fn traces_page(ctx: &NodeContext, req: &Request) -> Response {
    let pairs = req.target.query_pairs();
    if pairs.iter().any(|(k, v)| k == "slow" && v != "0") {
        return Response::ok(
            "application/json",
            ctx.telemetry.slow_traces_json().into_bytes(),
        );
    }
    let n = pairs
        .iter()
        .find(|(k, _)| k == "n")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(32);
    Response::ok(
        "application/json",
        ctx.telemetry.traces_json(n).into_bytes(),
    )
}

fn status_page(ctx: &NodeContext) -> Response {
    let http = ctx.stats.snapshot();
    let cache = ctx.manager.stats().snapshot();
    let dir = ctx.manager.directory();
    let mut tables = String::new();
    for n in 0..dir.num_nodes() {
        let id = swala_cache::NodeId(n as u16);
        tables.push_str(&format!(
            "<tr><td>node{n}{}</td><td>{}</td></tr>\n",
            if id == ctx.node { " (this node)" } else { "" },
            dir.len(id),
        ));
    }
    // Directory mode line plus, in partitioned mode, the ring's key-space
    // ownership shares.
    let placement = ctx.manager.placement();
    let mut dirmode = format!("directory={}", placement.kind().as_str());
    let mut ring_section = String::new();
    if let Some(ring) = placement.ring() {
        dirmode.push_str(&format!(" ring_vnodes={}", ring.vnodes()));
        let mut rows = String::new();
        for (id, share) in ring.shares() {
            rows.push_str(&format!(
                "<tr><td>node{}{}</td><td>{:.2}%</td></tr>\n",
                id.0,
                if id == ctx.node { " (this node)" } else { "" },
                share * 100.0,
            ));
        }
        ring_section = format!(
            "<h2>Key-space ownership (consistent-hash ring)</h2>\
             <table border=1><tr><th>home node</th><th>hash-space share</th></tr>\
             {rows}</table>"
        );
    }
    let mut health = String::new();
    for h in ctx.health.snapshot() {
        health.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            h.peer,
            h.state.as_str(),
            h.consecutive_failures,
            h.total_failures,
            h.total_quarantines,
        ));
    }
    if health.is_empty() {
        health.push_str("<tr><td colspan=5>no peer traffic yet</td></tr>\n");
    }
    let (bcast_sent, bcast_dropped) = ctx.broadcaster.counters();
    let mut links = String::new();
    for l in ctx.broadcaster.link_stats() {
        links.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            l.peer,
            l.addr,
            l.queued,
            l.sent,
            l.frames,
            l.notices_per_frame(),
            l.hold.as_micros(),
            l.sent_immediate,
            l.sent_after_hold,
            l.dropped,
            if l.connected { "yes" } else { "no" },
        ));
    }
    let sm = ctx.manager.bodies().metrics();
    let mut store = format!(
        "store={} file_bytes={} live_bytes={} free_bytes={} fsyncs={}",
        sm.kind, sm.file_bytes, sm.live_bytes, sm.free_bytes, sm.fsyncs,
    );
    for (op, hist) in ctx.manager.bodies().op_durations() {
        let h = hist.snapshot();
        store.push_str(&format!(
            "\n{op}: count={} p50_us={} p99_us={}",
            h.count,
            h.p50(),
            h.p99()
        ));
    }
    let pool = ctx.fetch_pool.stats();
    let eng = &ctx.engine_stats;
    let engine = format!(
        "open_connections={} idle_connections={} parks={} \
         read_calls={} reads_per_request={:.2}",
        eng.open_connections.get(),
        eng.idle_connections.get(),
        eng.parks(),
        http.read_calls,
        http.read_calls as f64 / http.requests.max(1) as f64,
    );
    let mut latency = String::new();
    for outcome in swala_obs::Outcome::ALL {
        let snap = ctx.telemetry.outcome_snapshot(outcome);
        if snap.count == 0 {
            continue;
        }
        latency.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            outcome.as_str(),
            snap.count,
            snap.p50(),
            snap.p99(),
            snap.max,
        ));
    }
    if latency.is_empty() {
        latency.push_str("<tr><td colspan=5>no completed requests yet</td></tr>\n");
    }
    let uptime = ctx.started.elapsed().as_secs();
    let body = format!(
        "<html><head><title>Swala status — {node}</title></head><body>\
         <h1>Swala node {node}</h1>\
         <p>swala v{version} &middot; node {node} &middot; up {uptime}s</p>\
         <h2>HTTP</h2><pre>{http}</pre>\
         <h2>Engine</h2><pre>{engine}</pre>\
         <h2>Cache</h2><pre>{cache}</pre>\
         <h2>Body store</h2><pre>{store}</pre>\
         <h2>Fetch pool</h2><pre>{pool}</pre>\
         <h2>Latency by outcome (&micro;s)</h2>\
         <table border=1>\
         <tr><th>outcome</th><th>count</th><th>p50</th><th>p99</th>\
         <th>max</th></tr>{latency}</table>\
         <p><a href=\"/swala-metrics\">metrics</a> &middot; \
         <a href=\"/swala-threads\">threads</a> &middot; \
         <a href=\"/swala-traces\">traces</a> &middot; \
         <a href=\"/swala-traces?slow=1\">slow traces</a> &middot; \
         <a href=\"/swala-hotkeys\">hotkeys</a> &middot; \
         <a href=\"/swala-cluster-metrics\">cluster metrics</a> &middot; \
         <a href=\"/swala-cluster-status\">cluster status</a></p>\
         <h2>Directory ({dirmode}; entries per node table)</h2>\
         <table border=1>{tables}</table>\
         {ring_section}\
         <h2>Peer health</h2>\
         <table border=1>\
         <tr><th>peer</th><th>state</th><th>streak</th><th>failures</th>\
         <th>quarantines</th></tr>{health}</table>\
         <h2>Broadcast links ({bcast_sent} sent, {bcast_dropped} dropped)</h2>\
         <table border=1>\
         <tr><th>peer</th><th>addr</th><th>queued</th><th>sent</th>\
         <th>frames</th><th>notices/frame</th><th>hold (&micro;s)</th>\
         <th>immediate</th><th>after hold</th>\
         <th>dropped</th><th>connected</th></tr>{links}</table>\
         </body></html>\n",
        node = ctx.node,
        version = env!("CARGO_PKG_VERSION"),
    );
    Response::ok("text/html", body.into_bytes())
}

fn invalidate(ctx: &NodeContext, req: &Request) -> Response {
    let Some(raw_key) = req
        .target
        .query_pairs()
        .into_iter()
        .find(|(k, _)| k == "key")
        .map(|(_, v)| v)
    else {
        let mut r = Response::ok("text/plain", "missing ?key= parameter\n");
        r.status = StatusCode::BAD_REQUEST;
        return r;
    };
    let key = CacheKey::new(&raw_key);
    match ctx.manager.directory().classify(&key) {
        Classification::Local(_) => {
            if let Some(dead) = ctx.manager.remove_local(&key) {
                swala_proto::announce_delete(&ctx.manager, &ctx.broadcaster, dead.owner, &dead.key);
            }
            Response::ok("text/plain", format!("invalidated local entry {key}\n"))
        }
        Classification::Remote(meta) => forward_invalidate(ctx, &key, meta.owner),
        // A node that is not one of the key's homes is silent about it,
        // so ask the home before declaring the key uncached.
        Classification::NotCached => match ctx.ask_home(&key, &mut Trace::disabled()) {
            Ok(Some(meta)) => forward_invalidate(ctx, &key, meta.owner),
            _ => Response::ok("text/plain", format!("no cached entry for {key}\n")),
        },
    }
}

/// Forward an invalidation to the entry's owner node, under the same
/// client rules as a fetch: the node's dialer, the quarantine gate and
/// peer-health bookkeeping.
fn forward_invalidate(ctx: &NodeContext, key: &CacheKey, owner: NodeId) -> Response {
    let sent = match ctx.peer_to_ask(owner) {
        Err(why) => Err(format!("owner {owner} not asked ({why})")),
        Ok(addr) => match request_invalidate(&ctx.dialer, owner, addr, key, FETCH_TIMEOUT) {
            Ok(()) => {
                ctx.health.record_success(owner);
                Ok(())
            }
            Err(e) => {
                ctx.note_peer_failure(owner);
                Err(format!("owner {owner} unreachable: {e}"))
            }
        },
    };
    match sent {
        Ok(()) => Response::ok(
            "text/plain",
            format!("invalidation forwarded to owner {owner}\n"),
        ),
        Err(msg) => {
            let mut r = Response::ok("text/plain", msg + "\n");
            r.status = StatusCode::BAD_GATEWAY;
            r
        }
    }
}
