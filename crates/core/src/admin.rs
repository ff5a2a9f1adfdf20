//! Administrative endpoints.
//!
//! Reserved paths, in the spirit of 1998 server status screens:
//!
//! * `GET /swala-status` — this node's metrics registry as an HTML page:
//!   every series, four ratios of them, every histogram's quantiles;
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
//! * `GET /swala-cluster-status` — that page for every reachable node,
//!   then merged latency histograms and the cluster-wide hot keys;
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
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use swala_cache::directory::Classification;
use swala_cache::flow::{peer_mark, Event};
use swala_cache::{CacheKey, NodeId};
use swala_http::{Request, Response, StatusCode};
use swala_obs::{lookup, HeatEntry, MetricSnapshot, MetricValue, Trace};
use swala_proto::{request_invalidate, NodeStats, PeerError};

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
    /// `ok`, or why `stats` is missing: `unreachable`, `quarantined`, `unknown-addr`.
    state: &'static str,
    stats: Option<NodeStats>,
}

/// Pull every peer's stats snapshot over the fetch pool; this node's
/// own snapshot is read directly, after the peers', so that it includes
/// this very scrape's failure counts.
fn collect_cluster(ctx: &NodeContext) -> Vec<ScrapedNode> {
    let mut out: Vec<ScrapedNode> = (0..ctx.cache_addrs.len() as u16)
        .map(|i| {
            let node = NodeId(i);
            let (state, stats) = match node == ctx.node {
                true => ("ok", None),
                false => scrape_peer(ctx, node),
            };
            ScrapedNode { node, state, stats }
        })
        .collect();
    out[ctx.node.index()].stats = Some(NodeStats {
        node: ctx.node,
        metrics: ctx.telemetry.registry().snapshot(),
        hotkeys: ctx.manager.heat().top(SCRAPE_HOTKEYS),
    });
    out
}

/// One peer's stats snapshot, or why there is none. A failure degrades
/// the view to the reachable subset: it bumps
/// `swala_cluster_scrape_failures` and feeds the shared health tracker
/// exactly like a failed body fetch (including the quarantine-transition
/// bookkeeping), so an admin scrape both benefits from and contributes to
/// peer-health evidence.
fn scrape_peer(ctx: &NodeContext, peer: NodeId) -> (&'static str, Option<NodeStats>) {
    let Some(addr) = ctx.peer_cache_addr(peer) else {
        return ("unknown-addr", None);
    };
    // Quarantine gate, as on the fetch path: a peer declared dead is
    // skipped without touching the network. The view still went
    // partial, so the scrape-failure counter covers skips too.
    if !ctx.health.should_attempt(peer) {
        ctx.scrape_failures.fetch_add(1, Ordering::Relaxed);
        return ("quarantined", None);
    }
    match ctx.fetch_pool.stats_pull(peer, addr, FETCH_TIMEOUT, None) {
        Ok(stats) => {
            ctx.health.record_success(peer);
            ("ok", Some(stats))
        }
        Err(e) => {
            ctx.scrape_failures.fetch_add(1, Ordering::Relaxed);
            if e != PeerError::Busy {
                ctx.note_peer_failure(peer);
            }
            ("unreachable", None)
        }
    }
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

/// The cluster at a glance: every scraped node's page, merged latency,
/// global hot keys.
fn cluster_status_page(ctx: &NodeContext) -> Response {
    let scraped = collect_cluster(ctx);
    let mut nodes = String::new();
    for s in &scraped {
        let _ = match &s.stats {
            Some(st) => write!(
                nodes,
                "<h2>{}</h2>{}",
                s.node,
                render_node(s.node, &st.metrics)
            ),
            None => write!(
                nodes,
                "<h2>{}</h2><p>{}: no snapshot (partial scrape)</p>",
                s.node, s.state
            ),
        };
    }
    // Merged per-outcome latency: raw bucket sums across nodes, so the
    // quantiles are those of one cluster-wide histogram, not an average
    // of per-node quantiles.
    let mut merged: Vec<MetricSnapshot> = Vec::new();
    let reachable = scraped.iter().filter_map(|s| s.stats.as_ref());
    for m in reachable.flat_map(|st| &st.metrics) {
        if m.name != "swala_request_duration_microseconds" {
            continue;
        }
        match (merged.iter_mut().find(|a| a.label == m.label), &m.value) {
            (Some(sum), MetricValue::Histogram(h)) => {
                if let MetricValue::Histogram(sum) = &mut sum.value {
                    sum.merge(h)
                }
            }
            _ => merged.push(m.clone()),
        }
    }
    let (_, latency) = series_rows(&merged);
    let lists: Vec<Vec<HeatEntry>> = scraped
        .iter()
        .filter_map(|s| s.stats.as_ref().map(|st| st.hotkeys.clone()))
        .collect();
    let mut hot = String::new();
    for e in swala_obs::merge_hotkeys(&lists, 16) {
        let (key, count, cost) = (html_escape(&e.key), e.count, e.cost_us);
        let lower = count - e.error;
        let _ = writeln!(
            hot,
            "<tr><td>{key}</td><td>{count}</td><td>{lower}</td><td>{cost}</td></tr>"
        );
    }
    let failures = ctx.scrape_failures.load(Ordering::Relaxed);
    let body = format!(
        "<html><head><title>Swala cluster — via node {node}</title></head><body>\
         <h1>Swala cluster (scraped by node {node}; {failures} scrape failures total)</h1>\
         {nodes}\
         <h2>Cluster latency by outcome (merged histograms)</h2>\
         <table border=1>{HISTOGRAM_HEAD}\n{latency}</table>\
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
    let n = count_asked(&pairs);
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
    let body = match pairs.iter().any(|(k, v)| k == "slow" && v != "0") {
        true => ctx.telemetry.slow_traces_json(),
        false => ctx.telemetry.traces_json(count_asked(&pairs)),
    };
    Response::ok("application/json", body.into_bytes())
}

/// The `?n=K` of a listing, 32 when absent.
fn count_asked(pairs: &[(String, String)]) -> usize {
    let n = pairs.iter().find(|(k, _)| k == "n");
    n.and_then(|(_, v)| v.parse().ok()).unwrap_or(32)
}

/// This node's page: its registry, drawn by [`render_node`].
fn status_page(ctx: &NodeContext) -> Response {
    let metrics = ctx.telemetry.registry().snapshot();
    let body = format!(
        "<html><head><title>Swala status — {node}</title></head><body>\
         <h1>Swala node {node}</h1>{page}\
         <p><a href=\"/swala-metrics\">metrics</a> &middot; \
         <a href=\"/swala-threads\">threads</a> &middot; \
         <a href=\"/swala-traces\">traces</a> &middot; \
         <a href=\"/swala-traces?slow=1\">slow traces</a> &middot; \
         <a href=\"/swala-hotkeys\">hotkeys</a> &middot; \
         <a href=\"/swala-cluster-metrics\">cluster metrics</a> &middot; \
         <a href=\"/swala-cluster-status\">cluster status</a></p>\
         </body></html>\n",
        node = ctx.node,
        page = render_node(ctx.node, &metrics),
    );
    Response::ok("text/html", body.into_bytes())
}

/// Every counter and gauge as a row of its series and value, and every
/// histogram as a row of its series, count, p50, p99 and max.
fn series_rows(metrics: &[MetricSnapshot]) -> (String, String) {
    let (mut values, mut histograms) = (String::new(), String::new());
    for m in metrics {
        let series = match &m.label {
            // A peer's label values arrive over the wire in its snapshot.
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", m.name, html_escape(k), html_escape(v)),
            None => m.name.clone(),
        };
        let _ = match &m.value {
            MetricValue::Counter(v) => writeln!(values, "<tr><td>{series}</td><td>{v}</td></tr>"),
            MetricValue::Gauge(v) => writeln!(values, "<tr><td>{series}</td><td>{v}</td></tr>"),
            MetricValue::Histogram(h) => writeln!(
                histograms,
                "<tr><td>{series}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                h.count,
                h.p50(),
                h.p99(),
                h.max
            ),
        };
    }
    (values, histograms)
}

/// `text` with HTML's five special characters escaped, for a page cell
/// holding what a client or a peer wrote.
fn html_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

const HISTOGRAM_HEAD: &str =
    "<tr><th>histogram</th><th>count</th><th>p50</th><th>p99</th><th>max</th></tr>";

/// Ratios a page shows beside the two series each is taken from. None
/// is a series of its own.
const RATIOS: [(&str, &str, &str); 4] = [
    (
        "reads per request",
        "swala_http_read_calls",
        "swala_http_requests",
    ),
    (
        "local hit rate",
        "swala_cache_local_hits",
        "swala_cache_lookups",
    ),
    (
        "remote hit rate",
        "swala_cache_remote_hits",
        "swala_cache_lookups",
    ),
    (
        "notices per frame",
        "swala_broadcast_sent",
        "swala_broadcast_frames",
    ),
];

/// One node's statistics as HTML, from its registry snapshot alone: a
/// header (version, node, uptime), then every counter and gauge as a row
/// named by its series, the [`RATIOS`] of rows it shows, and every
/// histogram as count, p50, p99 and max. `/swala-status` draws this
/// node with it and `/swala-cluster-status` every node it scraped.
fn render_node(node: NodeId, metrics: &[MetricSnapshot]) -> String {
    let version = metrics
        .iter()
        .find(|m| m.name == "swala_build_info")
        .and_then(|m| m.label.as_ref())
        .map_or("?", |(_, v)| v.as_str());
    let uptime = lookup(metrics, "swala_uptime_seconds", None).unwrap_or(0);
    let (values, histograms) = series_rows(metrics);
    let mut ratios = String::new();
    for (what, part, whole) in RATIOS {
        let [p, w] = [part, whole].map(|s| lookup(metrics, s, None).unwrap_or(0));
        let value = p as f64 / w.max(1) as f64;
        let _ = writeln!(
            ratios,
            "<tr><td>{what}</td><td>{part} &divide; {whole}</td><td>{value:.2}</td></tr>"
        );
    }
    format!(
        "<p>swala v{version} &middot; node {node} &middot; up {uptime}s</p>\
         <table border=1><tr><th>series</th><th>value</th></tr>\n{values}</table>\
         <table border=1><tr><th>ratio</th><th>of</th><th>value</th></tr>\n{ratios}</table>\
         <table border=1>{HISTOGRAM_HEAD}\n{histograms}</table>"
    )
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
        Classification::NotCached => {
            let homes = ctx.manager.placement().homes(&key);
            let mut answer = Event::Home(None);
            if !homes.contains(&ctx.node) {
                answer = ctx.ask_home(homes[0], &key, &mut Trace::disabled());
                ctx.note_peer(peer_mark(homes[0], answer));
            }
            match answer {
                Event::Home(Some(owner)) => forward_invalidate(ctx, &key, owner),
                _ => Response::ok("text/plain", format!("no cached entry for {key}\n")),
            }
        }
    }
}

/// Forward an invalidation to the entry's owner node, under the same
/// client rules as a fetch: the node's dialer, the quarantine gate and
/// peer-health bookkeeping.
fn forward_invalidate(ctx: &NodeContext, key: &CacheKey, owner: NodeId) -> Response {
    let sent = match ctx.peer_to_ask(owner) {
        Err(why) => Err(format!("owner {owner} not asked ({})", why.class())),
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
