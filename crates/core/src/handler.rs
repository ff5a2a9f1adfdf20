//! Figure 2: the per-request control flow.
//!
//! `handle_request` is invoked by a pool thread that owns the request
//! "from parsing to completion". Everything it needs hangs off the shared
//! [`NodeContext`].

use crate::files::serve_file_conditional;
use crate::stats::RequestStats;
use parking_lot::RwLock;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala_cache::{
    CacheDecision, CacheKey, CacheManager, CacheStats, FallbackStart, FlightWaitOutcome,
    FlightWaiter, InsertOutcome, LookupResult, NodeId,
};
use swala_cgi::{CgiOutput, CgiRequest, Program, ProgramRegistry};
use swala_http::{Method, Request, Response, StatusCode};
use swala_obs::{Outcome, Stage, Telemetry, Trace};
use swala_proto::{
    announce, announce_delete, Broadcaster, Dialer, FetchOutcome, FetchPool, HealthTracker,
    Message, PeerState, RetryPolicy,
};

/// Value of the diagnostic `X-Swala-Cache` response header.
pub mod cache_header {
    pub const NAME: &str = "X-Swala-Cache";
    pub const UNCACHEABLE: &str = "uncacheable";
    pub const MISS: &str = "miss";
    pub const LOCAL_HIT: &str = "local-hit";
    pub const REMOTE_HIT: &str = "remote-hit";
    pub const FALSE_HIT: &str = "false-hit-fallback";
    pub const REMOTE_DOWN: &str = "remote-unreachable-fallback";
    pub const QUARANTINED: &str = "quarantined-peer-fallback";
    pub const HOME_DOWN: &str = "home-unreachable-fallback";
    pub const COALESCED: &str = "coalesced-hit";
    pub const COALESCE_FALLBACK: &str = "coalesce-fallback";
    pub const DISABLED: &str = "disabled";
}

/// Shared state one node's request threads operate on.
pub struct NodeContext {
    pub node: NodeId,
    pub server_name: String,
    pub caching_enabled: bool,
    pub fetch_timeout: Duration,
    pub docroot: Option<PathBuf>,
    pub registry: ProgramRegistry,
    pub manager: Arc<CacheManager>,
    pub broadcaster: Arc<Broadcaster>,
    /// Cache-protocol address of every node, indexed by `NodeId`.
    /// Filled in when the cluster is wired; `None` = unknown peer.
    pub cache_addrs: RwLock<Vec<Option<SocketAddr>>>,
    pub stats: Arc<RequestStats>,
    /// Metrics registry + trace ring shared by the request pool, the
    /// cache daemons and the admin endpoints.
    pub telemetry: Arc<Telemetry>,
    /// Port reported to CGI programs as `SERVER_PORT`.
    pub http_port: u16,
    /// Common-Log-Format access log, when configured.
    pub access_log: Option<crate::accesslog::AccessLog>,
    /// How remote fetch/sync sessions are opened (chaos tests inject
    /// faults here; production uses the plain TCP dialer).
    pub dialer: Dialer,
    /// Warm per-peer fetch connections (dials through `dialer`).
    pub fetch_pool: Arc<FetchPool>,
    /// Bounded retry-with-backoff for remote fetches.
    pub retry_policy: RetryPolicy,
    /// Per-peer quarantine tracking, fed by fetch outcomes.
    pub health: Arc<HealthTracker>,
    /// Request-pool gauges (open and idle connections, parks).
    pub engine_stats: Arc<crate::stats::EngineStats>,
    /// When the node started (uptime on `/swala-status`).
    pub started: Instant,
    /// Peers whose stats pull failed during a cluster scrape
    /// (`swala_cluster_scrape_failures`).
    pub scrape_failures: Arc<std::sync::atomic::AtomicU64>,
}

impl NodeContext {
    fn peer_cache_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.cache_addrs.read().get(node.index()).copied().flatten()
    }

    /// Close a served request's trace and write its access-log line.
    /// The line is the trace summary's only reader, so the summary is
    /// formatted only when a log is configured.
    pub(crate) fn finish_request(&self, peer: &str, req: &Request, resp: &Response, trace: Trace) {
        match &self.access_log {
            Some(log) => {
                let summary = self.telemetry.finish(trace);
                log.log_with(peer, req, resp, summary.as_ref());
            }
            None => self.telemetry.record(trace),
        }
    }
}

/// Handle one parsed request, producing the response to write. `target`
/// is `req.target.cache_key_string()`, formatted once by the connection
/// loop for the trace and reused here as the cache key. Spans and the
/// cache outcome land on `trace`; the connection loop finishes the trace
/// after the response write (and writes the access-log line, which
/// carries the trace summary).
pub fn handle_request(
    ctx: &NodeContext,
    req: &Request,
    target: &str,
    remote_addr: &str,
    trace: &mut Trace,
) -> Response {
    RequestStats::bump(&ctx.stats.requests);
    let mut resp = route(ctx, req, target, remote_addr, trace);
    resp.set_server(&ctx.server_name);
    resp.headers
        .set("Date", swala_http::date::http_date_cached());
    if resp.status.is_client_error() {
        RequestStats::bump(&ctx.stats.client_errors);
    } else if resp.status.is_server_error() {
        RequestStats::bump(&ctx.stats.server_errors);
    }
    RequestStats::add(&ctx.stats.bytes_sent, resp.body.len() as u64);
    resp
}

fn route(
    ctx: &NodeContext,
    req: &Request,
    target: &str,
    remote_addr: &str,
    trace: &mut Trace,
) -> Response {
    let path = req.target.path.as_str();
    // Reserved administrative paths take precedence over programs/files.
    if crate::admin::is_admin_path(path) {
        trace.set_outcome(Outcome::Other);
        return crate::admin::handle_admin(ctx, req);
    }
    if ctx.registry.is_dynamic(path) {
        RequestStats::bump(&ctx.stats.dynamic);
        return handle_dynamic(ctx, req, target, remote_addr, trace);
    }
    RequestStats::bump(&ctx.stats.static_files);
    trace.set_outcome(Outcome::Static);
    match &ctx.docroot {
        Some(root) => serve_file_conditional(root, path, req.headers.get("If-Modified-Since")),
        None => Response::error(StatusCode::NOT_FOUND),
    }
}

/// What a CGI execution is made from. The program-facing request view
/// costs a dozen allocations, so it is built ([`Exec::request`]) only on
/// the branches that execute: a hit never pays for a run it skips.
struct Exec<'a> {
    program: &'a dyn Program,
    req: &'a Request,
    remote_addr: &'a str,
}

impl Exec<'_> {
    fn request(&self, ctx: &NodeContext) -> CgiRequest {
        CgiRequest::from_http(self.req, self.remote_addr, &ctx.server_name, ctx.http_port)
    }
}

/// The dynamic-request flow of Figure 2.
fn handle_dynamic(
    ctx: &NodeContext,
    req: &Request,
    target: &str,
    remote_addr: &str,
    trace: &mut Trace,
) -> Response {
    let program = match ctx.registry.resolve(req.target.path.as_str()) {
        Some(Some(p)) => p,
        Some(None) => return Response::error(StatusCode::NOT_FOUND),
        None => unreachable!("route() checked is_dynamic"),
    };
    let exec = &Exec {
        program: program.as_ref(),
        req,
        remote_addr,
    };

    // Only GET results participate in caching; POST always executes.
    if !ctx.caching_enabled || !req.method.is_cacheable() {
        let tag = if ctx.caching_enabled {
            cache_header::UNCACHEABLE
        } else {
            cache_header::DISABLED
        };
        return execute_plain(ctx, exec, tag, trace);
    }

    let key = CacheKey::new(target);
    match ctx.manager.lookup_traced(&key, key.as_str(), trace) {
        LookupResult::Uncacheable => execute_plain(ctx, exec, cache_header::UNCACHEABLE, trace),
        LookupResult::LocalHit { meta, body, tier } => {
            RequestStats::bump(&ctx.stats.served_local_cache);
            trace.set_outcome(match tier {
                swala_cache::BodyTier::Memory => Outcome::LocalMem,
                swala_cache::BodyTier::Disk => Outcome::LocalDisk,
            });
            let mut resp = Response::ok(&meta.content_type, body);
            resp.headers
                .set(cache_header::NAME, cache_header::LOCAL_HIT);
            resp
        }
        LookupResult::RemoteHit { meta } => handle_remote_hit(ctx, exec, key, meta, trace),
        LookupResult::Miss { decision, .. } => {
            // Partitioned directory: a local miss is not yet a cluster
            // miss — the key's home node holds the authoritative entry.
            // Ask it before executing (unless this node *is* the home,
            // in which case the local miss was already authoritative).
            if let Some(home) = ctx.manager.home_node(&key) {
                if home != ctx.node {
                    return resolve_miss_via_home(ctx, exec, key, decision, home, trace);
                }
            }
            execute_and_cache(ctx, exec, key, decision, cache_header::MISS, trace)
        }
        LookupResult::CoalesceWait { decision, waiter } => {
            wait_and_serve(ctx, exec, key, decision, waiter, trace)
        }
    }
}

/// Single-flight wait: park behind the identical in-flight execution and
/// serve its body. On leader failure or timeout, fall back to executing
/// (registered first, so the fallback is itself coalesce-visible).
fn wait_and_serve(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    decision: CacheDecision,
    waiter: FlightWaiter,
    trace: &mut Trace,
) -> Response {
    let t0 = trace.start_span();
    let outcome = ctx.manager.wait_flight(waiter);
    trace.end_span(Stage::CoalesceWait, t0);
    match outcome {
        FlightWaitOutcome::Served { content_type, body } => {
            RequestStats::bump(&ctx.stats.served_local_cache);
            // Latency-faithful: a coalesced request still paid (most of)
            // the miss latency, so it lands in the miss histogram.
            trace.set_outcome(Outcome::Miss);
            let mut resp = Response::ok(&content_type, body);
            resp.headers
                .set(cache_header::NAME, cache_header::COALESCED);
            resp
        }
        FlightWaitOutcome::LeaderFailed | FlightWaitOutcome::TimedOut => {
            ctx.manager.begin_forced_execution(&key);
            execute_and_cache(
                ctx,
                exec,
                key,
                decision,
                cache_header::COALESCE_FALLBACK,
                trace,
            )
        }
    }
}

/// Figure 2's "Fetch from remote cache" edge, including the false-hit
/// fallback ("when node A receives the miss response, it will execute the
/// CGI request locally").
fn handle_remote_hit(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    meta: swala_cache::EntryMeta,
    trace: &mut Trace,
) -> Response {
    trace.set_owner(meta.owner.0);
    let Some(addr) = ctx.peer_cache_addr(meta.owner) else {
        // Cluster wiring incomplete: behave like an unreachable peer.
        return execute_fallback(ctx, exec, key, cache_header::REMOTE_DOWN, trace);
    };
    // Quarantine gate: a peer declared dead is skipped without touching
    // the network (no connect-timeout tax), except when its probe window
    // has elapsed — then this very fetch doubles as the probe.
    if !ctx.health.should_attempt(meta.owner) {
        RequestStats::bump(&ctx.stats.quarantine_skips);
        return execute_fallback(ctx, exec, key, cache_header::QUARANTINED, trace);
    }
    // The trace id rides in the fetch request, so the owner records
    // correlated spans under the same id.
    let t0 = trace.start_span();
    let (outcome, attempts) = ctx.fetch_pool.fetch(
        meta.owner,
        addr,
        &key,
        ctx.fetch_timeout,
        &ctx.retry_policy,
        trace.id(),
    );
    trace.end_span(Stage::RemoteFetch, t0);
    if attempts > 1 {
        RequestStats::add(&ctx.stats.fetch_retries, (attempts - 1) as u64);
        trace.add_remote_attempts(attempts - 1);
    }
    trace.add_remote_attempts(1);
    match outcome {
        FetchOutcome::Hit { content_type, body } => {
            ctx.health.record_success(meta.owner);
            RequestStats::bump(&ctx.stats.served_remote_cache);
            trace.set_outcome(Outcome::Remote);
            // Heat-sketch cost attribution: a remote hit's wire time is
            // this key's cost, like exec time is a miss's. `t0` is None
            // exactly when obs is off, and the sketch is disabled then.
            if let Some(t0) = t0 {
                ctx.manager
                    .heat()
                    .add_cost(key.as_str(), t0.elapsed().as_micros() as u64);
            }
            let mut resp = Response::ok(&content_type, body);
            resp.headers
                .set(cache_header::NAME, cache_header::REMOTE_HIT);
            resp
        }
        FetchOutcome::Gone => {
            // A reply — even "gone" — proves the peer is alive.
            ctx.health.record_success(meta.owner);
            ctx.manager.note_false_hit(meta.owner, &key);
            // Directory repair: the owner no longer has this entry, so
            // every other record pointing at it is stale too. Announce
            // the deletion on the owner's behalf (it may have restarted
            // with no memory of its old advertisements) — a broadcast in
            // replicated mode, one update to the home in partitioned.
            announce_delete(&ctx.manager, &ctx.broadcaster, meta.owner, &key);
            execute_fallback(ctx, exec, key, cache_header::FALSE_HIT, trace)
        }
        FetchOutcome::Unreachable(_) => {
            // Peer down ≠ entry gone: the directory entry survives a
            // transient failure. But on the transition into quarantine
            // (consecutive-failure threshold crossed) the peer is treated
            // as dead: evict everything it advertises and broadcast
            // `NodeDown` so the whole cluster stops taking false hits on
            // a corpse.
            if ctx.health.record_failure(meta.owner) == Some(PeerState::Quarantined) {
                ctx.manager.evict_node(meta.owner);
                // Its parked connections are dead weight now.
                ctx.fetch_pool.purge_peer(meta.owner);
                ctx.broadcaster
                    .broadcast(&Message::NodeDown { node: meta.owner });
                CacheStats::bump(&ctx.manager.stats().broadcasts_sent);
            }
            execute_fallback(ctx, exec, key, cache_header::REMOTE_DOWN, trace)
        }
    }
}

/// Partitioned-mode miss resolution: this node's directory has no entry
/// for `key`, but `home` is the ring-assigned authority — ask it before
/// executing. Every failure along the way degrades to local execution:
/// the home's answer is an optimization, never a requirement. The caller
/// holds the miss execution slot throughout, so concurrent identical
/// requests coalesce behind this resolution.
fn resolve_miss_via_home(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    decision: CacheDecision,
    home: NodeId,
    trace: &mut Trace,
) -> Response {
    let Some(home_addr) = ctx.peer_cache_addr(home) else {
        // Cluster wiring incomplete: behave like an unreachable home.
        return execute_and_cache(ctx, exec, key, decision, cache_header::HOME_DOWN, trace);
    };
    // Quarantine gate, as on the owner-fetch path: a home declared dead
    // is skipped without touching the network.
    if !ctx.health.should_attempt(home) {
        RequestStats::bump(&ctx.stats.quarantine_skips);
        return execute_and_cache(ctx, exec, key, decision, cache_header::HOME_DOWN, trace);
    }
    let t0 = trace.start_span();
    let answer = ctx
        .fetch_pool
        .dir_lookup(home, home_addr, &key, ctx.fetch_timeout, trace.id());
    trace.end_span(Stage::DirLookup, t0);
    let meta = match answer {
        Ok((_, meta)) => {
            ctx.health.record_success(home);
            meta
        }
        Err(_) => {
            // Home unreachable: same quarantine bookkeeping as a failed
            // owner fetch, then execute locally (replicated-style
            // degradation — correctness never depends on the home).
            if ctx.health.record_failure(home) == Some(PeerState::Quarantined) {
                ctx.manager.evict_node(home);
                ctx.fetch_pool.purge_peer(home);
                ctx.broadcaster.broadcast(&Message::NodeDown { node: home });
                CacheStats::bump(&ctx.manager.stats().broadcasts_sent);
            }
            return execute_and_cache(ctx, exec, key, decision, cache_header::HOME_DOWN, trace);
        }
    };
    let Some(meta) = meta else {
        // The home has no record: a true cluster-wide miss.
        return execute_and_cache(ctx, exec, key, decision, cache_header::MISS, trace);
    };
    if meta.owner == ctx.node {
        // The home says *we* own it, but we just missed locally: its
        // record is stale (e.g. a lost delete). Repair it and execute.
        announce_delete(&ctx.manager, &ctx.broadcaster, meta.owner, &key);
        return execute_and_cache(ctx, exec, key, decision, cache_header::MISS, trace);
    }
    fetch_body_from_owner(ctx, exec, key, decision, meta, trace)
}

/// Fetch the body from the owner a home-node lookup named. Unlike
/// [`handle_remote_hit`], the caller holds the miss execution slot: a hit
/// is published to coalesced waiters via `complete_remote_serve` (which
/// releases the slot without inserting), and fallbacks execute directly.
fn fetch_body_from_owner(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    decision: CacheDecision,
    meta: swala_cache::EntryMeta,
    trace: &mut Trace,
) -> Response {
    trace.set_owner(meta.owner.0);
    let Some(addr) = ctx.peer_cache_addr(meta.owner) else {
        return execute_and_cache(ctx, exec, key, decision, cache_header::REMOTE_DOWN, trace);
    };
    if !ctx.health.should_attempt(meta.owner) {
        RequestStats::bump(&ctx.stats.quarantine_skips);
        return execute_and_cache(ctx, exec, key, decision, cache_header::QUARANTINED, trace);
    }
    let t0 = trace.start_span();
    let (outcome, attempts) = ctx.fetch_pool.fetch(
        meta.owner,
        addr,
        &key,
        ctx.fetch_timeout,
        &ctx.retry_policy,
        trace.id(),
    );
    trace.end_span(Stage::RemoteFetch, t0);
    if attempts > 1 {
        RequestStats::add(&ctx.stats.fetch_retries, (attempts - 1) as u64);
        trace.add_remote_attempts(attempts - 1);
    }
    trace.add_remote_attempts(1);
    match outcome {
        FetchOutcome::Hit { content_type, body } => {
            ctx.health.record_success(meta.owner);
            RequestStats::bump(&ctx.stats.served_remote_cache);
            // The local lookup said Miss (this node's directory has no
            // entry), but cluster-wide this is a remote hit: reclassify
            // so hit/miss accounting matches replicated mode, where the
            // directory replica classifies Remote up front.
            CacheStats::debit(&ctx.manager.stats().misses);
            CacheStats::bump(&ctx.manager.stats().remote_hits);
            trace.set_outcome(Outcome::Remote);
            if let Some(t0) = t0 {
                ctx.manager
                    .heat()
                    .add_cost(key.as_str(), t0.elapsed().as_micros() as u64);
            }
            ctx.manager
                .complete_remote_serve(&key, &content_type, Arc::from(body.as_slice()));
            let mut resp = Response::ok(&content_type, body);
            resp.headers
                .set(cache_header::NAME, cache_header::REMOTE_HIT);
            resp
        }
        FetchOutcome::Gone => {
            // A reply — even "gone" — proves the peer is alive. The
            // home's record was stale; repair it on the owner's behalf.
            // Reclassify the miss as a (false) remote hit so counters
            // match replicated mode, where a false hit starts life as a
            // Remote classification: lookups == hits + misses and
            // executions == misses + false_hits both keep holding.
            ctx.health.record_success(meta.owner);
            CacheStats::debit(&ctx.manager.stats().misses);
            CacheStats::bump(&ctx.manager.stats().remote_hits);
            ctx.manager.note_false_hit(meta.owner, &key);
            announce_delete(&ctx.manager, &ctx.broadcaster, meta.owner, &key);
            execute_and_cache(ctx, exec, key, decision, cache_header::FALSE_HIT, trace)
        }
        FetchOutcome::Unreachable(_) => {
            if ctx.health.record_failure(meta.owner) == Some(PeerState::Quarantined) {
                ctx.manager.evict_node(meta.owner);
                ctx.fetch_pool.purge_peer(meta.owner);
                ctx.broadcaster
                    .broadcast(&Message::NodeDown { node: meta.owner });
                CacheStats::bump(&ctx.manager.stats().broadcasts_sent);
            }
            execute_and_cache(ctx, exec, key, decision, cache_header::REMOTE_DOWN, trace)
        }
    }
}

/// Start a fallback execution (false hit, unreachable or quarantined
/// peer) — unless an identical execution is already in flight and
/// coalescing is on, in which case park behind it instead of
/// double-executing.
fn execute_fallback(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    tag: &'static str,
    trace: &mut Trace,
) -> Response {
    // Re-derive the rules decision for the fallback execution path (the
    // original lookup returned RemoteHit, which carries no decision).
    let decision = ctx.manager.lookup_decision(key.as_str());
    match ctx.manager.begin_fallback_execution(&key) {
        FallbackStart::Execute => execute_and_cache(ctx, exec, key, decision, tag, trace),
        FallbackStart::Wait(waiter) => wait_and_serve(ctx, exec, key, decision, waiter, trace),
    }
}

/// Execute without any cache interaction.
fn execute_plain(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    tag: &'static str,
    trace: &mut Trace,
) -> Response {
    RequestStats::bump(&ctx.stats.executions);
    trace.set_outcome(Outcome::Uncacheable);
    let cgi_req = exec.request(ctx);
    let t0 = trace.start_span();
    let result = exec.program.run(&cgi_req);
    trace.end_span(Stage::CgiExec, t0);
    match result {
        Ok(out) => {
            let mut resp = output_to_response(out);
            resp.headers.set(cache_header::NAME, tag);
            resp
        }
        Err(_) => Response::error(StatusCode::INTERNAL_SERVER_ERROR),
    }
}

/// Execute, then run Figure 2's bottom half: threshold check, store,
/// directory insert, broadcast.
fn execute_and_cache(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    decision: CacheDecision,
    tag: &'static str,
    trace: &mut Trace,
) -> Response {
    RequestStats::bump(&ctx.stats.executions);
    trace.set_outcome(Outcome::Miss);
    let cgi_req = exec.request(ctx);
    let started = Instant::now();
    let out = match exec.program.run(&cgi_req) {
        Ok(out) => out,
        Err(_) => {
            ctx.manager.abort_execution(&key);
            return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
        }
    };
    let exec = started.elapsed();
    // The execution timer doubles as the cgi-exec span — one Instant
    // pair serves both the cache's cost metadata and the trace.
    trace.record_span(Stage::CgiExec, started, started + exec);

    // Only 200s are cacheable; an error result is returned but not kept.
    if out.status != StatusCode::OK {
        ctx.manager.abort_execution(&key);
        let mut resp = output_to_response(out);
        resp.headers.set(cache_header::NAME, tag);
        return resp;
    }

    match ctx
        .manager
        .complete_execution(&key, &out.body, &out.content_type, exec, &decision)
    {
        Ok(InsertOutcome::Inserted { meta, evicted }) => {
            // Mode-routed announcements: a broadcast to every peer in
            // replicated mode, one point-to-point update to the key's
            // home node in partitioned mode.
            let t0 = trace.start_span();
            announce(&ctx.manager, &ctx.broadcaster, &meta, &evicted);
            trace.end_span(Stage::BroadcastEnqueue, t0);
        }
        Ok(InsertOutcome::Discarded) => {}
        Err(_) => {
            // Store write failed (disk full...): the response is still
            // good; the cache just doesn't keep it.
        }
    }
    let mut resp = output_to_response(out);
    resp.headers.set(cache_header::NAME, tag);
    resp
}

fn output_to_response(out: CgiOutput) -> Response {
    let mut resp = Response::ok(&out.content_type, out.body);
    resp.status = out.status;
    resp
}

/// HEAD requests reuse the GET path; the connection loop suppresses the
/// body. POST bodies reach programs through `CgiRequest::from_http`.
pub fn response_body_allowed(method: Method) -> bool {
    method.response_has_body()
}
