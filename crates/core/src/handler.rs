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
    CacheDecision, CacheKey, CacheManager, CacheStats, EntryMeta, FallbackStart, FlightWaitOutcome,
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
    pub(crate) fn peer_cache_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.cache_addrs.read().get(node.index()).copied().flatten()
    }

    /// An exchange with `peer` failed. On the transition into quarantine
    /// (consecutive-failure threshold crossed) the peer is treated as
    /// dead: evict everything it advertises, drop its pooled connections
    /// and broadcast `NodeDown` so the whole cluster stops taking false
    /// hits on a corpse.
    pub(crate) fn note_peer_failure(&self, peer: NodeId) {
        if self.health.record_failure(peer) == Some(PeerState::Quarantined) {
            self.manager.evict_node(peer);
            self.fetch_pool.purge_peer(peer);
            self.broadcaster
                .broadcast(&Message::NodeDown { node: peer });
            CacheStats::bump(&self.manager.stats().broadcasts_sent);
        }
    }

    /// `peer`'s cache address, or the fallback tag when it cannot be
    /// asked: its address is unknown (cluster wiring incomplete — treated
    /// like an unreachable peer), or it is quarantined. A quarantined peer
    /// is skipped without touching the network (no connect-timeout tax),
    /// except when its probe window has elapsed — then this very exchange
    /// doubles as the probe.
    pub(crate) fn peer_to_ask(&self, peer: NodeId) -> Result<SocketAddr, &'static str> {
        let addr = self
            .peer_cache_addr(peer)
            .ok_or(cache_header::REMOTE_DOWN)?;
        if !self.health.should_attempt(peer) {
            RequestStats::bump(&self.stats.quarantine_skips);
            return Err(cache_header::QUARANTINED);
        }
        Ok(addr)
    }

    /// Ask the key's home who caches it. `Ok(None)` when nobody does —
    /// including when this node is one of the key's homes, so that its
    /// own miss is already the answer — and `Err(HOME_DOWN)` when the home
    /// cannot be asked: its answer is an optimization, never a
    /// requirement.
    pub(crate) fn ask_home(
        &self,
        key: &CacheKey,
        trace: &mut Trace,
    ) -> Result<Option<EntryMeta>, &'static str> {
        let homes = self.manager.placement().homes(key);
        if homes.contains(&self.node) {
            return Ok(None);
        }
        let home = homes[0];
        let addr = self
            .peer_to_ask(home)
            .map_err(|_| cache_header::HOME_DOWN)?;
        let t0 = trace.start_span();
        let answer = self
            .fetch_pool
            .dir_lookup(home, addr, key, self.fetch_timeout, trace.id());
        trace.end_span(Stage::DirLookup, t0);
        match answer {
            Ok(meta) => {
                self.health.record_success(home);
                Ok(meta)
            }
            Err(_) => {
                self.note_peer_failure(home);
                Err(cache_header::HOME_DOWN)
            }
        }
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
        LookupResult::RemoteHit { meta } => handle_remote_hit(ctx, exec, key, meta.owner, trace),
        LookupResult::Miss { decision, .. } => {
            // A local miss is a cluster miss only where this node is one
            // of the key's homes; elsewhere the home holds the entry, so
            // ask it before executing. The caller holds the miss
            // execution slot throughout, so concurrent identical requests
            // coalesce behind the answer.
            let tag = match ctx.ask_home(&key, trace) {
                Ok(Some(meta)) if meta.owner != ctx.node => {
                    return fetch_body_from_owner(ctx, exec, key, decision, meta.owner, trace);
                }
                Ok(Some(stale)) => {
                    // The home says *we* own it, but we just missed
                    // locally: its record is stale (e.g. a lost delete).
                    // Repair it and execute.
                    announce_delete(&ctx.manager, &ctx.broadcaster, stale.owner, &key);
                    cache_header::MISS
                }
                Ok(None) => cache_header::MISS,
                Err(tag) => tag,
            };
            execute_and_cache(ctx, exec, key, decision, tag, trace)
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

/// How a fetch from an entry's owner ended.
enum OwnerFetch {
    /// The owner served the body.
    Hit { content_type: String, body: Vec<u8> },
    /// The owner answered that the entry is gone — §4.2's false hit —
    /// and the stale record has been repaired.
    Gone,
    /// The owner could not be asked: execute instead, tagged so.
    Unavailable(&'static str),
}

/// Figure 2's "Fetch from remote cache" step, shared by a remote hit and
/// a miss the key's home resolved: the owner's address, the quarantine
/// gate, the timed fetch with its retry accounting, the peer's health
/// bookkeeping, and the false-hit repair ("when node A receives the miss
/// response, it will execute the CGI request locally").
fn fetch_from_owner(
    ctx: &NodeContext,
    key: &CacheKey,
    owner: NodeId,
    trace: &mut Trace,
) -> OwnerFetch {
    trace.set_owner(owner.0);
    let addr = match ctx.peer_to_ask(owner) {
        Ok(addr) => addr,
        Err(tag) => return OwnerFetch::Unavailable(tag),
    };
    // The trace id rides in the fetch request, so the owner records
    // correlated spans under the same id.
    let t0 = trace.start_span();
    let (outcome, attempts) = ctx.fetch_pool.fetch(
        owner,
        addr,
        key,
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
            ctx.health.record_success(owner);
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
            OwnerFetch::Hit { content_type, body }
        }
        FetchOutcome::Gone => {
            // A reply — even "gone" — proves the peer is alive.
            ctx.health.record_success(owner);
            ctx.manager.note_false_hit(owner, key);
            // Directory repair: the owner no longer has this entry, so
            // every other record pointing at it is stale too. Announce
            // the deletion on the owner's behalf (it may have restarted
            // with no memory of its old advertisements) to the key's
            // homes.
            announce_delete(&ctx.manager, &ctx.broadcaster, owner, key);
            OwnerFetch::Gone
        }
        FetchOutcome::Unreachable(_) => {
            // Peer down ≠ entry gone: the directory entry survives a
            // transient failure; quarantine is what declares it dead.
            ctx.note_peer_failure(owner);
            OwnerFetch::Unavailable(cache_header::REMOTE_DOWN)
        }
    }
}

/// The response to a remote hit: the owner's body, tagged.
fn remote_hit(content_type: &str, body: Vec<u8>) -> Response {
    let mut resp = Response::ok(content_type, body);
    resp.headers
        .set(cache_header::NAME, cache_header::REMOTE_HIT);
    resp
}

/// A directory hit on a peer's entry. The lookup took no execution slot,
/// so a failed fetch falls back through [`execute_fallback`].
fn handle_remote_hit(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    owner: NodeId,
    trace: &mut Trace,
) -> Response {
    match fetch_from_owner(ctx, &key, owner, trace) {
        OwnerFetch::Hit { content_type, body } => remote_hit(&content_type, body),
        OwnerFetch::Gone => execute_fallback(ctx, exec, key, cache_header::FALSE_HIT, trace),
        OwnerFetch::Unavailable(tag) => execute_fallback(ctx, exec, key, tag, trace),
    }
}

/// Fetch the body from the owner the key's home named. Unlike
/// [`handle_remote_hit`], the caller holds the miss execution slot: a hit
/// is published to coalesced waiters via `complete_remote_serve` (which
/// releases the slot without inserting), and fallbacks execute directly.
fn fetch_body_from_owner(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    decision: CacheDecision,
    owner: NodeId,
    trace: &mut Trace,
) -> Response {
    let fetched = fetch_from_owner(ctx, &key, owner, trace);
    if !matches!(fetched, OwnerFetch::Unavailable(_)) {
        // The local lookup said Miss (this node's directory has no
        // entry), but cluster-wide the owner answered: reclassify it as a
        // (possibly false) remote hit, so hit/miss accounting matches a
        // node that is the key's home, whose directory classifies Remote
        // up front — lookups == hits + misses and executions == misses +
        // false_hits both keep holding.
        CacheStats::debit(&ctx.manager.stats().misses);
        CacheStats::bump(&ctx.manager.stats().remote_hits);
    }
    match fetched {
        OwnerFetch::Hit { content_type, body } => {
            ctx.manager
                .complete_remote_serve(&key, &content_type, Arc::from(body.as_slice()));
            remote_hit(&content_type, body)
        }
        OwnerFetch::Gone => {
            execute_and_cache(ctx, exec, key, decision, cache_header::FALSE_HIT, trace)
        }
        OwnerFetch::Unavailable(tag) => execute_and_cache(ctx, exec, key, decision, tag, trace),
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
            // Announced to each of the key's homes but this node.
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
