//! Figure 2: the per-request control flow.
//!
//! `handle_request` is invoked by a pool thread that owns the request
//! "from parsing to completion". Everything it needs hangs off the shared
//! [`NodeContext`].

use crate::files::serve_file_conditional;
use crate::stats::RequestStats;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala_cache::{
    CacheDecision, CacheKey, CacheManager, EntryMeta, FlightWaitOutcome, FlightWaiter,
    InsertOutcome, LookupResult, NodeId,
};
use swala_cgi::{CgiOutput, CgiRequest, Program, ProgramRegistry};
use swala_http::{Body, Method, Request, Response, StatusCode};
use swala_obs::{Outcome, Stage, Telemetry, Trace};
use swala_proto::{
    announce, announce_delete, announce_node_down, Broadcaster, Dialer, FetchOutcome, FetchPool,
    HealthTracker, PeerError, PeerState, RetryPolicy,
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

/// Value of the `Server:` header, and `SERVER_NAME` for CGI programs.
///
/// A constant, not a knob: no experiment, client or program depends on
/// its value.
pub const SERVER_NAME: &str = "Swala/0.1";

/// Bound on one exchange with a peer: a remote fetch attempt, a home
/// lookup, a stats pull, a forwarded invalidation, a join-time sync.
///
/// A constant, not a knob: it only caps a peer that hangs. A dead peer is
/// found by its refused or reset connection and quarantined after
/// `QUARANTINE_AFTER` failures, and a live one answers orders of
/// magnitude sooner than 2 s.
pub const FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// Shared state one node's request threads operate on.
pub struct NodeContext {
    pub node: NodeId,
    pub caching_enabled: bool,
    pub docroot: Option<PathBuf>,
    pub registry: ProgramRegistry,
    pub manager: Arc<CacheManager>,
    pub broadcaster: Arc<Broadcaster>,
    /// Cache-protocol address of every node, indexed by `NodeId`, fixed
    /// at start; `None` = a peer the node was not given.
    pub cache_addrs: Vec<Option<SocketAddr>>,
    pub stats: Arc<RequestStats>,
    /// Metrics registry + trace ring shared by the request pool, the
    /// cache daemons and the admin endpoints.
    pub telemetry: Arc<Telemetry>,
    /// Port reported to CGI programs as `SERVER_PORT`.
    pub http_port: u16,
    /// Common-Log-Format access log, when configured.
    pub access_log: Option<crate::accesslog::AccessLog>,
    /// How connections to peers are opened (chaos tests inject faults
    /// here; production uses the plain TCP dialer).
    pub dialer: Dialer,
    /// A fixed set of fetch connections per peer (dials through `dialer`).
    pub fetch_pool: Arc<FetchPool>,
    /// Bounded retry-with-backoff for remote fetches.
    pub retry_policy: RetryPolicy,
    /// Per-peer quarantine tracking, fed by fetch outcomes.
    pub health: Arc<HealthTracker>,
    /// Request-pool gauges (open and idle connections, parks).
    pub engine_stats: Arc<swala_proto::PoolStats>,
    /// When the node started (uptime on `/swala-status`).
    pub started: Instant,
    /// Peers whose stats pull failed during a cluster scrape
    /// (`swala_cluster_scrape_failures`).
    pub scrape_failures: Arc<std::sync::atomic::AtomicU64>,
}

impl NodeContext {
    pub(crate) fn peer_cache_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.cache_addrs.get(node.index()).copied().flatten()
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
            announce_node_down(&self.manager, &self.broadcaster, peer);
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
            .dir_lookup(home, addr, key, FETCH_TIMEOUT, trace.id());
        trace.end_span(Stage::DirLookup, t0);
        match answer {
            Ok(meta) => {
                self.health.record_success(home);
                Ok(meta)
            }
            Err(PeerError::Busy) => Err(cache_header::HOME_DOWN),
            Err(PeerError::Failed(_)) => {
                self.note_peer_failure(home);
                Err(cache_header::HOME_DOWN)
            }
        }
    }

    /// Close a served request's trace and write its access-log line.
    /// The line is the trace summary's only reader, so the summary is
    /// formatted only when a log is configured.
    pub(crate) fn finish_request(
        &self,
        peer: &str,
        req: &Request<'_>,
        resp: &Response,
        trace: Trace,
    ) {
        match &self.access_log {
            Some(log) => {
                let summary = self.telemetry.finish(trace);
                log.log_with(peer, req, resp, summary.as_ref());
            }
            None => self.telemetry.record(trace),
        }
    }
}

/// Handle one parsed request, producing the response to write. `key` is
/// made from `req.target.cache_key()` once by the connection loop, which
/// shares its text with the trace. Spans and the cache outcome land on
/// `trace`; the connection loop finishes the trace after the response
/// write (and writes the access-log line, which carries the trace
/// summary).
pub fn handle_request(
    ctx: &NodeContext,
    req: &Request<'_>,
    key: CacheKey,
    remote_addr: &str,
    trace: &mut Trace,
) -> Response {
    RequestStats::bump(&ctx.stats.requests);
    let mut resp = route(ctx, req, key, remote_addr, trace);
    resp.set_server(SERVER_NAME);
    resp.set_date_now();
    if resp.status.is_client_error() {
        RequestStats::bump(&ctx.stats.client_errors);
    } else if resp.status.is_server_error() {
        RequestStats::bump(&ctx.stats.server_errors);
    }
    resp
}

fn route(
    ctx: &NodeContext,
    req: &Request<'_>,
    key: CacheKey,
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
        return handle_dynamic(ctx, req, key, remote_addr, trace);
    }
    RequestStats::bump(&ctx.stats.static_files);
    trace.set_outcome(Outcome::Static);
    match &ctx.docroot {
        Some(root) => serve_file_conditional(root, path, req.headers.get("If-Modified-Since")),
        None => Response::error(StatusCode::NOT_FOUND),
    }
}

/// What a CGI execution is made from: the program and what its
/// request view ([`Exec::request`]) borrows.
struct Exec<'a> {
    program: &'a dyn Program,
    req: &'a Request<'a>,
    remote_addr: &'a str,
}

impl Exec<'_> {
    fn request(&self, ctx: &NodeContext) -> CgiRequest<'_> {
        CgiRequest::from_http(self.req, self.remote_addr, SERVER_NAME, ctx.http_port)
    }
}

/// The dynamic-request flow of Figure 2.
fn handle_dynamic(
    ctx: &NodeContext,
    req: &Request<'_>,
    key: CacheKey,
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

    match ctx.manager.lookup_traced(&key, key.as_str(), trace) {
        LookupResult::Uncacheable => execute_plain(ctx, exec, cache_header::UNCACHEABLE, trace),
        LookupResult::LocalHit { meta, body, tier } => {
            RequestStats::bump(&ctx.stats.served_local_cache);
            trace.set_outcome(match tier {
                swala_cache::BodyTier::Memory => Outcome::LocalMem,
                swala_cache::BodyTier::Disk => Outcome::LocalDisk,
            });
            tagged(
                Response::ok(&meta.content_type, body),
                cache_header::LOCAL_HIT,
            )
        }
        LookupResult::RemoteHit { meta } => match ctx.manager.begin_remote_fetch(&key) {
            None => serve_from_owner(ctx, exec, key, meta.owner, false, trace),
            Some(waiter) => wait_and_serve(ctx, exec, key, waiter, trace),
        },
        LookupResult::Miss { decision, .. } => {
            // A local miss is a cluster miss only where this node is one
            // of the key's homes; elsewhere the home holds the entry, so
            // ask it before executing. The caller holds the key's flight
            // throughout, so concurrent identical requests coalesce
            // behind the answer.
            let tag = match ctx.ask_home(&key, trace) {
                Ok(Some(meta)) if meta.owner != ctx.node => {
                    return serve_from_owner(ctx, exec, key, meta.owner, true, trace);
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
        LookupResult::CoalesceWait { waiter, .. } => wait_and_serve(ctx, exec, key, waiter, trace),
    }
}

/// Single-flight wait: park behind the identical request producing the
/// key's body and serve it. On leader failure or timeout, fall back to
/// executing (registered first, so the fallback is itself
/// coalesce-visible).
fn wait_and_serve(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    waiter: FlightWaiter,
    trace: &mut Trace,
) -> Response {
    let remote_hit = waiter.is_remote_hit();
    let t0 = trace.start_span();
    let outcome = ctx.manager.wait_flight(waiter);
    trace.end_span(Stage::CoalesceWait, t0);
    match outcome {
        // A waiting remote hit answers like the fetch it joined.
        FlightWaitOutcome::Served { content_type, body } if remote_hit => {
            RequestStats::bump(&ctx.stats.served_remote_cache);
            trace.set_outcome(Outcome::Remote);
            tagged(Response::ok(&content_type, body), cache_header::REMOTE_HIT)
        }
        FlightWaitOutcome::Served { content_type, body } => {
            RequestStats::bump(&ctx.stats.served_local_cache);
            // Latency-faithful: a coalesced request still paid (most of)
            // the miss latency, so it lands in the miss histogram.
            trace.set_outcome(Outcome::Miss);
            tagged(Response::ok(&content_type, body), cache_header::COALESCED)
        }
        FlightWaitOutcome::LeaderFailed | FlightWaitOutcome::TimedOut => {
            ctx.manager.begin_forced_execution(&key);
            let decision = ctx.manager.lookup_decision(key.as_str());
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

/// Figure 2's "Fetch from remote cache" step, for a remote hit and for a
/// miss the key's home resolved to `owner` (`home_resolved`). The caller
/// holds the key's flight, so identical requests wait on this one fetch:
/// the owner's body is published to them, or — after a false hit, or with
/// the owner unreachable or quarantined — this request executes under the
/// flight ("when node A receives the miss response, it will execute the
/// CGI request locally"). Only this request records the owner's health,
/// the false hit and its repair.
fn serve_from_owner(
    ctx: &NodeContext,
    exec: &Exec<'_>,
    key: CacheKey,
    owner: NodeId,
    home_resolved: bool,
    trace: &mut Trace,
) -> Response {
    trace.set_owner(owner.0);
    let tag = match ctx.peer_to_ask(owner) {
        Err(tag) => tag,
        Ok(addr) => {
            // The trace id rides in the fetch request, so the owner
            // records correlated spans under the same id.
            let t0 = trace.start_span();
            let (outcome, attempts) = ctx.fetch_pool.fetch(
                owner,
                addr,
                &key,
                FETCH_TIMEOUT,
                &ctx.retry_policy,
                trace.id(),
            );
            trace.end_span(Stage::RemoteFetch, t0);
            if attempts > 1 {
                RequestStats::add(&ctx.stats.fetch_retries, (attempts - 1) as u64);
                trace.add_remote_attempts(attempts - 1);
            }
            trace.add_remote_attempts(1);
            let answered = !matches!(outcome, FetchOutcome::Unreachable(_) | FetchOutcome::Busy);
            if home_resolved && answered {
                // The local lookup said Miss, but the owner answered.
                ctx.manager.reclassify_miss_as_remote_hit();
            }
            match outcome {
                FetchOutcome::Hit { content_type, body } => {
                    ctx.health.record_success(owner);
                    RequestStats::bump(&ctx.stats.served_remote_cache);
                    trace.set_outcome(Outcome::Remote);
                    // Heat-sketch cost attribution: a remote hit's wire
                    // time is this key's cost, like exec time is a miss's.
                    // `t0` is None exactly when obs is off, and the sketch
                    // is disabled then.
                    if let Some(t0) = t0 {
                        ctx.manager.heat().add_cost(
                            key.keyed_hash(),
                            key.as_str(),
                            t0.elapsed().as_micros() as u64,
                        );
                    }
                    let body: Body = ctx.manager.complete_remote_serve(&key, &content_type, body);
                    return tagged(Response::ok(&content_type, body), cache_header::REMOTE_HIT);
                }
                FetchOutcome::Gone => {
                    // A reply — even "gone" — proves the peer is alive.
                    ctx.health.record_success(owner);
                    ctx.manager.note_false_hit(owner, &key);
                    // Directory repair: the owner no longer has this
                    // entry, so every other record pointing at it is stale
                    // too. Announce the deletion on the owner's behalf (it
                    // may have restarted with no memory of its old
                    // advertisements) to the key's homes.
                    announce_delete(&ctx.manager, &ctx.broadcaster, owner, &key);
                    cache_header::FALSE_HIT
                }
                FetchOutcome::Unreachable(_) => {
                    // Peer down ≠ entry gone: the directory entry survives
                    // a transient failure; quarantine is what declares it
                    // dead.
                    ctx.note_peer_failure(owner);
                    cache_header::REMOTE_DOWN
                }
                // This node's own exchanges held every connection to the
                // owner: no evidence against it, so nothing is recorded
                // and the CGI runs now rather than after retries.
                FetchOutcome::Busy => cache_header::REMOTE_DOWN,
            }
        }
    };
    ctx.manager.execute_instead(&key);
    let decision = ctx.manager.lookup_decision(key.as_str());
    execute_and_cache(ctx, exec, key, decision, tag, trace)
}

/// `resp` with its `X-Swala-Cache` class.
fn tagged(mut resp: Response, tag: &'static str) -> Response {
    resp.headers.set(cache_header::NAME, tag);
    resp
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
        Ok(out) => tagged(output_to_response(out), tag),
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
        return tagged(output_to_response(out), tag);
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
    tagged(output_to_response(out), tag)
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
