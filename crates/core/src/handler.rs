//! The per-request path: routing, and the steps of Figure 2's flow
//! ([`swala_cache::flow`]).
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
use swala_cache::flow::{Down, Event, Exec, Flow, Step};
use swala_cache::{CacheKey, CacheManager, FlightWaitOutcome, InsertOutcome, LookupResult, NodeId};
use swala_cgi::{CgiOutput, CgiRequest, ProgramRegistry};
use swala_http::{Body, Request, Response, StatusCode};
use swala_obs::{Outcome, Stage, Telemetry, Trace};
use swala_proto::{
    announce, announce_delete, announce_node_down, Broadcaster, Dialer, FetchOutcome, FetchPool,
    HealthTracker, PeerError, PeerState, RetryPolicy,
};

/// The `X-Swala-Cache` header and its values, one per way the cache
/// answers.
pub use swala_cache::flow::class as cache_header;

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

    /// `peer`'s cache address, or why it is not asked: its address is
    /// unknown (cluster wiring incomplete — treated like an unreachable
    /// peer), or it is quarantined. A quarantined peer is skipped without
    /// touching the network (no connect-timeout tax), except when its
    /// probe window has elapsed — then this very exchange doubles as the
    /// probe.
    pub(crate) fn peer_to_ask(&self, peer: NodeId) -> Result<SocketAddr, Down> {
        let addr = self.peer_cache_addr(peer).ok_or(Down::NoAddress)?;
        if !self.health.should_attempt(peer) {
            RequestStats::bump(&self.stats.quarantine_skips);
            return Err(Down::Quarantined);
        }
        Ok(addr)
    }

    /// Ask `home` who caches `key`: the owner its table names, if any, or
    /// `Down` when it cannot be asked. Its answer is an optimization,
    /// never a requirement.
    pub(crate) fn ask_home(
        &self,
        home: NodeId,
        key: &CacheKey,
        trace: &mut Trace,
    ) -> Event<'static> {
        let addr = match self.peer_to_ask(home) {
            Ok(addr) => addr,
            Err(down) => return Event::Down(down),
        };
        let t0 = trace.start_span();
        let answer = self
            .fetch_pool
            .dir_lookup(home, addr, key, FETCH_TIMEOUT, trace.id());
        trace.end_span(Stage::DirLookup, t0);
        match answer {
            Ok(meta) => Event::Home(meta.map(|m| m.owner)),
            Err(PeerError::Busy) => Event::Down(Down::Busy),
            Err(PeerError::Failed(_)) => Event::Down(Down::Failed),
        }
    }

    /// Fetch `key`'s body from `owner` into `got`, shared with the key's
    /// waiters. The trace id rides in the fetch request, so the owner
    /// records correlated spans under the same id.
    fn fetch(
        &self,
        owner: NodeId,
        key: &CacheKey,
        trace: &mut Trace,
        got: &mut Option<Response>,
    ) -> Event<'static> {
        trace.set_owner(owner.0);
        let addr = match self.peer_to_ask(owner) {
            Ok(addr) => addr,
            Err(down) => return Event::Down(down),
        };
        let t0 = trace.start_span();
        let (policy, id) = (&self.retry_policy, trace.id());
        let (outcome, tries) = self
            .fetch_pool
            .fetch(owner, addr, key, FETCH_TIMEOUT, policy, id);
        trace.end_span(Stage::RemoteFetch, t0);
        if tries > 1 {
            RequestStats::add(&self.stats.fetch_retries, (tries - 1) as u64);
        }
        trace.add_remote_attempts(tries);
        match outcome {
            FetchOutcome::Hit { content_type, body } => {
                // Heat-sketch cost attribution: a remote hit's wire time is
                // this key's cost, like exec time is a miss's. `t0` is None
                // exactly when obs is off, and the sketch is disabled then.
                if let Some(t0) = t0 {
                    let micros = t0.elapsed().as_micros() as u64;
                    let heat = self.manager.heat();
                    heat.add_cost(key.keyed_hash(), key.as_str(), micros);
                }
                let body: Body = self.manager.complete_remote_serve(key, &content_type, body);
                *got = Some(Response::ok(&content_type, body));
                Event::Hit
            }
            FetchOutcome::Gone => Event::Gone,
            // Peer down ≠ entry gone: the directory entry survives a
            // transient failure; quarantine is what declares it dead.
            FetchOutcome::Unreachable(_) => Event::Down(Down::Failed),
            // This node's own exchanges held every connection to the
            // owner: no evidence against it, and the CGI runs now rather
            // than after retries.
            FetchOutcome::Busy => Event::Down(Down::Busy),
        }
    }

    /// Record a peer's answer (`Ok`), or its failure, with the health
    /// tracker.
    pub(crate) fn note_peer(&self, peer: Option<Result<NodeId, NodeId>>) {
        match peer {
            Some(Ok(peer)) => self.health.record_success(peer),
            Some(Err(peer)) => self.note_peer_failure(peer),
            None => {}
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

/// The dynamic-request flow of Figure 2: each step a [`Flow`] returns,
/// performed with the fetch pool, the broadcaster, the flights and the
/// CGI program, and its marks applied to the counters, the health
/// tracker and the trace.
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
    let manager = &ctx.manager;
    // What a step leaves for a later one: the response, the rules'
    // verdict, the flight to wait on, the insert to announce.
    let (mut got, mut decided, mut waiting, mut inserted) = (None, None, None, None);
    // Only GET results participate in caching; POST always executes.
    let off = !ctx.caching_enabled;
    let mut event = Event::Uncacheable { off };
    if !off && req.method.is_cacheable() {
        event = match manager.lookup_traced(&key, key.as_str(), trace) {
            LookupResult::Uncacheable => event,
            LookupResult::LocalHit { meta, body, tier } => {
                got = Some(Response::ok(&meta.content_type, body));
                Event::LocalHit(tier)
            }
            LookupResult::RemoteHit { meta } => {
                waiting = manager.begin_remote_fetch(&key);
                let (owner, in_flight) = (meta.owner, waiting.is_some());
                Event::RemoteHit { owner, in_flight }
            }
            LookupResult::Miss { decision, .. } => {
                decided = Some(decision);
                let homes = manager.placement().homes(&key);
                Event::Miss { homes }
            }
            LookupResult::CoalesceWait { decision, waiter } => {
                (decided, waiting) = (Some(decision), Some(waiter));
                Event::CoalesceWait
            }
        };
    }
    let mut flow = Flow::new(ctx.node);
    loop {
        let (step, marks) = flow.next(event);
        if marks.reclassify_miss_as_remote_hit {
            manager.reclassify_miss_as_remote_hit();
        }
        ctx.note_peer(marks.peer);
        if marks.abort {
            manager.abort_execution(&key);
        }
        event = match step {
            Step::Serve { class, outcome } => {
                trace.set_outcome(outcome);
                let (Some(mut resp), Some(class)) = (got, class) else {
                    return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
                };
                let stats = &ctx.stats;
                match class {
                    cache_header::LOCAL_HIT | cache_header::COALESCED => {
                        RequestStats::bump(&stats.served_local_cache)
                    }
                    cache_header::REMOTE_HIT => RequestStats::bump(&stats.served_remote_cache),
                    _ => {}
                }
                resp.headers.set(cache_header::NAME, class);
                return resp;
            }
            Step::AskHome { home } => ctx.ask_home(home, &key, trace),
            Step::Fetch { owner, .. } => ctx.fetch(owner, &key, trace, &mut got),
            Step::Wait => {
                let t0 = trace.start_span();
                let outcome = manager.wait_flight(waiting.take().expect("a wait has its waiter"));
                trace.end_span(Stage::CoalesceWait, t0);
                match outcome {
                    FlightWaitOutcome::Served { content_type, body } => {
                        got = Some(Response::ok(&content_type, body));
                        Event::Served
                    }
                    _ => Event::Abandoned,
                }
            }
            Step::Execute { exec, .. } => {
                match exec {
                    Exec::Forced => manager.begin_forced_execution(&key),
                    Exec::Instead => manager.execute_instead(&key),
                    Exec::Plain | Exec::Lead => {}
                }
                RequestStats::bump(&ctx.stats.executions);
                let cgi_req = CgiRequest::from_http(req, remote_addr, SERVER_NAME, ctx.http_port);
                let started = Instant::now();
                let result = program.run(&cgi_req);
                let took = started.elapsed();
                // The execution timer doubles as the cgi-exec span — one
                // Instant pair serves both the cost metadata and the trace.
                trace.record_span(Stage::CgiExec, started, started + took);
                match result {
                    Err(_) => Event::Failed,
                    // Only 200s are cacheable; another result is served
                    // but not kept.
                    Ok(out) if exec == Exec::Plain || out.status != StatusCode::OK => {
                        got = Some(output_to_response(out));
                        Event::Output
                    }
                    Ok(out) => {
                        let decision = decided.take();
                        let decision =
                            decision.unwrap_or_else(|| manager.lookup_decision(key.as_str()));
                        let (body, content_type) = (&out.body, &out.content_type);
                        let kept =
                            manager.complete_execution(&key, body, content_type, took, &decision);
                        got = Some(output_to_response(out));
                        match kept {
                            Ok(InsertOutcome::Inserted { meta, evicted }) => {
                                inserted = Some((meta, evicted));
                                Event::Inserted
                            }
                            // Below the threshold, or the store write
                            // failed (disk full...): the response is still
                            // good; the cache just doesn't keep it.
                            _ => Event::Discarded,
                        }
                    }
                }
            }
            Step::Announce => {
                let (meta, evicted) = inserted.take().expect("an announce follows an insert");
                // Announced to each of the key's homes but this node.
                let t0 = trace.start_span();
                announce(manager, &ctx.broadcaster, &meta, &evicted);
                trace.end_span(Stage::BroadcastEnqueue, t0);
                Event::Done
            }
            Step::Repair { owner } => {
                if marks.false_hit {
                    manager.note_false_hit(owner, &key);
                }
                announce_delete(manager, &ctx.broadcaster, owner, &key);
                Event::Done
            }
        };
    }
}

fn output_to_response(out: CgiOutput) -> Response {
    let mut resp = Response::ok(&out.content_type, out.body);
    resp.status = out.status;
    resp
}
