//! The cache manager — §4.1's "cacher module" state, minus the network.
//!
//! One `CacheManager` lives on each node. It coordinates the parts it
//! owns — the directory (every table the placement rule puts here, with
//! the replacement policy), the body tier ([`crate::bodies`]), the
//! single-flight registry ([`crate::flights`]) — with the cacheability
//! rules and the statistics, and exposes exactly the operations Figure
//! 2's control flow needs. The `swala` server and the `swala-proto`
//! daemons drive it; none of them touch the directory or the store
//! directly.

use crate::bodies::{Bodies, BodyTier};
use crate::clock::Clock;
use crate::directory::{CacheDirectory, Classification, RemoteUpdate, APPLY_RUN_MAX};
use crate::entry::EntryMeta;
use crate::flights::{FlightWaitOutcome, FlightWaiter, Flights, Joined};
use crate::key::CacheKey;
use crate::node::NodeId;
use crate::policy::PolicyKind;
use crate::ring::{DirectoryKind, Placement};
use crate::rules::{CacheDecision, CacheRules};
use crate::stats::CacheStats;
use crate::store::Store;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala_obs::{HeatSketch, MetricsRegistry, Stage, Trace};

/// How long a coalesced request waits for the leader's body before it
/// executes on its own.
///
/// A constant, not a knob: it only bounds a wait that ends when the
/// leader finishes or fails, so it matters only for a leader that hangs,
/// and 10 s is longer than any CGI the paper runs.
pub const COALESCE_WAIT: Duration = Duration::from_secs(10);

/// Monitored slots in the per-key heat sketch (`/swala-hotkeys`).
///
/// A constant, not a knob: the sketch reports the hottest keys with a
/// stated error bound, and 128 slots are twice the 64 a node ships in
/// its cluster snapshot, so the shipped entries' bounds stay tight. The
/// `obs off` baseline turns the sketch off with the rest of telemetry.
pub const HOTKEYS: usize = 128;

/// The largest result a node caches, body and content type together.
///
/// Every cached result must reach a peer in one fetch reply, and the
/// cluster protocol's frames carry at most 8 MiB (`swala_proto::MAX_FRAME`);
/// this leaves 64 bytes of the frame for the reply's tag and two length
/// fields. A larger result is served but not cached: a peer's remote hit
/// on it could only fail, and each failure counts against this node.
pub const MAX_CACHED_RESULT: usize = 8 * 1024 * 1024 - 64;

/// Construction parameters for a [`CacheManager`].
pub struct CacheManagerConfig {
    /// Cluster size (number of directory tables).
    pub num_nodes: usize,
    /// This node's id.
    pub local: NodeId,
    /// Maximum entries in the local cache (the paper's "cache size").
    pub capacity: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cacheability rules.
    pub rules: CacheRules,
    /// Byte budget for the in-memory body tier; 0 disables the tier
    /// (every local hit then reads the body store).
    pub mem_cache_bytes: usize,
    /// Single-flight coalescing: concurrent misses and remote hits for
    /// one key wait for the first request producing it instead of
    /// re-running the CGI or re-fetching the body. `false` keeps the
    /// paper's re-run semantics (§4.2, false-miss scenario 1).
    pub coalesce: bool,
    /// Bound on how long a coalesced request waits for the leader before
    /// falling back to its own execution ([`COALESCE_WAIT`] on every
    /// node; a test shortens it to see the fallback).
    pub coalesce_wait: Duration,
    /// Directory organization: the paper's replicated directory (the
    /// default), or consistent-hash partitioned with per-key home nodes.
    pub directory: DirectoryKind,
    /// Monitored slots in the per-key heat sketch (space-saving top-K):
    /// [`HOTKEYS`], or 0 to disable the sketch entirely (observations
    /// become no-ops).
    pub hotkeys: usize,
    /// What TTLs are stamped and judged against, and what the node's
    /// purge daemon and source monitor pace themselves by.
    pub clock: Clock,
}

impl Default for CacheManagerConfig {
    fn default() -> Self {
        CacheManagerConfig {
            num_nodes: 1,
            local: NodeId(0),
            capacity: 2000,
            policy: PolicyKind::Lru,
            rules: CacheRules::allow_all(),
            mem_cache_bytes: 64 * 1024 * 1024,
            coalesce: true,
            coalesce_wait: COALESCE_WAIT,
            directory: DirectoryKind::Replicated,
            hotkeys: HOTKEYS,
            clock: Clock::Real,
        }
    }
}

/// What the manager tells a request thread about a cacheable request.
#[derive(Debug)]
pub enum LookupResult {
    /// Rules say never cache: execute without further manager contact.
    Uncacheable,
    /// Cacheable but absent: execute, then call
    /// [`CacheManager::complete_execution`]. `first_in_flight` is false
    /// when an identical request is already executing on this node and
    /// coalescing is off — the paper's first false-miss scenario.
    Miss {
        decision: CacheDecision,
        first_in_flight: bool,
    },
    /// An identical request is already producing the body here and
    /// coalescing is on: call [`CacheManager::wait_flight`] to be served
    /// its body instead of re-running the CGI.
    CoalesceWait {
        decision: CacheDecision,
        waiter: FlightWaiter,
    },
    /// Cached locally: here is the body. Shared (`Arc`) so a warm hit
    /// travels from the memory tier to the response without a copy.
    LocalHit {
        meta: EntryMeta,
        body: Arc<[u8]>,
        tier: BodyTier,
    },
    /// Cached at a remote node: take the key's flight with
    /// [`CacheManager::begin_remote_fetch`], then fetch over the wire.
    RemoteHit { meta: EntryMeta },
}

/// Result of committing an executed CGI result.
#[derive(Debug)]
pub enum InsertOutcome {
    /// Entry inserted; broadcast `meta` and (separately) the evictions.
    Inserted {
        meta: EntryMeta,
        evicted: Vec<EntryMeta>,
    },
    /// Below the execution-time threshold (or uncacheable): nothing kept.
    Discarded,
}

/// Per-node cache state machine.
pub struct CacheManager {
    local: NodeId,
    capacity: usize,
    directory: CacheDirectory,
    /// The bodies of exactly the local table's entries.
    bodies: Bodies,
    rules: CacheRules,
    stats: Arc<CacheStats>,
    /// Logical clock for recency bookkeeping.
    seq: AtomicU64,
    /// Keys whose body a request is producing here — executing, or
    /// fetching from the owner: false-miss detection and (coalescing on)
    /// where identical requests wait.
    flights: Flights,
    /// Bounded wait before a coalesced request falls back to executing.
    coalesce_wait: Duration,
    /// Which nodes' directories hold each key's entries.
    placement: Placement,
    /// Per-key request-frequency / cost sketch (space-saving top-K).
    heat: Arc<HeatSketch>,
}

impl CacheManager {
    /// Build a manager over the given body store.
    pub fn new(cfg: CacheManagerConfig, store: Box<dyn Store>) -> Self {
        let stats = Arc::new(CacheStats::new());
        CacheManager {
            local: cfg.local,
            capacity: cfg.capacity,
            directory: CacheDirectory::with_policy(cfg.num_nodes, cfg.local, cfg.policy)
                .with_clock(cfg.clock),
            bodies: Bodies::new(store, cfg.mem_cache_bytes, Arc::clone(&stats)),
            rules: cfg.rules,
            stats,
            seq: AtomicU64::new(0),
            flights: Flights::new(cfg.coalesce),
            coalesce_wait: cfg.coalesce_wait,
            placement: Placement::new(cfg.directory, cfg.num_nodes),
            heat: Arc::new(HeatSketch::new(cfg.hotkeys)),
        }
    }

    /// This node's id.
    pub fn local_node(&self) -> NodeId {
        self.local
    }

    /// This node's directory: its own entries, and the other owners'
    /// entries whose homes include it (read-mostly introspection).
    pub fn directory(&self) -> &CacheDirectory {
        &self.directory
    }

    /// Which nodes' directories hold each key's entries: where this
    /// node's notices go and whether its own miss is authoritative.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The node's clock: TTLs, and the daemons that pace themselves.
    pub fn clock(&self) -> &Clock {
        self.directory.clock()
    }

    /// Statistics counters (shared, for metrics-registry hookup).
    pub fn stats(&self) -> &Arc<CacheStats> {
        &self.stats
    }

    /// The per-key heat sketch (no-op when built with `hotkeys: 0`).
    pub fn heat(&self) -> &Arc<HeatSketch> {
        &self.heat
    }

    /// The body tier: store, memory tier and store-call timing.
    pub fn bodies(&self) -> &Bodies {
        &self.bodies
    }

    /// Register the node's cache series: the counters, the body tier's
    /// series, and the directory-size gauges, which read the tables at
    /// scrape time (`ring_vnodes` is static geometry).
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        self.stats.register_into(reg, "swala_cache");
        self.bodies.register_into(reg);
        let m = Arc::clone(self);
        reg.register_gauge_fn(
            "swala_cache_dir_entries_owned",
            "Directory entries this node owns (local inserts)",
            move || m.directory.len(m.local) as i64,
        );
        let m = Arc::clone(self);
        reg.register_gauge_fn(
            "swala_cache_dir_entries_remote",
            "Directory entries advertised by other nodes",
            move || (m.directory.total_len() - m.directory.len(m.local)) as i64,
        );
        let vnodes = self.placement.ring().map_or(0, |r| r.vnodes()) as i64;
        reg.register_gauge_fn(
            "swala_cache_ring_vnodes",
            "Virtual nodes per member on the consistent-hash ring (0 = replicated directory)",
            move || vnodes,
        );
    }

    /// The rules' verdict for `path`, without touching the directory.
    ///
    /// Used by fallback paths (a remote hit the owner could not serve, a
    /// failed coalesced wait) that need the TTL/threshold parameters for
    /// a fresh insertion.
    pub fn lookup_decision(&self, path: &str) -> CacheDecision {
        self.rules.decide(path)
    }

    /// Next logical timestamp.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A local entry's body, its hit recorded with the policy. A failed
    /// read means the store lost the body: the entry leaves the table and
    /// the tier, unannounced — a peer that asks for it gets a false hit
    /// and repairs its own directory.
    fn serve_local(
        &self,
        key: &CacheKey,
        trace: &mut Trace,
        started: Option<Instant>,
    ) -> Option<(Arc<[u8]>, BodyTier)> {
        let Some(read) = self.bodies.get(key, trace, started) else {
            self.remove_local(key);
            return None;
        };
        self.directory.record_hit(self.local, key, self.next_seq());
        Some(read)
    }

    /// Figure 2, top half: classify a GET for `path_with_query`.
    ///
    /// For misses the key's flight is taken; the caller *must* balance
    /// with [`complete_execution`](Self::complete_execution) or
    /// [`abort_execution`](Self::abort_execution).
    pub fn lookup(&self, key: &CacheKey, path: &str) -> LookupResult {
        self.lookup_traced(key, path, &mut Trace::disabled())
    }

    /// [`lookup`](Self::lookup) with rules / dir-lookup / mem-tier /
    /// store-read spans recorded on `trace` (no-ops when disabled). Each
    /// span starts where the last one ended — the rules span where the
    /// request's previous stage (its parse) did — so a hit's three spans
    /// cost three clock reads.
    pub fn lookup_traced(&self, key: &CacheKey, path: &str, trace: &mut Trace) -> LookupResult {
        let t0 = trace.resume_span();
        let decision = self.rules.decide(path);
        let t1 = trace.end_span(Stage::Rules, t0);
        if decision == CacheDecision::Uncacheable {
            CacheStats::bump(&self.stats.uncacheable);
            return LookupResult::Uncacheable;
        }
        CacheStats::bump(&self.stats.lookups);
        self.heat.observe_hashed(key.keyed_hash(), key.shared(), 0);
        let classification = self.directory.classify_for_hit(key, || self.next_seq());
        let t2 = trace.end_span(Stage::DirLookup, t1);
        match classification {
            Classification::Local(meta) => match self.bodies.get(key, trace, t2) {
                Some((body, tier)) => {
                    CacheStats::bump(&self.stats.local_hits);
                    LookupResult::LocalHit { meta, body, tier }
                }
                // The store lost the body: the entry is healed away.
                None => {
                    self.remove_local(key);
                    self.note_miss(key, decision)
                }
            },
            Classification::Remote(meta) => {
                CacheStats::bump(&self.stats.remote_hits);
                LookupResult::RemoteHit { meta }
            }
            Classification::NotCached => self.note_miss(key, decision),
        }
    }

    fn note_miss(&self, key: &CacheKey, decision: CacheDecision) -> LookupResult {
        CacheStats::bump(&self.stats.misses);
        match self.flights.join(key, true) {
            Joined::Lead => {
                if self.flights.coalescing() {
                    CacheStats::bump(&self.stats.coalesce_leads);
                }
                LookupResult::Miss {
                    decision,
                    first_in_flight: true,
                }
            }
            // Single-flight: park behind the request producing the body
            // instead of re-running the CGI.
            Joined::Wait(waiter) => {
                CacheStats::bump(&self.stats.coalesce_waits);
                LookupResult::CoalesceWait { decision, waiter }
            }
            // Coalescing off: Swala re-runs rather than waits. Beside an
            // execution that is §4.2's false-miss scenario 1; beside a
            // remote fetch it is an ordinary miss.
            Joined::Beside { executing } => {
                if executing {
                    CacheStats::bump(&self.stats.false_misses);
                }
                LookupResult::Miss {
                    decision,
                    first_in_flight: !executing,
                }
            }
        }
    }

    /// Take `key`'s flight for a remote hit (a `RemoteHit` lookup) before
    /// fetching the body from its owner.
    ///
    /// `None`: the caller holds the flight. It ends it with
    /// [`complete_remote_serve`](Self::complete_remote_serve) once the
    /// owner serves the body, or — after a false hit, or with the owner
    /// unreachable or quarantined — calls
    /// [`execute_instead`](Self::execute_instead) and executes like a
    /// miss. `Some`: coalescing is on and an identical request holds the
    /// flight; [`wait_flight`](Self::wait_flight) for its body. The wait
    /// counts as the remote hit it is: no `coalesce_waits`, no false hit.
    pub fn begin_remote_fetch(&self, key: &CacheKey) -> Option<FlightWaiter> {
        match self.flights.join(key, false) {
            Joined::Wait(waiter) => Some(waiter),
            Joined::Lead | Joined::Beside { .. } => None,
        }
    }

    /// Block until the key's leader publishes a result, fails, or the
    /// bounded wait elapses. On `LeaderFailed`/`TimedOut` the caller must
    /// register itself via
    /// [`begin_forced_execution`](Self::begin_forced_execution) and run
    /// the CGI — the deterministic fallback.
    pub fn wait_flight(&self, waiter: FlightWaiter) -> FlightWaitOutcome {
        let outcome = waiter.wait(self.coalesce_wait);
        if waiter.miss {
            match outcome {
                FlightWaitOutcome::Served { .. } => {}
                FlightWaitOutcome::LeaderFailed => {
                    CacheStats::bump(&self.stats.coalesce_fallbacks);
                }
                FlightWaitOutcome::TimedOut => {
                    CacheStats::bump(&self.stats.coalesce_timeouts);
                    CacheStats::bump(&self.stats.coalesce_fallbacks);
                }
            }
        }
        outcome
    }

    /// Figure 2, bottom half: the CGI ran successfully in `exec` time.
    ///
    /// Applies the execution-time threshold and [`MAX_CACHED_RESULT`],
    /// stores the body, inserts the directory entry and evicts down to
    /// capacity. Returns what must be broadcast.
    pub fn complete_execution(
        &self,
        key: &CacheKey,
        body: &[u8],
        content_type: &str,
        exec: Duration,
        decision: &CacheDecision,
    ) -> io::Result<InsertOutcome> {
        // Publish the body to any coalesced waiters first — even when the
        // insert below is threshold-discarded, the waiters' requests are
        // answered by these bytes. Only a parked waiter costs a copy.
        if let Some(flight) = self.flights.finish(key) {
            flight.publish(content_type, &Arc::from(body));
        }
        // Attribute the execution's cost to the key's heat-sketch slot
        // (only if the key is still monitored — no count is added).
        self.heat
            .add_cost(key.keyed_hash(), key.as_str(), exec.as_micros() as u64);
        if !decision.should_insert(exec) || body.len() + content_type.len() > MAX_CACHED_RESULT {
            CacheStats::bump(&self.stats.discards);
            return Ok(InsertOutcome::Discarded);
        }
        let ttl = match decision {
            CacheDecision::Cacheable { ttl, .. } => *ttl,
            CacheDecision::Uncacheable => unreachable!("should_insert rejected uncacheable"),
        };
        let seq = self.next_seq();
        let meta = EntryMeta::unstamped(
            key.clone(),
            self.local,
            body.len() as u64,
            content_type,
            exec.as_micros() as u64,
            seq,
        )
        .stamped(self.clock(), ttl);
        self.bodies.put(&meta, body)?;
        let meta = self.directory.insert_fresh(meta);
        CacheStats::bump(&self.stats.inserts);
        let evicted = self.evict_to_capacity();
        Ok(InsertOutcome::Inserted { meta, evicted })
    }

    /// Evict the local table down to capacity, dropping each victim's
    /// body from the store and the memory tier.
    fn evict_to_capacity(&self) -> Vec<EntryMeta> {
        let eviction = self.directory.evict_to_capacity(self.capacity);
        CacheStats::add(&self.stats.evict_examined, eviction.examined);
        for victim in &eviction.victims {
            self.bodies.remove(&victim.key);
            CacheStats::bump(&self.stats.evictions);
        }
        eviction.victims
    }

    /// The CGI failed (Figure 2's unhappy path): release this executor's
    /// hold on the key's flight without inserting anything. Waiters are
    /// woken to fall back only once no holder remains.
    pub fn abort_execution(&self, key: &CacheKey) {
        self.flights.fail(key);
        CacheStats::bump(&self.stats.aborts);
    }

    /// The caller's flight was resolved by fetching the body from a
    /// *remote* owner — a remote hit, or a miss the key's home resolved:
    /// publish the body to any coalesced waiters and release the flight,
    /// without inserting — the entry stays owned by the remote node.
    ///
    /// Returns the body as the caller's `B`. It is shared (one copy into
    /// an `Arc`) only when a waiter can read it; an uncontended fetch
    /// hands the owner's bytes back untouched.
    pub fn complete_remote_serve<B>(&self, key: &CacheKey, content_type: &str, body: Vec<u8>) -> B
    where
        B: From<Vec<u8>> + From<Arc<[u8]>>,
    {
        let Some(flight) = self.flights.finish(key) else {
            return body.into();
        };
        let shared: Arc<[u8]> = body.into();
        flight.publish(content_type, &shared);
        shared.into()
    }

    /// A miss that the key's home resolved to a remote owner, and the
    /// owner answered (the body, or "gone"): count it as the (possibly
    /// false) remote hit a home's own lookup would have classified up
    /// front, so `lookups == local + remote + misses` and
    /// `executions + flight_served == misses + false_hits` keep holding.
    pub fn reclassify_miss_as_remote_hit(&self) {
        CacheStats::debit(&self.stats.misses);
        CacheStats::bump(&self.stats.remote_hits);
    }

    /// The owner could not serve the body the caller holds `key`'s flight
    /// for (a false hit, or it is unreachable or quarantined): the caller
    /// executes under that flight instead — "when node A receives the
    /// miss response, it will execute the CGI request locally" — and
    /// balances it like a miss. From now on an insert notice for the key
    /// is a §4.2 false miss.
    pub fn execute_instead(&self, key: &CacheKey) {
        self.flights.start_executing(key);
    }

    /// Serve a peer's fetch of a locally owned entry.
    ///
    /// `None` means the entry is gone — the peer experiences a false hit.
    /// On success the owner updates the entry's hit statistics (§4.1:
    /// "After a cache fetch, the cache manager on the node that owns the
    /// item updates meta-data statistics").
    pub fn fetch_local_body(&self, key: &CacheKey) -> Option<(EntryMeta, Arc<[u8]>)> {
        self.fetch_local_body_traced(key, &mut Trace::disabled())
    }

    /// [`fetch_local_body`](Self::fetch_local_body) with dir-lookup and
    /// tier spans recorded on `trace` (the owner side of a remote hit).
    pub fn fetch_local_body_traced(
        &self,
        key: &CacheKey,
        trace: &mut Trace,
    ) -> Option<(EntryMeta, Arc<[u8]>)> {
        let t0 = trace.start_span();
        let meta = self.directory.get(self.local, key);
        let t1 = trace.end_span(Stage::DirLookup, t0);
        let meta = meta?;
        self.serve_local(key, trace, t1)
            .map(|(body, _tier)| (meta, body))
    }

    /// A remote fetch came back empty: §4.2's false hit. The caller falls
    /// back to executing locally; we also stop advertising the entry.
    pub fn note_false_hit(&self, owner: NodeId, key: &CacheKey) {
        CacheStats::bump(&self.stats.false_hits);
        self.directory.remove(owner, key);
    }

    /// Register the caller as an executor unconditionally — used after a
    /// coalesced wait fails (leader failure or timeout) so the caller's
    /// own execution is balanced by `complete_execution`/`abort_execution`
    /// like any other.
    pub fn begin_forced_execution(&self, key: &CacheKey) {
        self.flights.force(key);
    }

    /// Apply a peer's insert notice to its directory table.
    pub fn apply_remote_insert(&self, meta: EntryMeta) {
        debug_assert_ne!(meta.owner, self.local, "own inserts are applied directly");
        CacheStats::bump(&self.stats.updates_applied);
        // If we are executing the same key right now, that execution is a
        // false miss (§4.2, scenario 2): the peer cached it first.
        let false_misses = self.flights.count_executing(std::iter::once(&meta.key));
        CacheStats::add(&self.stats.false_misses, false_misses as u64);
        self.directory.insert(meta.owner, meta);
    }

    /// Directory repair: forget everything `node` advertises.
    ///
    /// Called when `node` is quarantined locally or a peer's `NodeDown`
    /// broadcast arrives. Clearing our *own* table on somebody's say-so
    /// would discard live cache, so the local node is a no-op. Returns
    /// how many entries were evicted.
    pub fn evict_node(&self, node: NodeId) -> usize {
        if node == self.local || node.index() >= self.directory.num_nodes() {
            return 0;
        }
        let dropped = self.directory.clear_node(node);
        CacheStats::add(&self.stats.node_evictions, dropped.len() as u64);
        dropped.len()
    }

    /// Apply a peer's delete notice. One naming this node is a peer's
    /// false-hit repair: the entry goes, and its body with it.
    pub fn apply_remote_delete(&self, owner: NodeId, key: &CacheKey) {
        CacheStats::bump(&self.stats.updates_applied);
        if owner == self.local {
            self.remove_local(key);
        } else {
            self.directory.remove(owner, key);
        }
    }

    /// Apply a run of peer notices at once: what an
    /// [`apply_remote_insert`](Self::apply_remote_insert) or
    /// [`apply_remote_delete`](Self::apply_remote_delete) per update
    /// would do, with one flight-registry lock and one table write-lock
    /// per run of up to [`APPLY_RUN_MAX`] updates instead of a lock
    /// round-trip each per notice. A peer's paced link delivers its
    /// notices this way.
    pub fn apply_remote_batch(&self, mut updates: Vec<RemoteUpdate>) {
        if updates.is_empty() {
            return;
        }
        CacheStats::add(&self.stats.updates_applied, updates.len() as u64);
        // Deletes naming this node leave the batch: the local table takes
        // no peer's inserts, so they commute with the rest.
        updates.retain(|update| match update {
            RemoteUpdate::Insert(meta) => {
                debug_assert_ne!(meta.owner, self.local, "own inserts are applied directly");
                true
            }
            RemoteUpdate::Delete { owner, key } if *owner == self.local => {
                self.remove_local(key);
                false
            }
            RemoteUpdate::Delete { .. } => true,
        });
        for run in updates.chunks(APPLY_RUN_MAX) {
            // An insert notice for a key executing here right now is a
            // false miss (§4.2, scenario 2): the peer cached it first.
            let false_misses = self
                .flights
                .count_executing(run.iter().filter_map(|u| match u {
                    RemoteUpdate::Insert(meta) => Some(&meta.key),
                    RemoteUpdate::Delete { .. } => None,
                }));
            CacheStats::add(&self.stats.false_misses, false_misses as u64);
        }
        self.directory.apply_updates(updates);
    }

    /// Explicitly remove a local entry (admin/invalidations). Returns the
    /// removed metadata — the caller broadcasts the deletion.
    pub fn remove_local(&self, key: &CacheKey) -> Option<EntryMeta> {
        let meta = self.directory.remove(self.local, key)?;
        self.bodies.remove(key);
        Some(meta)
    }

    /// The purge daemon's body: drop expired local entries (and their
    /// bodies) and stale remote metadata. Returns the local
    /// expirations for delete-broadcast.
    pub fn purge_expired(&self) -> Vec<EntryMeta> {
        let dead = self.directory.purge_expired();
        for m in &dead {
            self.bodies.remove(&m.key);
            CacheStats::bump(&self.stats.expirations);
        }
        dead
    }

    /// Snapshot of the local table (directory sync for joining peers).
    pub fn local_snapshot(&self) -> Vec<EntryMeta> {
        self.directory.snapshot(self.local)
    }

    /// Warm restart: rebuild the local directory from the store's
    /// self-describing entries (an extension beyond the paper, whose
    /// nodes always started cold). Expired entries are deleted rather
    /// than resurrected, and so are entries over [`MAX_CACHED_RESULT`] (a
    /// store written before the limit may hold some); the replacement
    /// policy is applied so the recovered set respects capacity. Returns
    /// how many entries were restored.
    pub fn recover_from_store(&self) -> usize {
        let now = self.clock().unix_now();
        let mut restored = 0;
        for recovered in self.bodies.recover() {
            let dropped = if recovered.expires_unix.is_some_and(|e| e <= now) {
                Some(&self.stats.expirations)
            } else if recovered.size as usize + recovered.content_type.len() > MAX_CACHED_RESULT {
                Some(&self.stats.discards)
            } else {
                None
            };
            if let Some(counter) = dropped {
                self.bodies.remove(&recovered.key);
                CacheStats::bump(counter);
                continue;
            }
            let meta = recovered.into_meta(self.local, self.next_seq());
            self.directory.insert_fresh(meta);
            restored += 1;
        }
        let evicted = self.evict_to_capacity();
        self.bodies.warm(&self.local_snapshot());
        restored - evicted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::segstore::{SegmentConfig, SegmentStore};
    use crate::store::MemStore;

    fn manager(capacity: usize) -> CacheManager {
        CacheManager::new(
            CacheManagerConfig {
                num_nodes: 3,
                local: NodeId(0),
                capacity,
                policy: PolicyKind::Lru,
                rules: CacheRules::allow_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        )
    }

    /// Paper-faithful manager: concurrent misses re-run (coalesce off).
    fn manager_no_coalesce(capacity: usize) -> CacheManager {
        CacheManager::new(
            CacheManagerConfig {
                num_nodes: 3,
                local: NodeId(0),
                capacity,
                policy: PolicyKind::Lru,
                rules: CacheRules::allow_all(),
                coalesce: false,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        )
    }

    fn key(s: &str) -> CacheKey {
        CacheKey::new(s)
    }

    fn run_and_insert(m: &CacheManager, k: &CacheKey, body: &[u8]) -> InsertOutcome {
        let decision = match m.lookup(k, k.as_str()) {
            LookupResult::Miss { decision, .. } => decision,
            other => panic!("expected miss, got {other:?}"),
        };
        m.complete_execution(k, body, "text/html", Duration::from_millis(100), &decision)
            .unwrap()
    }

    #[test]
    fn miss_then_local_hit() {
        let m = manager(10);
        let k = key("/cgi-bin/a?x=1");
        match run_and_insert(&m, &k, b"body-a") {
            InsertOutcome::Inserted { meta, evicted } => {
                assert_eq!(meta.owner, NodeId(0));
                assert_eq!(meta.size, 6);
                assert!(evicted.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // The first hit reads the store and promotes the body; the
        // second is served from memory.
        for expected in [BodyTier::Disk, BodyTier::Memory] {
            match m.lookup(&k, k.as_str()) {
                LookupResult::LocalHit { body, meta, tier } => {
                    assert_eq!(&body[..], b"body-a");
                    assert_eq!(meta.key, k);
                    assert_eq!(tier, expected);
                }
                other => panic!("expected hit, got {other:?}"),
            }
        }
        let s = m.stats().snapshot();
        assert_eq!(s.misses, 1);
        assert_eq!(s.local_hits, 2);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.store_reads, 1);
    }

    #[test]
    fn uncacheable_rules_short_circuit() {
        let m = CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::deny_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k = key("/cgi-bin/a");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Uncacheable
        ));
        assert_eq!(m.stats().snapshot().uncacheable, 1);
        assert_eq!(m.stats().snapshot().lookups, 0);
    }

    #[test]
    fn threshold_discards_fast_results() {
        let rules = CacheRules::parse("cache * min_ms=500\n").unwrap();
        let m = CacheManager::new(
            CacheManagerConfig {
                rules,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k = key("/cgi-bin/fast");
        let decision = match m.lookup(&k, k.as_str()) {
            LookupResult::Miss { decision, .. } => decision,
            other => panic!("{other:?}"),
        };
        let out = m
            .complete_execution(&k, b"x", "text/html", Duration::from_millis(10), &decision)
            .unwrap();
        assert!(matches!(out, InsertOutcome::Discarded));
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        assert_eq!(m.stats().snapshot().discards, 1);
    }

    #[test]
    fn duplicate_in_flight_is_false_miss() {
        let m = manager_no_coalesce(10);
        let k = key("/cgi-bin/slow?x=1");
        let first = m.lookup(&k, k.as_str());
        assert!(matches!(
            first,
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        let second = m.lookup(&k, k.as_str());
        assert!(matches!(
            second,
            LookupResult::Miss {
                first_in_flight: false,
                ..
            }
        ));
        assert_eq!(m.stats().snapshot().false_misses, 1);
        // Both complete; second insert replaces the first harmlessly.
        if let LookupResult::Miss { decision, .. } = first {
            m.complete_execution(&k, b"r1", "t", Duration::from_millis(50), &decision)
                .unwrap();
        }
        if let LookupResult::Miss { decision, .. } = second {
            m.complete_execution(&k, b"r1", "t", Duration::from_millis(50), &decision)
                .unwrap();
        }
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::LocalHit { .. }
        ));
    }

    #[test]
    fn overlapping_executions_keep_marker_live_until_leader_completes() {
        // Regression: with the old HashSet, the second executor's
        // completion removed the first executor's in-flight marker, so a
        // remote insert landing afterwards missed the scenario-2
        // false-miss count.
        let m = manager_no_coalesce(10);
        let k = key("/cgi-bin/overlap?x=1");
        let first = m.lookup(&k, k.as_str());
        let second = m.lookup(&k, k.as_str());
        let LookupResult::Miss { decision, .. } = second else {
            panic!("{second:?}");
        };
        // Second executor finishes (and inserts) while the first is still
        // running. The marker must survive it.
        m.complete_execution(&k, b"r2", "t", Duration::from_millis(50), &decision)
            .unwrap();
        m.apply_remote_insert(EntryMeta::new(k.clone(), NodeId(1), 4, "t", 1000, None, 9));
        assert_eq!(
            m.stats().snapshot().false_misses,
            2,
            "first executor's marker was clobbered"
        );
        // First executor completes; marker is released only now.
        let LookupResult::Miss { decision, .. } = first else {
            panic!("{first:?}");
        };
        m.complete_execution(&k, b"r1", "t", Duration::from_millis(50), &decision)
            .unwrap();
        m.apply_remote_insert(EntryMeta::new(k.clone(), NodeId(2), 4, "t", 1000, None, 10));
        assert_eq!(m.stats().snapshot().false_misses, 2, "marker leaked");
    }

    #[test]
    fn coalesced_miss_waits_and_is_served_the_leader_body() {
        let m = Arc::new(manager(10));
        let k = key("/cgi-bin/burst?x=1");
        let leader = m.lookup(&k, k.as_str());
        let LookupResult::Miss {
            decision,
            first_in_flight: true,
        } = leader
        else {
            panic!("{leader:?}");
        };
        let waiter = match m.lookup(&k, k.as_str()) {
            LookupResult::CoalesceWait { waiter, .. } => waiter,
            other => panic!("{other:?}"),
        };
        let handle = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.wait_flight(waiter))
        };
        std::thread::sleep(Duration::from_millis(30));
        m.complete_execution(
            &k,
            b"leader-body",
            "text/html",
            Duration::from_millis(50),
            &decision,
        )
        .unwrap();
        match handle.join().unwrap() {
            FlightWaitOutcome::Served { content_type, body } => {
                assert_eq!(content_type, "text/html");
                assert_eq!(&body[..], b"leader-body");
            }
            other => panic!("{other:?}"),
        }
        let s = m.stats().snapshot();
        assert_eq!(s.coalesce_leads, 1);
        assert_eq!(s.coalesce_waits, 1);
        assert_eq!(s.false_misses, 0, "coalesced wait is not a false miss");
        assert_eq!(s.coalesce_fallbacks, 0);
    }

    #[test]
    fn coalesced_wait_falls_back_when_leader_aborts() {
        let m = Arc::new(manager(10));
        let k = key("/cgi-bin/doomed?x=1");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        let waiter = match m.lookup(&k, k.as_str()) {
            LookupResult::CoalesceWait { waiter, .. } => waiter,
            other => panic!("{other:?}"),
        };
        let handle = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.wait_flight(waiter))
        };
        std::thread::sleep(Duration::from_millis(30));
        m.abort_execution(&k);
        assert!(matches!(
            handle.join().unwrap(),
            FlightWaitOutcome::LeaderFailed
        ));
        let s = m.stats().snapshot();
        assert_eq!(s.aborts, 1);
        assert_eq!(s.coalesce_fallbacks, 1);
        // The fallback executor registers and completes normally.
        m.begin_forced_execution(&k);
        let decision = CacheRules::allow_all().decide(k.as_str());
        m.complete_execution(&k, b"fallback", "t", Duration::from_millis(50), &decision)
            .unwrap();
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::LocalHit { .. }
        ));
    }

    #[test]
    fn coalesced_wait_times_out_deterministically() {
        let m = CacheManager::new(
            CacheManagerConfig {
                coalesce_wait: Duration::from_millis(40),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k = key("/cgi-bin/stuck");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        let waiter = match m.lookup(&k, k.as_str()) {
            LookupResult::CoalesceWait { waiter, .. } => waiter,
            other => panic!("{other:?}"),
        };
        // Leader never finishes: the waiter must give up on its own.
        assert!(matches!(m.wait_flight(waiter), FlightWaitOutcome::TimedOut));
        let s = m.stats().snapshot();
        assert_eq!(s.coalesce_timeouts, 1);
        assert_eq!(s.coalesce_fallbacks, 1);
    }

    /// A manager that lists `k` as cached at node 2.
    fn with_remote_entry(m: &CacheManager, k: &CacheKey) {
        m.apply_remote_insert(EntryMeta::new(
            k.clone(),
            NodeId(2),
            4,
            "text/html",
            1_000,
            None,
            1,
        ));
    }

    #[test]
    fn a_remote_hit_joins_an_executing_flight_as_a_remote_hit() {
        let m = manager(10);
        let k = key("/cgi-bin/fh?x=1");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        // A peer's insert lands mid-execution; the next request is a
        // remote hit, and it waits for the execution instead of fetching.
        with_remote_entry(&m, &k);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::RemoteHit { .. }
        ));
        assert!(m.begin_remote_fetch(&k).is_some());
        let s = m.stats().snapshot();
        assert_eq!((s.remote_hits, s.coalesce_waits), (1, 0));
    }

    #[test]
    fn remote_waiters_are_remote_hits_served_the_leader_fetch() {
        let m = Arc::new(manager(10));
        let k = key("/cgi-bin/burst-remote?x=1");
        with_remote_entry(&m, &k);
        let mut waiters = Vec::new();
        for i in 0..4 {
            assert!(matches!(
                m.lookup(&k, k.as_str()),
                LookupResult::RemoteHit { .. }
            ));
            match (i, m.begin_remote_fetch(&k)) {
                (0, None) => {}
                (0, Some(_)) => panic!("the first remote hit leads"),
                (_, Some(waiter)) => {
                    let m = Arc::clone(&m);
                    waiters.push(std::thread::spawn(move || m.wait_flight(waiter)));
                }
                (_, None) => panic!("an identical remote hit must wait"),
            }
        }
        let body: Arc<[u8]> = m.complete_remote_serve(&k, "text/html", b"owner-body".to_vec());
        for waiter in waiters {
            match waiter.join().unwrap() {
                FlightWaitOutcome::Served { body: got, .. } => assert!(Arc::ptr_eq(&got, &body)),
                other => panic!("{other:?}"),
            }
        }
        let s = m.stats().snapshot();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.remote_hits, 4);
        assert_eq!(
            (s.coalesce_waits, s.coalesce_fallbacks, s.false_hits),
            (0, 0, 0)
        );
    }

    /// The two shapes a remote-serve body comes back in.
    #[derive(Debug)]
    enum Served {
        Owned(Vec<u8>),
        Shared,
    }

    impl From<Vec<u8>> for Served {
        fn from(body: Vec<u8>) -> Served {
            Served::Owned(body)
        }
    }

    impl From<Arc<[u8]>> for Served {
        fn from(_: Arc<[u8]>) -> Served {
            Served::Shared
        }
    }

    #[test]
    fn an_uncontended_remote_serve_hands_the_body_back_uncopied() {
        let m = manager(10);
        let k = key("/cgi-bin/alone?x=1");
        with_remote_entry(&m, &k);
        m.lookup(&k, k.as_str());
        assert!(m.begin_remote_fetch(&k).is_none());
        let body = b"owner-body".to_vec();
        let at = body.as_ptr();
        match m.complete_remote_serve(&k, "text/html", body) {
            Served::Owned(body) => assert_eq!(body.as_ptr(), at, "the owner's bytes, not a copy"),
            Served::Shared => panic!("nobody waited, yet the body was shared"),
        }
    }

    #[test]
    fn an_insert_notice_for_a_fetching_flight_is_no_false_miss() {
        let m = manager(10);
        let k = key("/cgi-bin/fetching?x=1");
        with_remote_entry(&m, &k);
        m.lookup(&k, k.as_str());
        assert!(m.begin_remote_fetch(&k).is_none());
        // Another owner's insert notice, one notice at a time and batched:
        // the flight only fetches, so neither is a §4.2 false miss.
        let notice = |seq| EntryMeta::new(k.clone(), NodeId(1), 4, "t", 1000, None, seq);
        m.apply_remote_insert(notice(2));
        m.apply_remote_batch(vec![RemoteUpdate::Insert(notice(3))]);
        assert_eq!(m.stats().snapshot().false_misses, 0);
        // The owner could not serve it: the flight executes now, and the
        // same notice is a false miss.
        m.execute_instead(&k);
        m.apply_remote_batch(vec![RemoteUpdate::Insert(notice(4))]);
        assert_eq!(m.stats().snapshot().false_misses, 1);
    }

    #[test]
    fn capacity_eviction_lru() {
        let m = manager(2);
        for i in 0..3 {
            let k = key(&format!("/cgi-bin/e?i={i}"));
            run_and_insert(&m, &k, b"body");
        }
        assert_eq!(m.directory().len(NodeId(0)), 2);
        let s = m.stats().snapshot();
        assert_eq!(s.evictions, 1);
        // The oldest key is gone from directory and store alike.
        assert!(matches!(
            m.lookup(&key("/cgi-bin/e?i=0"), "/cgi-bin/e?i=0"),
            LookupResult::Miss { .. }
        ));
        assert!(matches!(
            m.lookup(&key("/cgi-bin/e?i=2"), "/cgi-bin/e?i=2"),
            LookupResult::LocalHit { .. }
        ));
        // Release in-flight marker from the miss lookup above.
        m.abort_execution(&key("/cgi-bin/e?i=0"));
    }

    #[test]
    fn remote_insert_classifies_remote_then_false_hit_fallback() {
        let m = manager(10);
        let k = key("/cgi-bin/r?x=1");
        with_remote_entry(&m, &k);
        match m.lookup(&k, k.as_str()) {
            LookupResult::RemoteHit { meta } => assert_eq!(meta.owner, NodeId(2)),
            other => panic!("{other:?}"),
        }
        assert!(m.begin_remote_fetch(&k).is_none());
        // Remote says gone: false hit, entry dropped, the leader executes
        // under the flight it holds.
        m.note_false_hit(NodeId(2), &k);
        assert_eq!(m.stats().snapshot().false_hits, 1);
        m.execute_instead(&k);
        let decision = m.lookup_decision(k.as_str());
        m.complete_execution(
            &k,
            b"recomputed",
            "text/html",
            Duration::from_millis(20),
            &decision,
        )
        .unwrap();
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::LocalHit { .. }
        ));
    }

    #[test]
    fn remote_insert_during_execution_is_false_miss() {
        let m = manager_no_coalesce(10);
        let k = key("/cgi-bin/race?x=1");
        let decision = match m.lookup(&k, k.as_str()) {
            LookupResult::Miss {
                decision,
                first_in_flight: true,
            } => decision,
            other => panic!("{other:?}"),
        };
        // Peer's insert notice lands mid-execution.
        m.apply_remote_insert(EntryMeta::new(k.clone(), NodeId(1), 4, "t", 1000, None, 9));
        assert_eq!(m.stats().snapshot().false_misses, 1);
        // Our completion still inserts locally — both copies exist,
        // matching the paper ("the same information will be cached at two
        // nodes").
        m.complete_execution(&k, b"dup", "t", Duration::from_millis(5), &decision)
            .unwrap();
        assert_eq!(m.directory().len(NodeId(0)), 1);
        assert_eq!(m.directory().len(NodeId(1)), 1);
    }

    #[test]
    fn abort_releases_in_flight() {
        let m = manager(10);
        let k = key("/cgi-bin/fail");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        m.abort_execution(&k);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        assert_eq!(m.stats().snapshot().false_misses, 0);
    }

    #[test]
    fn fetch_local_body_updates_owner_stats() {
        let m = manager(10);
        let k = key("/cgi-bin/owned");
        run_and_insert(&m, &k, b"served-to-peer");
        let (meta, body) = m.fetch_local_body(&k).unwrap();
        assert_eq!(&body[..], b"served-to-peer");
        assert_eq!(meta.key, k);
        assert_eq!(m.directory().get(NodeId(0), &k).unwrap().hits, 1);
        // Unknown key: None (peer sees a false hit).
        assert!(m.fetch_local_body(&key("/ghost")).is_none());
    }

    #[test]
    fn apply_remote_delete_removes_entry() {
        let m = manager(10);
        let k = key("/cgi-bin/del");
        m.apply_remote_insert(EntryMeta::new(k.clone(), NodeId(1), 4, "t", 1000, None, 1));
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::RemoteHit { .. }
        ));
        m.apply_remote_delete(NodeId(1), &k);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        m.abort_execution(&k);
        assert_eq!(m.stats().snapshot().updates_applied, 2);
    }

    #[test]
    fn evict_node_clears_remote_table_only() {
        let m = manager(10);
        let ka = key("/cgi-bin/dead?a");
        let kb = key("/cgi-bin/dead?b");
        m.apply_remote_insert(EntryMeta::new(ka.clone(), NodeId(2), 4, "t", 1000, None, 1));
        m.apply_remote_insert(EntryMeta::new(kb, NodeId(2), 4, "t", 1000, None, 2));
        let mine = key("/cgi-bin/alive");
        run_and_insert(&m, &mine, b"x");

        assert_eq!(m.evict_node(NodeId(2)), 2);
        assert_eq!(m.stats().snapshot().node_evictions, 2);
        assert!(matches!(
            m.lookup(&ka, ka.as_str()),
            LookupResult::Miss { .. }
        ));
        m.abort_execution(&ka);
        // Local cache survives; self- and out-of-range evictions no-op.
        assert_eq!(m.directory().len(NodeId(0)), 1);
        assert_eq!(m.evict_node(NodeId(0)), 0);
        assert_eq!(m.evict_node(NodeId(7)), 0);
        assert_eq!(m.directory().len(NodeId(0)), 1);
    }

    /// A manager whose entries live one second, on a clock the test moves.
    fn ttl_manager() -> (CacheManager, Arc<crate::clock::ManualClock>) {
        let time = crate::clock::ManualClock::new();
        let m = CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::parse("cache * ttl=1\n").unwrap(),
                clock: time.clock(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        (m, time)
    }

    #[test]
    fn purge_expired_deletes_files() {
        let (m, time) = ttl_manager();
        let k = key("/cgi-bin/ttl");
        run_and_insert(&m, &k, b"x");
        assert!(m.purge_expired().is_empty(), "alive for its second");
        time.advance(Duration::from_secs(1));
        let dead = m.purge_expired();
        assert_eq!(dead.len(), 1);
        assert_eq!(m.stats().snapshot().expirations, 1);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
    }

    #[test]
    fn expiry_is_judged_against_the_wall_clock_at_each_lookup() {
        let (m, time) = ttl_manager();
        let k = key("/cgi-bin/ttl-step");
        run_and_insert(&m, &k, b"x");
        time.advance(Duration::from_secs(1));
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        m.abort_execution(&k);
        // Wall time stepped back before the purge ran: the entry is
        // unexpired again, and nothing was lost or announced.
        time.step_wall_back(Duration::from_secs(3600));
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::LocalHit { .. }
        ));
        assert_eq!(m.stats().snapshot().expirations, 0);
    }

    #[test]
    fn remove_local_returns_meta_for_broadcast() {
        let m = manager(10);
        let k = key("/cgi-bin/rm");
        run_and_insert(&m, &k, b"x");
        let meta = m.remove_local(&k).unwrap();
        assert_eq!(meta.key, k);
        assert!(m.remove_local(&k).is_none());
    }

    #[test]
    fn warm_hit_serves_from_memory_without_store_reads() {
        let m = manager(10);
        let k = key("/cgi-bin/hot");
        run_and_insert(&m, &k, b"hot-body");
        // The insert holds no memory: the body enters the tier at its
        // first read, which costs exactly one store read.
        assert_eq!(m.bodies().mem_bytes(), 0);
        let hit = || match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, tier, .. } => (body, tier),
            other => panic!("{other:?}"),
        };
        assert_eq!(hit().1, BodyTier::Disk);
        assert_eq!(m.stats().snapshot().store_reads, 1);
        let (second, tier2) = hit();
        let (third, tier3) = hit();
        assert_eq!((tier2, tier3), (BodyTier::Memory, BodyTier::Memory));
        let s = m.stats().snapshot();
        assert_eq!(s.store_reads, 1, "warm hit read the store");
        assert_eq!(s.mem_hits, 2);
        assert_eq!(s.mem_misses, 1);
        assert_eq!(m.bodies().mem_bytes(), 8);
        // Both warm hits share the tier's single allocation — zero copies.
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn disabled_mem_tier_reads_store_every_hit() {
        let m = CacheManager::new(
            CacheManagerConfig {
                mem_cache_bytes: 0,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k = key("/cgi-bin/cold");
        run_and_insert(&m, &k, b"cold");
        for _ in 0..2 {
            match m.lookup(&k, k.as_str()) {
                LookupResult::LocalHit { tier, .. } => assert_eq!(tier, BodyTier::Disk),
                other => panic!("{other:?}"),
            }
        }
        let s = m.stats().snapshot();
        assert_eq!(s.store_reads, 2);
        assert_eq!(s.mem_hits, 0);
        assert_eq!(s.mem_misses, 0);
        assert_eq!(m.bodies().mem_bytes(), 0);
    }

    #[test]
    fn mem_tier_stays_coherent_with_removals() {
        let m = manager(10);
        let k = key("/cgi-bin/gone");
        run_and_insert(&m, &k, b"stale?");
        let hit = || match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, tier, .. } => (body, tier),
            other => panic!("{other:?}"),
        };
        assert_eq!(hit().1, BodyTier::Disk, "promoted at its first read");
        assert_eq!(m.bodies().mem_bytes(), 6);
        // Explicit removal drops the body from the tier too: a later
        // re-insert must not resurrect the old bytes.
        m.remove_local(&k);
        assert_eq!(m.bodies().mem_bytes(), 0);
        run_and_insert(&m, &k, b"fresh");
        let reads = m.stats().snapshot().store_reads;
        for tier in [BodyTier::Disk, BodyTier::Memory, BodyTier::Memory] {
            let (body, served) = hit();
            assert_eq!((&body[..], served), (&b"fresh"[..], tier));
        }
        assert_eq!(m.stats().snapshot().store_reads, reads + 1);
        assert_eq!(m.bodies().mem_bytes(), 5);
    }

    /// A store whose `get`, once armed, reads the body and then parks on
    /// `barrier` twice: once to say it has read, once to be let go.
    struct ParkingStore {
        inner: MemStore,
        armed: Arc<std::sync::atomic::AtomicBool>,
        barrier: Arc<std::sync::Barrier>,
    }

    impl Store for ParkingStore {
        fn put_described(
            &self,
            key: &CacheKey,
            meta: &crate::store::HeaderMeta,
            body: &[u8],
        ) -> io::Result<()> {
            self.inner.put_described(key, meta, body)
        }
        fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>> {
            let read = self.inner.get(key);
            if self.armed.swap(false, Ordering::SeqCst) {
                self.barrier.wait();
                self.barrier.wait();
            }
            read
        }
        fn delete(&self, key: &CacheKey) -> io::Result<()> {
            self.inner.delete(key)
        }
        fn contains(&self, key: &CacheKey) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// A reader that read a body before an invalidate and re-insert must
    /// not promote it after them: every later hit would serve the old
    /// bytes while the directory and the store hold the new ones.
    #[test]
    fn a_promotion_never_installs_a_superseded_body() {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let store = ParkingStore {
            inner: MemStore::new(),
            armed: Arc::clone(&armed),
            barrier: Arc::clone(&barrier),
        };
        let config = CacheManagerConfig {
            mem_cache_bytes: 64,
            ..Default::default()
        };
        let m = CacheManager::new(config, Box::new(store));
        let (k, other) = (key("/cgi-bin/k"), key("/cgi-bin/other"));
        run_and_insert(&m, &k, &[b'o'; 40]);
        // Whatever the tier took of k, a second 40-byte body leaves k
        // only in the store.
        run_and_insert(&m, &other, &[b'x'; 40]);
        armed.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let reader = s.spawn(|| m.lookup(&k, k.as_str()));
            barrier.wait(); // the reader holds k's old body
            m.remove_local(&k);
            run_and_insert(&m, &k, &[b'n'; 40]);
            barrier.wait();
            // The parked reader itself may answer with the old body.
            assert!(matches!(
                reader.join().unwrap(),
                LookupResult::LocalHit { .. }
            ));
        });
        match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, .. } => assert_eq!(
                &body[..],
                &[b'n'; 40],
                "stale body served after invalidate + re-insert"
            ),
            other => panic!("{other:?}"),
        }
    }

    /// A manager without a memory tier, so every local read is a store
    /// read.
    fn store_only_manager() -> CacheManager {
        CacheManager::new(
            CacheManagerConfig {
                mem_cache_bytes: 0,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        )
    }

    #[test]
    fn self_heals_directory_store_disagreement() {
        let m = store_only_manager();
        let k = key("/cgi-bin/heal");
        run_and_insert(&m, &k, b"x");
        // The body vanishes behind the table's back (e.g. an operator
        // wiped the cache dir).
        m.bodies.remove(&k);
        match m.lookup(&k, k.as_str()) {
            LookupResult::Miss { .. } => {}
            other => panic!("expected self-healing miss, got {other:?}"),
        }
        assert!(
            m.directory().get(NodeId(0), &k).is_none(),
            "stale entry dropped"
        );
    }

    #[test]
    fn owner_heals_on_a_failed_fetch_read() {
        let m = store_only_manager();
        let k = key("/cgi-bin/heal-fetch");
        run_and_insert(&m, &k, b"x");
        m.bodies.remove(&k);
        // The peer sees a false hit, and the owner stops advertising the
        // entry it cannot serve.
        assert!(m.fetch_local_body(&k).is_none());
        assert!(m.directory().get(NodeId(0), &k).is_none());
    }

    #[test]
    fn a_delete_notice_naming_this_node_removes_the_body_too() {
        for batched in [true, false] {
            let dir = std::env::temp_dir()
                .join(format!("swala-mgr-repair-{}-{batched}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || SegmentStore::open_with(&dir, SegmentConfig { fsync: false }).unwrap();
            let m = CacheManager::new(CacheManagerConfig::default(), Box::new(open()));
            let k = key("/cgi-bin/repaired");
            run_and_insert(&m, &k, b"stale body");
            // A peer's false-hit repair names this node as the owner.
            if batched {
                m.apply_remote_batch(vec![RemoteUpdate::Delete {
                    owner: NodeId(0),
                    key: k.clone(),
                }]);
            } else {
                m.apply_remote_delete(NodeId(0), &k);
            }
            drop(m);
            let m = CacheManager::new(CacheManagerConfig::default(), Box::new(open()));
            assert_eq!(m.recover_from_store(), 0, "batched: {batched}");
            assert_eq!(m.bodies().metrics().live_bytes, 0, "batched: {batched}");
            drop(m);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn recovery_drops_a_result_too_large_to_fetch() {
        // A store written before the size limit may hold a result no
        // fetch reply can carry: a warm restart must not advertise it.
        let dir = std::env::temp_dir().join(format!("swala-mgr-oversize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || SegmentStore::open_with(&dir, SegmentConfig { fsync: false }).unwrap();
        let store = open();
        let (big, small) = (key("/cgi-bin/big"), key("/cgi-bin/small"));
        store.put(&big, &vec![1u8; MAX_CACHED_RESULT]).unwrap();
        store.put(&small, b"fits").unwrap();
        drop(store);
        let m = CacheManager::new(CacheManagerConfig::default(), Box::new(open()));
        assert_eq!(m.recover_from_store(), 1);
        assert!(m.directory().get(NodeId(0), &big).is_none());
        assert!(m.directory().get(NodeId(0), &small).is_some());
        assert_eq!(m.bodies().stored(), 1);
        assert_eq!(m.stats().snapshot().discards, 1);
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heat_sketch_tracks_lookups_and_exec_cost() {
        let m = manager(10);
        let k = key("/cgi-bin/hotkey?x=1");
        run_and_insert(&m, &k, b"body"); // one lookup + 100ms exec
        m.lookup(&k, k.as_str()); // local hit: second observation
        let top = m.heat().top(10);
        let entry = top.iter().find(|e| e.key == k.as_str()).unwrap();
        assert_eq!(entry.count, 2);
        assert_eq!(entry.error, 0);
        assert_eq!(entry.cost_us, 100_000);
        // Uncacheable paths never reach the sketch.
        let um = CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::deny_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        um.lookup(&key("/cgi-bin/u"), "/cgi-bin/u");
        assert!(um.heat().is_empty());
        // hotkeys: 0 disables the sketch entirely.
        let off = CacheManager::new(
            CacheManagerConfig {
                hotkeys: 0,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k2 = key("/cgi-bin/dark");
        off.lookup(&k2, k2.as_str());
        off.abort_execution(&k2);
        assert!(!off.heat().enabled());
        assert!(off.heat().top(10).is_empty());
    }

    #[test]
    fn replicated_manager_homes_every_key_everywhere() {
        let m = manager(10);
        assert_eq!(m.placement().kind(), DirectoryKind::Replicated);
        assert!(m.placement().ring().is_none());
        assert_eq!(
            m.placement().homes(&key("/cgi-bin/x")),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn partitioned_manager_assigns_homes_from_the_ring() {
        let m = CacheManager::new(
            CacheManagerConfig {
                num_nodes: 4,
                local: NodeId(1),
                directory: DirectoryKind::Partitioned,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        assert_eq!(m.placement().kind(), DirectoryKind::Partitioned);
        let ring = m
            .placement()
            .ring()
            .expect("partitioned mode builds a ring");
        assert_eq!(ring.members().len(), 4);
        for i in 0..50 {
            let k = key(&format!("/cgi-bin/h?id={i}"));
            assert_eq!(m.placement().homes(&k), &[ring.home(&k)]);
        }
    }

    #[test]
    fn complete_remote_serve_feeds_waiters_without_inserting() {
        let m = Arc::new(manager(10));
        let k = key("/cgi-bin/via-home?x=1");
        // Leader takes the miss (registering the in-flight marker)...
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        // ...a second request coalesces behind it...
        let waiter = match m.lookup(&k, k.as_str()) {
            LookupResult::CoalesceWait { waiter, .. } => waiter,
            other => panic!("{other:?}"),
        };
        let handle = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.wait_flight(waiter))
        };
        std::thread::sleep(Duration::from_millis(30));
        // ...and the leader resolves the miss from a remote owner.
        let _: Arc<[u8]> = m.complete_remote_serve(&k, "text/html", b"owner-body".to_vec());
        match handle.join().unwrap() {
            FlightWaitOutcome::Served { content_type, body } => {
                assert_eq!(content_type, "text/html");
                assert_eq!(&body[..], b"owner-body");
            }
            other => panic!("{other:?}"),
        }
        // Nothing was inserted and the flight is fully released: the next
        // lookup is a fresh leader miss, not a stuck coalesce-wait.
        assert_eq!(m.stats().snapshot().inserts, 0);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        m.abort_execution(&k);
    }

    /// Digest passes made by a store-tier hit that promotes its body into
    /// the memory tier, over `store`.
    fn digest_passes_of_a_store_tier_hit(store: Box<dyn Store>) -> u64 {
        let m = CacheManager::new(
            CacheManagerConfig {
                num_nodes: 1,
                local: NodeId(0),
                rules: CacheRules::allow_all(),
                mem_cache_bytes: 100, // one 64-byte body at a time
                ..Default::default()
            },
            store,
        );
        let (a, b) = (key("/cgi-bin/a"), key("/cgi-bin/b"));
        run_and_insert(&m, &a, &[b'a'; 64]);
        run_and_insert(&m, &b, &[b'b'; 64]); // pushes a's body out of the tier
        let before = Digest::passes();
        match m.lookup(&a, a.as_str()) {
            LookupResult::LocalHit { tier, body, .. } => {
                assert_eq!(tier, BodyTier::Disk);
                assert_eq!(&body[..], &[b'a'; 64]);
            }
            other => panic!("{other:?}"),
        }
        let passes = Digest::passes() - before;
        // Promoted under the right digest: the next hit is a memory hit.
        match m.lookup(&a, a.as_str()) {
            LookupResult::LocalHit { tier, .. } => assert_eq!(tier, BodyTier::Memory),
            other => panic!("{other:?}"),
        }
        passes
    }

    #[test]
    fn store_tier_hit_reuses_the_digest_the_segment_store_recorded() {
        let dir = std::env::temp_dir().join(format!("swala-mgr-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let segment = SegmentStore::open_with(&dir, SegmentConfig { fsync: false }).unwrap();
        assert_eq!(digest_passes_of_a_store_tier_hit(Box::new(segment)), 0);
        let _ = std::fs::remove_dir_all(&dir);
        // A store that keeps no digest costs the one pass it always did.
        assert_eq!(
            digest_passes_of_a_store_tier_hit(Box::new(MemStore::new())),
            1
        );
    }
}
