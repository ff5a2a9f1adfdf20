//! The cache manager — §4.1's "cacher module" state, minus the network.
//!
//! One `CacheManager` lives on each node. It owns the node's directory
//! (every table the placement rule puts here), the local body store, the replacement policy, the
//! cacheability rules and the statistics, and exposes exactly the
//! operations Figure 2's control flow needs. The `swala` server and the
//! `swala-proto` daemons drive it; none of them touch the directory or
//! the store directly.

use crate::digest::Digest;
use crate::directory::{CacheDirectory, Classification, RemoteUpdate, APPLY_RUN_MAX};
use crate::entry::EntryMeta;
use crate::key::CacheKey;
use crate::memcache::MemCache;
use crate::node::NodeId;
use crate::policy::PolicyKind;
use crate::ring::{DirectoryKind, Placement, DEFAULT_VNODES};
use crate::rules::{CacheDecision, CacheRules};
use crate::stats::CacheStats;
use crate::store::Store;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};
use swala_obs::{Gauge, HeatSketch, Histogram, Stage, Trace};

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
    /// Single-flight coalescing: concurrent misses for one key wait for
    /// the first executor instead of re-running the CGI. `false` keeps
    /// the paper's re-run semantics (§4.2, false-miss scenario 1).
    pub coalesce: bool,
    /// Bound on how long a coalesced miss waits for the leader before
    /// falling back to its own execution.
    pub coalesce_wait: Duration,
    /// Directory organization: the paper's replicated directory (the
    /// default), or consistent-hash partitioned with per-key home nodes.
    pub directory: DirectoryKind,
    /// Virtual points per node on the consistent-hash ring (partitioned
    /// mode only).
    pub ring_vnodes: usize,
    /// Monitored slots in the per-key heat sketch (space-saving top-K);
    /// 0 disables the sketch entirely (observations become no-ops).
    pub hotkeys: usize,
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
            coalesce_wait: Duration::from_secs(10),
            directory: DirectoryKind::Replicated,
            ring_vnodes: DEFAULT_VNODES,
            hotkeys: 128,
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
    /// An identical request is already executing here and coalescing is
    /// on: call [`CacheManager::wait_flight`] to be served the leader's
    /// body instead of re-running the CGI.
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
    /// Cached at a remote node: the caller must fetch over the wire.
    RemoteHit { meta: EntryMeta },
}

/// Which tier a local body was served from (telemetry's
/// `local-mem` / `local-disk` outcome distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyTier {
    /// Served from the in-memory body tier — zero syscalls.
    Memory,
    /// Read from the body store (tier disabled or cold).
    Disk,
}

/// Shared record of one key's in-flight execution. The leader (first
/// miss) executes; waiters block on the condvar until a result — or the
/// last executor's failure — is published.
#[derive(Debug)]
struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState {
    /// Executor(s) still running.
    Running,
    /// Finished. `Some` carries the body for waiters (published even when
    /// the insert itself was threshold-discarded); `None` means every
    /// executor failed and waiters must execute themselves.
    Done(Option<(String, Arc<[u8]>)>),
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: StdMutex::new(FlightState::Running),
            cv: Condvar::new(),
        }
    }

    /// Non-poisoning lock (an executor panicking mid-publish must not
    /// wedge waiters behind a poisoned mutex).
    fn lock(&self) -> MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Registry entry: the key's flight plus how many executors are working
/// on it (1 leader, plus re-runners when coalescing is off and fallback
/// executors). The entry — the paper's "in-flight marker" — stays alive
/// until the last executor finishes, which is what fixes the marker
/// clobbering between overlapping executions.
struct FlightEntry {
    flight: Arc<Flight>,
    executors: usize,
}

impl FlightEntry {
    fn new() -> FlightEntry {
        FlightEntry {
            flight: Arc::new(Flight::new()),
            executors: 1,
        }
    }
}

/// A waiter's handle on another request's in-flight execution; redeem it
/// with [`CacheManager::wait_flight`].
#[derive(Debug)]
pub struct FlightWaiter {
    flight: Arc<Flight>,
}

/// How a coalesced wait resolved.
#[derive(Debug)]
pub enum FlightWaitOutcome {
    /// The leader's body, shared zero-copy with every waiter.
    Served {
        content_type: String,
        body: Arc<[u8]>,
    },
    /// Every executor failed: the caller must execute itself.
    LeaderFailed,
    /// The bounded wait elapsed: the caller must execute itself.
    TimedOut,
}

/// What [`CacheManager::begin_fallback_execution`] decided.
#[derive(Debug)]
pub enum FallbackStart {
    /// The caller is registered as an executor and should run the CGI.
    Execute,
    /// Someone else is already producing this key: wait instead.
    Wait(FlightWaiter),
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

/// The store calls the manager times, in `store_ops` order.
#[derive(Clone, Copy)]
enum StoreOp {
    Put,
    Get,
    Delete,
}

/// Per-node cache state machine.
pub struct CacheManager {
    local: NodeId,
    capacity: usize,
    directory: CacheDirectory,
    store: Box<dyn Store>,
    /// Durations of the calls made on `store`, indexed by [`StoreOp`].
    store_ops: [Arc<Histogram>; 3],
    /// In-memory body tier over `store`; `None` when disabled.
    mem: Option<MemCache>,
    rules: CacheRules,
    stats: Arc<CacheStats>,
    /// Logical clock for recency bookkeeping.
    seq: AtomicU64,
    /// Keys currently being executed on this node: false-miss detection
    /// and (when `coalesce` is on) the single-flight waiter registry.
    flights: Mutex<HashMap<CacheKey, FlightEntry>>,
    /// Single-flight coalescing on/off (off = paper-faithful re-runs).
    coalesce: bool,
    /// Bounded wait before a coalesced miss falls back to executing.
    coalesce_wait: Duration,
    /// Which nodes' directories hold each key's entries.
    placement: Placement,
    /// Per-key request-frequency / cost sketch (space-saving top-K).
    heat: Arc<HeatSketch>,
}

impl CacheManager {
    /// Build a manager over the given body store.
    pub fn new(cfg: CacheManagerConfig, store: Box<dyn Store>) -> Self {
        CacheManager {
            local: cfg.local,
            capacity: cfg.capacity,
            directory: CacheDirectory::with_policy(cfg.num_nodes, cfg.local, cfg.policy),
            store,
            store_ops: std::array::from_fn(|_| Arc::new(Histogram::new())),
            mem: (cfg.mem_cache_bytes > 0).then(|| MemCache::new(cfg.mem_cache_bytes)),
            rules: cfg.rules,
            stats: Arc::new(CacheStats::new()),
            seq: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
            coalesce: cfg.coalesce,
            coalesce_wait: cfg.coalesce_wait,
            placement: Placement::new(cfg.directory, cfg.num_nodes, cfg.ring_vnodes),
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

    /// Statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Shared handle on the counters, for metrics-registry hookup.
    pub fn stats_arc(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// The per-key heat sketch (no-op when built with `hotkeys: 0`).
    pub fn heat(&self) -> &Arc<HeatSketch> {
        &self.heat
    }

    /// Shared handle on the memory tier's resident-bytes gauge, when
    /// the tier is enabled.
    pub fn mem_bytes_gauge(&self) -> Option<Arc<Gauge>> {
        self.mem.as_ref().map(|m| m.bytes_gauge())
    }

    /// Local capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The rules' verdict for `path`, without touching the directory.
    ///
    /// Used by fallback paths (e.g. after a false hit) that need the
    /// TTL/threshold parameters for a fresh insertion.
    pub fn lookup_decision(&self, path: &str) -> CacheDecision {
        self.rules.decide(path)
    }

    /// Next logical timestamp.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bytes currently held by the in-memory body tier.
    pub fn mem_bytes(&self) -> usize {
        self.mem.as_ref().map_or(0, |m| m.bytes())
    }

    /// Write-through to the memory tier (its bytes gauge tracks itself).
    /// `digest` is the content digest of `body` — computed once by the
    /// caller and shared with the store, which records it.
    fn mem_insert(&self, key: &CacheKey, digest: Digest, body: &Arc<[u8]>) {
        if let Some(mem) = &self.mem {
            if mem.insert(key, digest, Arc::clone(body)) {
                CacheStats::bump(&self.stats.mem_dedup_hits);
            }
        }
    }

    /// Admit a body just read from the store, under the digest the store
    /// recorded for it where it keeps one — which saves a pass over the
    /// body.
    fn mem_promote(&self, key: &CacheKey, digest: Option<Digest>, body: &Arc<[u8]>) {
        self.mem_insert(key, digest.unwrap_or_else(|| Digest::of(body)), body);
    }

    /// Mirror a directory-visible removal into the memory tier.
    fn mem_remove(&self, key: &CacheKey) {
        if let Some(mem) = &self.mem {
            mem.remove(key);
        }
    }

    /// Run one store call, recording how long it took under `op`. Only
    /// store calls pay for the clock.
    fn timed_store<T>(&self, op: StoreOp, call: impl FnOnce(&dyn Store) -> T) -> T {
        let t0 = Instant::now();
        let out = call(&*self.store);
        self.store_ops[op as usize].record_duration(t0.elapsed());
        out
    }

    fn store_get(&self, key: &CacheKey) -> io::Result<(Vec<u8>, Option<Digest>)> {
        self.timed_store(StoreOp::Get, |s| s.get_digested(key))
    }

    fn store_delete(&self, key: &CacheKey) {
        let _ = self.timed_store(StoreOp::Delete, |s| s.delete(key));
    }

    /// Read a local body: memory tier first, then the store (populating
    /// the tier on the way back). `None` means the store read failed.
    /// Records mem-tier / store-read spans on `trace`.
    fn read_local_body(&self, key: &CacheKey, trace: &mut Trace) -> Option<(Arc<[u8]>, BodyTier)> {
        if let Some(mem) = &self.mem {
            let t0 = trace.start_span();
            let cached = mem.get(key);
            trace.end_span(Stage::MemTier, t0);
            if let Some(body) = cached {
                CacheStats::bump(&self.stats.mem_hits);
                return Some((body, BodyTier::Memory));
            }
        }
        CacheStats::bump(&self.stats.store_reads);
        let t0 = trace.start_span();
        let read = self.store_get(key);
        trace.end_span(Stage::StoreRead, t0);
        let (body, digest) = read.ok()?;
        let body: Arc<[u8]> = body.into();
        if self.mem.is_some() {
            CacheStats::bump(&self.stats.mem_misses);
            self.mem_promote(key, digest, &body);
        }
        Some((body, BodyTier::Disk))
    }

    /// Figure 2, top half: classify a GET for `path_with_query`.
    ///
    /// For misses the key is marked in-flight; the caller *must* balance
    /// with [`complete_execution`](Self::complete_execution) or
    /// [`abort_execution`](Self::abort_execution).
    pub fn lookup(&self, key: &CacheKey, path: &str) -> LookupResult {
        self.lookup_traced(key, path, &mut Trace::disabled())
    }

    /// [`lookup`](Self::lookup) with rules / dir-lookup / mem-tier /
    /// store-read spans recorded on `trace` (no-ops when disabled).
    pub fn lookup_traced(&self, key: &CacheKey, path: &str, trace: &mut Trace) -> LookupResult {
        let t0 = trace.start_span();
        let decision = self.rules.decide(path);
        trace.end_span(Stage::Rules, t0);
        if decision == CacheDecision::Uncacheable {
            CacheStats::bump(&self.stats.uncacheable);
            return LookupResult::Uncacheable;
        }
        CacheStats::bump(&self.stats.lookups);
        self.heat.observe(key.as_str(), 0);
        let t0 = trace.start_span();
        let classification = self.directory.classify(key);
        trace.end_span(Stage::DirLookup, t0);
        match classification {
            Classification::Local(meta) => match self.read_local_body(key, trace) {
                Some((body, tier)) => {
                    let seq = self.next_seq();
                    self.directory.record_hit(self.local, key, seq);
                    CacheStats::bump(&self.stats.local_hits);
                    LookupResult::LocalHit { meta, body, tier }
                }
                // Directory/store disagreement (e.g. file removed out from
                // under us): self-heal by dropping the directory entry and
                // treating it as a miss.
                None => {
                    self.directory.remove(self.local, key);
                    self.mem_remove(key);
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
        let mut flights = self.flights.lock();
        match flights.entry(key.clone()) {
            Entry::Occupied(mut occupied) => {
                if self.coalesce {
                    // Single-flight: park behind the in-flight execution
                    // instead of re-running the CGI.
                    let waiter = FlightWaiter {
                        flight: Arc::clone(&occupied.get().flight),
                    };
                    drop(flights);
                    CacheStats::bump(&self.stats.coalesce_waits);
                    LookupResult::CoalesceWait { decision, waiter }
                } else {
                    // Identical request already executing here: Swala
                    // re-runs it rather than waiting (§4.2, false-miss
                    // scenario 1).
                    occupied.get_mut().executors += 1;
                    drop(flights);
                    CacheStats::bump(&self.stats.false_misses);
                    LookupResult::Miss {
                        decision,
                        first_in_flight: false,
                    }
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(FlightEntry::new());
                drop(flights);
                if self.coalesce {
                    CacheStats::bump(&self.stats.coalesce_leads);
                }
                LookupResult::Miss {
                    decision,
                    first_in_flight: true,
                }
            }
        }
    }

    /// Block until the key's leader publishes a result, fails, or the
    /// bounded wait elapses. On `LeaderFailed`/`TimedOut` the caller must
    /// register itself via
    /// [`begin_forced_execution`](Self::begin_forced_execution) and run
    /// the CGI — the deterministic fallback.
    pub fn wait_flight(&self, waiter: FlightWaiter) -> FlightWaitOutcome {
        let deadline = Instant::now() + self.coalesce_wait;
        let mut state = waiter.flight.lock();
        loop {
            match &*state {
                FlightState::Done(Some((content_type, body))) => {
                    return FlightWaitOutcome::Served {
                        content_type: content_type.clone(),
                        body: Arc::clone(body),
                    };
                }
                FlightState::Done(None) => {
                    CacheStats::bump(&self.stats.coalesce_fallbacks);
                    return FlightWaitOutcome::LeaderFailed;
                }
                FlightState::Running => {}
            }
            let now = Instant::now();
            if now >= deadline {
                CacheStats::bump(&self.stats.coalesce_timeouts);
                CacheStats::bump(&self.stats.coalesce_fallbacks);
                return FlightWaitOutcome::TimedOut;
            }
            state = waiter
                .flight
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// One executor finished. Drops its refcount; the entry — the paper's
    /// "in-flight marker" — survives until the *last* executor is done,
    /// so overlapping executions no longer clobber each other. A success
    /// (`Some`) is published to waiters immediately and never downgraded;
    /// `None` wakes waiters only when no executor remains.
    fn finish_flight(&self, key: &CacheKey, result: Option<(String, Arc<[u8]>)>) {
        let mut flights = self.flights.lock();
        let Some(entry) = flights.get_mut(key) else {
            return;
        };
        entry.executors = entry.executors.saturating_sub(1);
        let last = entry.executors == 0;
        let flight = Arc::clone(&entry.flight);
        if last {
            flights.remove(key);
        }
        drop(flights);
        let mut state = flight.lock();
        if matches!(&*state, FlightState::Done(Some(_))) {
            return;
        }
        if result.is_some() || last {
            *state = FlightState::Done(result);
            flight.cv.notify_all();
        }
    }

    /// Figure 2, bottom half: the CGI ran successfully in `exec` time.
    ///
    /// Applies the execution-time threshold, stores the body, inserts the
    /// directory entry and evicts down to capacity. Returns what must be
    /// broadcast.
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
        // answered by these bytes.
        let shared: Arc<[u8]> = Arc::from(body);
        self.finish_flight(key, Some((content_type.to_string(), Arc::clone(&shared))));
        // Attribute the execution's cost to the key's heat-sketch slot
        // (only if the key is still monitored — no count is added).
        self.heat.add_cost(key.as_str(), exec.as_micros() as u64);
        if !decision.should_insert(exec) {
            CacheStats::bump(&self.stats.discards);
            return Ok(InsertOutcome::Discarded);
        }
        let ttl = match decision {
            CacheDecision::Cacheable { ttl, .. } => *ttl,
            CacheDecision::Uncacheable => unreachable!("should_insert rejected uncacheable"),
        };
        let seq = self.next_seq();
        let meta = EntryMeta::new(
            key.clone(),
            self.local,
            body.len() as u64,
            content_type,
            exec.as_micros() as u64,
            ttl,
            seq,
        );
        // Self-describing write: the header carries everything needed to
        // rebuild the directory entry on a warm restart. The digest is
        // computed once: the store records it as the body's integrity
        // value, the memory tier dedups on it.
        let digest = Digest::of(body);
        self.timed_store(StoreOp::Put, |s| {
            s.put_digested(key, &(&meta).into(), &digest, body)
        })?;
        self.mem_insert(key, digest, &shared);
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
            self.store_delete(&victim.key);
            self.mem_remove(&victim.key);
            CacheStats::bump(&self.stats.evictions);
        }
        eviction.victims
    }

    /// The CGI failed (Figure 2's unhappy path): release this executor's
    /// in-flight slot without inserting anything. Waiters are woken to
    /// fall back only once no executor remains.
    pub fn abort_execution(&self, key: &CacheKey) {
        self.finish_flight(key, None);
        CacheStats::bump(&self.stats.aborts);
    }

    /// A miss was resolved by fetching the body from a *remote* owner
    /// the key's home named (a node that is not one of the key's homes
    /// asks the home on a miss): publish the body to any
    /// coalesced waiters and release the caller's executor slot, without
    /// inserting — the entry stays owned by the remote node.
    ///
    /// Balances the in-flight registration from
    /// [`lookup`](Self::lookup)'s `Miss` just like `complete_execution`
    /// would, so the flight-leader never deadlocks waiting on itself.
    pub fn complete_remote_serve(&self, key: &CacheKey, content_type: &str, body: Arc<[u8]>) {
        self.finish_flight(key, Some((content_type.to_string(), body)));
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
        trace.end_span(Stage::DirLookup, t0);
        let meta = meta?;
        let (body, _tier) = self.read_local_body(key, trace)?;
        let seq = self.next_seq();
        self.directory.record_hit(self.local, key, seq);
        Some((meta, body))
    }

    /// A remote fetch came back empty: §4.2's false hit. The caller falls
    /// back to executing locally; we also stop advertising the entry.
    pub fn note_false_hit(&self, owner: NodeId, key: &CacheKey) {
        CacheStats::bump(&self.stats.false_hits);
        self.directory.remove(owner, key);
    }

    /// Mark the start of the fallback execution after a false hit (the
    /// usual miss bookkeeping, minus the `misses` count which already
    /// happened as a remote hit). With coalescing on, a fallback that
    /// finds the key already executing waits for it like any other miss.
    pub fn begin_fallback_execution(&self, key: &CacheKey) -> FallbackStart {
        let mut flights = self.flights.lock();
        match flights.entry(key.clone()) {
            Entry::Occupied(mut occupied) => {
                if self.coalesce {
                    let waiter = FlightWaiter {
                        flight: Arc::clone(&occupied.get().flight),
                    };
                    drop(flights);
                    CacheStats::bump(&self.stats.coalesce_waits);
                    FallbackStart::Wait(waiter)
                } else {
                    occupied.get_mut().executors += 1;
                    FallbackStart::Execute
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(FlightEntry::new());
                FallbackStart::Execute
            }
        }
    }

    /// Register the caller as an executor unconditionally — used after a
    /// coalesced wait fails (leader failure or timeout) so the caller's
    /// own execution is balanced by `complete_execution`/`abort_execution`
    /// like any other.
    pub fn begin_forced_execution(&self, key: &CacheKey) {
        let mut flights = self.flights.lock();
        match flights.entry(key.clone()) {
            Entry::Occupied(mut occupied) => occupied.get_mut().executors += 1,
            Entry::Vacant(vacant) => {
                vacant.insert(FlightEntry::new());
            }
        }
    }

    /// Apply a peer's insert notice to its directory table.
    pub fn apply_remote_insert(&self, meta: EntryMeta) {
        debug_assert_ne!(meta.owner, self.local, "own inserts are applied directly");
        CacheStats::bump(&self.stats.updates_applied);
        // If we are executing the same key right now, that execution is a
        // false miss (§4.2, scenario 2): the peer cached it first.
        if self.flights.lock().contains_key(&meta.key) {
            CacheStats::bump(&self.stats.false_misses);
        }
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

    /// Apply a peer's delete notice.
    pub fn apply_remote_delete(&self, owner: NodeId, key: &CacheKey) {
        CacheStats::bump(&self.stats.updates_applied);
        self.directory.remove(owner, key);
        if owner == self.local {
            self.mem_remove(key);
        }
    }

    /// Apply a run of peer notices at once: what an
    /// [`apply_remote_insert`](Self::apply_remote_insert) or
    /// [`apply_remote_delete`](Self::apply_remote_delete) per update
    /// would do, with one flight-registry lock and one table write-lock
    /// per run of up to [`APPLY_RUN_MAX`] updates instead of a lock
    /// round-trip each per notice. A peer's paced link delivers its
    /// notices this way.
    pub fn apply_remote_batch(&self, updates: Vec<RemoteUpdate>) {
        if updates.is_empty() {
            return;
        }
        CacheStats::add(&self.stats.updates_applied, updates.len() as u64);
        for run in updates.chunks(APPLY_RUN_MAX) {
            // An insert notice for a key executing here right now is a
            // false miss (§4.2, scenario 2): the peer cached it first.
            let flights = self.flights.lock();
            if !flights.is_empty() {
                let false_misses = run
                    .iter()
                    .filter(
                        |u| matches!(u, RemoteUpdate::Insert(m) if flights.contains_key(&m.key)),
                    )
                    .count();
                CacheStats::add(&self.stats.false_misses, false_misses as u64);
            }
        }
        for update in &updates {
            match update {
                RemoteUpdate::Insert(meta) => {
                    debug_assert_ne!(meta.owner, self.local, "own inserts are applied directly")
                }
                RemoteUpdate::Delete { owner, key } => {
                    if *owner == self.local {
                        self.mem_remove(key);
                    }
                }
            }
        }
        self.directory.apply_updates(updates);
    }

    /// Explicitly remove a local entry (admin/invalidations). Returns the
    /// removed metadata — the caller broadcasts the deletion.
    pub fn remove_local(&self, key: &CacheKey) -> Option<EntryMeta> {
        let meta = self.directory.remove(self.local, key)?;
        self.store_delete(key);
        self.mem_remove(key);
        Some(meta)
    }

    /// The purge daemon's body: drop expired local entries (deleting
    /// their files) and stale remote metadata. Returns the local
    /// expirations for delete-broadcast.
    pub fn purge_expired(&self) -> Vec<EntryMeta> {
        let dead = self.directory.purge_expired();
        for m in &dead {
            self.store_delete(&m.key);
            self.mem_remove(&m.key);
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
    /// than resurrected; the replacement policy is applied so the
    /// recovered set respects capacity. Returns how many entries were
    /// restored.
    pub fn recover_from_store(&self) -> usize {
        let now = crate::entry::unix_now();
        let mut restored = 0;
        for recovered in self.store.recover() {
            if recovered.expires_unix.is_some_and(|e| e <= now) {
                self.store_delete(&recovered.key);
                CacheStats::bump(&self.stats.expirations);
                continue;
            }
            let seq = self.next_seq();
            self.directory
                .insert_fresh(recovered.into_meta(self.local, seq));
            restored += 1;
        }
        let evicted = self.evict_to_capacity();
        self.warm_mem_tier();
        restored - evicted.len()
    }

    /// Pre-populate the memory tier from the store after a warm restart,
    /// so the post-restart hit path matches the pre-crash steady state
    /// (no cold mem-tier window of store reads). Budget-bounded: stops
    /// admitting once the tier is full rather than churning LRU.
    fn warm_mem_tier(&self) {
        let Some(mem) = &self.mem else {
            return;
        };
        for meta in self.local_snapshot() {
            // Shared bodies cost nothing extra, so the size guard is
            // conservative — at worst it skips a dedup freebie.
            if mem.bytes() + meta.size as usize > mem.budget() {
                continue;
            }
            let Ok((body, digest)) = self.store_get(&meta.key) else {
                continue;
            };
            self.mem_promote(&meta.key, digest, &body.into());
        }
    }

    /// The body store's self-reported metrics (file, live and free bytes,
    /// fsyncs — zeros for stores that don't track a given field).
    pub fn store_metrics(&self) -> crate::store::StoreMetrics {
        self.store.metrics()
    }

    /// How long this manager's `put`, `get` and `delete` calls on the
    /// body store took, measured where they ran.
    pub fn store_op_durations(&self) -> [(&'static str, Arc<Histogram>); 3] {
        let [put, get, delete] = self.store_ops.each_ref().map(Arc::clone);
        [("put", put), ("get", get), ("delete", delete)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, meta, tier } => {
                assert_eq!(&body[..], b"body-a");
                assert_eq!(meta.key, k);
                assert_eq!(tier, BodyTier::Memory);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let s = m.stats().snapshot();
        assert_eq!(s.misses, 1);
        assert_eq!(s.local_hits, 1);
        assert_eq!(s.inserts, 1);
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

    #[test]
    fn fallback_after_false_hit_coalesces_too() {
        let m = manager(10);
        let k = key("/cgi-bin/fh?x=1");
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
        // A false-hit fallback arriving while the miss executes waits for
        // it instead of double-executing.
        assert!(matches!(
            m.begin_fallback_execution(&k),
            FallbackStart::Wait(_)
        ));
        assert_eq!(m.stats().snapshot().coalesce_waits, 1);
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
        let remote_meta = EntryMeta::new(k.clone(), NodeId(2), 4, "text/html", 1_000_000, None, 1);
        m.apply_remote_insert(remote_meta);
        match m.lookup(&k, k.as_str()) {
            LookupResult::RemoteHit { meta } => assert_eq!(meta.owner, NodeId(2)),
            other => panic!("{other:?}"),
        }
        // Remote says gone: false hit, entry dropped, fallback executes.
        m.note_false_hit(NodeId(2), &k);
        assert_eq!(m.stats().snapshot().false_hits, 1);
        assert!(matches!(
            m.begin_fallback_execution(&k),
            FallbackStart::Execute
        ));
        let decision = CacheRules::allow_all().decide(k.as_str());
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

    #[test]
    fn purge_expired_deletes_files() {
        let rules = CacheRules::parse("cache * ttl=1\n").unwrap();
        let m = CacheManager::new(
            CacheManagerConfig {
                rules,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        );
        let k = key("/cgi-bin/ttl");
        let decision = match m.lookup(&k, k.as_str()) {
            LookupResult::Miss { decision, .. } => decision,
            other => panic!("{other:?}"),
        };
        m.complete_execution(&k, b"x", "t", Duration::from_millis(10), &decision)
            .unwrap();
        // Force expiry by rewriting the entry's clock.
        let mut meta = m.directory().get(NodeId(0), &k).unwrap();
        meta.expires_unix = Some(1);
        m.directory().insert(NodeId(0), meta);
        let dead = m.purge_expired();
        assert_eq!(dead.len(), 1);
        assert_eq!(m.stats().snapshot().expirations, 1);
        assert!(matches!(
            m.lookup(&k, k.as_str()),
            LookupResult::Miss { .. }
        ));
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
        // First hit: write-through already populated the tier, so even
        // the first lookup is memory-served.
        let first = match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, .. } => body,
            other => panic!("{other:?}"),
        };
        let reads_after_first = m.stats().snapshot().store_reads;
        let second = match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, .. } => body,
            other => panic!("{other:?}"),
        };
        let s = m.stats().snapshot();
        assert_eq!(s.store_reads, reads_after_first, "warm hit read the store");
        assert_eq!(s.mem_hits, 2);
        assert_eq!(s.mem_misses, 0);
        assert_eq!(m.mem_bytes(), 8);
        // Both hits share the tier's single allocation — zero copies.
        assert!(Arc::ptr_eq(&first, &second));
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
        assert_eq!(m.mem_bytes(), 0);
        assert!(m.mem_bytes_gauge().is_none());
    }

    #[test]
    fn mem_tier_stays_coherent_with_removals() {
        let m = manager(10);
        let k = key("/cgi-bin/gone");
        run_and_insert(&m, &k, b"stale?");
        assert_eq!(m.mem_bytes(), 6);
        // Explicit removal drops the body from the tier too: a later
        // re-insert must not resurrect the old bytes.
        m.remove_local(&k);
        assert_eq!(m.mem_bytes(), 0);
        run_and_insert(&m, &k, b"fresh");
        match m.lookup(&k, k.as_str()) {
            LookupResult::LocalHit { body, .. } => assert_eq!(&body[..], b"fresh"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_heals_directory_store_disagreement() {
        let m = manager(10);
        let k = key("/cgi-bin/heal");
        run_and_insert(&m, &k, b"x");
        // Simulate the body vanishing (e.g. operator wiped the cache dir).
        // MemStore::delete never fails.
        m.directory().get(NodeId(0), &k).unwrap();
        // Reach in via the store trait on a fresh manager is not possible,
        // so emulate by removing through remove_local then re-adding only
        // the directory entry.
        let meta = m.remove_local(&k).unwrap();
        m.directory().insert(NodeId(0), meta);
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
        let body: Arc<[u8]> = Arc::from(&b"owner-body"[..]);
        m.complete_remote_serve(&k, "text/html", body);
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
        let segment = crate::segstore::SegmentStore::open_with(
            &dir,
            crate::segstore::SegmentConfig { fsync: false },
        )
        .unwrap();
        assert_eq!(digest_passes_of_a_store_tier_hit(Box::new(segment)), 0);
        let _ = std::fs::remove_dir_all(&dir);
        // A store that keeps no digest costs the one pass it always did.
        assert_eq!(
            digest_passes_of_a_store_tier_hit(Box::new(MemStore::new())),
            1
        );
    }
}
