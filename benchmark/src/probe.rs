//! In-process layer probes: replay a workload's requests through each
//! crate's public functions in handler order, one span per call.
//!
//! This is the outside-in trace the benchmark can take without touching
//! the server: the harness builds the same pieces a node is made of (a
//! `CacheManager` over the default file store, a peer with its cache
//! daemon on loopback, a `FetchPool`, a `Broadcaster`, the `adl`
//! program) and drives them the way `handler.rs` does. Two kinds of
//! span come out:
//!
//! * **path** spans — children of a `request` span, in handler order;
//!   their sum is what the probed layers cost one request. `store.*`
//!   spans nest under the `cache.*` call that caused them (the manager
//!   is given a recording `Store` wrapper), so those have true self
//!   times.
//! * **component** spans — roots, recorded after the request: a second,
//!   standalone call of something that runs *inside* a path span
//!   (rules inside lookup, digest and mem-tier insert inside insert,
//!   codec inside fetch and broadcast). They split a path span up; they
//!   are not added to the path sum.

use crate::client::reference_body;
use crate::gen::{Catalog, Class, Req, Workload, CALLERS, ZIPF_MEM_CACHE_BYTES};
use crate::report::median;
use crate::spans::{self_times, Recorder, Span};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::files::serve_file_conditional;
use swala_cache::store::{HeaderMeta, RecoveredEntry};
use swala_cache::{
    CacheKey, CacheManager, CacheManagerConfig, CacheRules, Digest, DiskStore, EntryMeta, HashRing,
    InsertOutcome, LookupResult, MemCache, NodeId, SegmentConfig, SegmentStore, Store,
    StoreMetrics, DEFAULT_VNODES,
};
use swala_cgi::{CgiRequest, Program, SimulatedProgram, WorkKind};
use swala_http::{try_parse_request, ParseStatus, Response};
use swala_obs::{HeatSketch, Histogram, Stage, Trace};
use swala_proto::{
    announce_delete, announce_insert, default_dialer, read_frame, write_frame, Broadcaster,
    CacheDaemons, DaemonConfig, FetchOutcome, FetchPool, Message, RetryPolicy, DEFAULT_POOL_SIZE,
};

/// Requests replayed per workload, unless the time budget ends first.
const REPLAY_REQUESTS: usize = 20_000;
/// Operations per standalone store probe; the fsync pair uses fewer
/// because each costs a device flush.
const STORE_OPS: usize = 512;
const STORE_FSYNC_OPS: usize = 200;

/// Path spans: what the sum over a request's layers is made of.
const PATH_SPANS: &[&str] = &[
    "http.parse",
    "cache.lookup_hit",
    "cache.lookup_miss",
    "proto.fetch_rtt",
    "cgi.exec",
    "cache.insert",
    "cache.insert_evicting",
    "proto.broadcast_enqueue",
    "core.static",
    "http.write",
];

pub struct ProbeOutput {
    pub spans: Vec<Span>,
    /// Median self time (ns) and count, by span name.
    pub medians: BTreeMap<&'static str, (f64, usize)>,
    /// Mean over replayed requests of the sum of their path spans, µs.
    pub path_mean_us: f64,
    pub digest_ns_per_kib: f64,
    pub requests: usize,
}

impl ProbeOutput {
    pub fn median_ns(&self, span: &str) -> f64 {
        self.medians.get(span).map_or(0.0, |m| m.0)
    }

    pub fn count(&self, span: &str) -> usize {
        self.medians.get(span).map_or(0, |m| m.1)
    }
}

/// `Store` that records a span around every body operation.
struct SpanStore {
    inner: Box<dyn Store>,
    rec: Arc<Recorder>,
}

impl Store for SpanStore {
    fn put_described(&self, key: &CacheKey, meta: &HeaderMeta, body: &[u8]) -> io::Result<()> {
        self.rec
            .span("store.put", || self.inner.put_described(key, meta, body))
    }
    fn put_digested(
        &self,
        key: &CacheKey,
        meta: &HeaderMeta,
        digest: &Digest,
        body: &[u8],
    ) -> io::Result<()> {
        self.rec.span("store.put", || {
            self.inner.put_digested(key, meta, digest, body)
        })
    }
    fn get(&self, key: &CacheKey) -> io::Result<Vec<u8>> {
        self.rec.span("store.get", || self.inner.get(key))
    }
    fn delete(&self, key: &CacheKey) -> io::Result<()> {
        self.rec.span("store.delete", || self.inner.delete(key))
    }
    fn contains(&self, key: &CacheKey) -> bool {
        self.inner.contains(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn recover(&self) -> Vec<RecoveredEntry> {
        self.inner.recover()
    }
    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
}

/// The pieces of node 0, plus node 1 as its peer.
struct Rig {
    rec: Arc<Recorder>,
    local: Arc<CacheManager>,
    peer: Arc<CacheManager>,
    peer_addr: SocketAddr,
    /// Serves node 0's fetches and applies its notices, over loopback
    /// as between two real nodes.
    peer_daemons: CacheDaemons,
    broadcaster: Arc<Broadcaster>,
    pool: FetchPool,
    program: SimulatedProgram,
    /// Capacity of the local manager (inserts beyond it evict).
    capacity: usize,
}

fn manager(node: u16, mem_cache_bytes: usize, store: Box<dyn Store>) -> Arc<CacheManager> {
    Arc::new(CacheManager::new(
        CacheManagerConfig {
            num_nodes: CALLERS,
            local: NodeId(node),
            mem_cache_bytes,
            ..CacheManagerConfig::default()
        },
        store,
    ))
}

impl Rig {
    fn build(workload: Workload, dir: &Path) -> io::Result<Rig> {
        let rec = Arc::new(Recorder::new());
        let defaults = CacheManagerConfig::default();
        let mem = if workload == Workload::ZipfMix {
            ZIPF_MEM_CACHE_BYTES
        } else {
            defaults.mem_cache_bytes
        };
        let local = manager(
            0,
            mem,
            Box::new(SpanStore {
                inner: Box::new(DiskStore::open_with_fsync(dir.join("probe-store0"), false)?),
                rec: Arc::clone(&rec),
            }),
        );
        let peer = manager(
            1,
            mem,
            Box::new(DiskStore::open_with_fsync(dir.join("probe-store1"), false)?),
        );
        let peer_daemons = CacheDaemons::start(
            Arc::clone(&peer),
            Arc::new(Broadcaster::solo()),
            DaemonConfig::default(),
        )?;
        let peer_addr = peer_daemons.addr();
        Ok(Rig {
            rec,
            local,
            peer,
            peer_addr,
            peer_daemons,
            broadcaster: Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)])),
            pool: FetchPool::new(default_dialer(), DEFAULT_POOL_SIZE),
            program: SimulatedProgram::trace_driven("adl", WorkKind::Spin),
            capacity: defaults.capacity,
        })
    }

    /// Put `req`'s result into `mgr` as if it had executed there with
    /// the cost its `ms=` names, without spinning for it.
    fn prefill(&self, mgr: &CacheManager, req: &Req, spanned: bool) -> io::Result<EntryMeta> {
        let key = CacheKey::new(&*req.target);
        let LookupResult::Miss { decision, .. } = mgr.lookup(&key, key.as_str()) else {
            return Err(io::Error::other(format!(
                "prefill of {key:?} was not a miss"
            )));
        };
        let body = reference_body(req);
        let exec = Duration::from_millis(if req.target.contains("ms=2") { 2 } else { 0 });
        let open = spanned.then(|| self.rec.enter());
        let outcome = mgr.complete_execution(&key, &body, "text/html", exec, &decision);
        if let Some(open) = open {
            self.rec.exit(open, "cache.insert");
        }
        match outcome? {
            InsertOutcome::Inserted { meta, .. } => Ok(meta),
            InsertOutcome::Discarded => Err(io::Error::other("prefill insert was discarded")),
        }
    }

    /// Bring both managers to the state the live cluster has after
    /// set-up: caller 0's warm-up owned locally, caller 1's owned by the
    /// peer and listed in the local directory.
    fn warm(&self, catalog: &Catalog) -> io::Result<()> {
        self.rec.set_request(0);
        for req in catalog.warmup(0) {
            self.prefill(&self.local, &req, true)?;
        }
        for req in catalog.warmup(1) {
            let meta = self.prefill(&self.peer, &req, false)?;
            self.local.apply_remote_insert(meta);
        }
        Ok(())
    }

    /// One request through node 0, in `handler.rs` order.
    fn replay(&self, seq: u32, req: &Req, docroot: &Path, extras: &Extras) -> io::Result<()> {
        let rec = &self.rec;
        rec.set_request(seq);
        let root = rec.enter();
        let parsed = rec.span("http.parse", || try_parse_request(&req.wire));
        let ParseStatus::Complete { request, .. } = parsed else {
            return Err(io::Error::other("generated request did not parse"));
        };
        let path = request.target.path.as_str();
        let mut component = Component::None;
        let mut resp = if req.class == Class::Static {
            rec.span("core.static", || {
                serve_file_conditional(docroot, path, None)
            })
        } else {
            let key = CacheKey::new(request.target.cache_key_string());
            let open = rec.enter();
            let looked = self.local.lookup(&key, key.as_str());
            let hit = !matches!(looked, LookupResult::Miss { .. });
            rec.exit(
                open,
                if hit {
                    "cache.lookup_hit"
                } else {
                    "cache.lookup_miss"
                },
            );
            match looked {
                LookupResult::LocalHit { meta, body, .. } => {
                    component = Component::LocalHit(key);
                    Response::ok(&meta.content_type, body)
                }
                LookupResult::RemoteHit { meta } => {
                    let (outcome, _) = rec.span("proto.fetch_rtt", || {
                        self.pool.fetch(
                            meta.owner,
                            self.peer_addr,
                            &key,
                            Duration::from_secs(2),
                            &RetryPolicy::default(),
                            None,
                        )
                    });
                    let FetchOutcome::Hit { content_type, body } = outcome else {
                        return Err(io::Error::other(format!("probe fetch: {outcome:?}")));
                    };
                    let resp = Response::ok(&content_type, body.clone());
                    component = Component::Fetched(key, content_type, body);
                    resp
                }
                LookupResult::Miss { decision, .. } => {
                    let cgi = CgiRequest::from_http(&request, "127.0.0.1:0", "Swala/0.1", 80);
                    let started = Instant::now();
                    let out = rec.span("cgi.exec", || self.program.run(&cgi))?;
                    let exec = started.elapsed();
                    let evicting = self.local.directory().len(NodeId(0)) >= self.capacity;
                    let open = rec.enter();
                    let outcome = self.local.complete_execution(
                        &key,
                        &out.body,
                        &out.content_type,
                        exec,
                        &decision,
                    );
                    rec.exit(
                        open,
                        if evicting {
                            "cache.insert_evicting"
                        } else {
                            "cache.insert"
                        },
                    );
                    if let InsertOutcome::Inserted { meta, evicted } = outcome? {
                        rec.span("proto.broadcast_enqueue", || {
                            announce_insert(&self.local, &self.broadcaster, &meta);
                            for victim in &evicted {
                                announce_delete(
                                    &self.local,
                                    &self.broadcaster,
                                    victim.owner,
                                    &victim.key,
                                );
                            }
                        });
                        component = Component::Inserted(meta, out.body.clone());
                    }
                    Response::ok(&out.content_type, out.body)
                }
                other => {
                    return Err(io::Error::other(format!(
                        "single-threaded replay cannot see {other:?}"
                    )))
                }
            }
        };
        resp.set_server("Swala/0.1");
        resp.headers
            .set("Date", swala_http::date::http_date_cached());
        resp.set_keep_alive(true);
        rec.span("http.write", || resp.write_to(&mut io::sink(), true))
            .map_err(|e| io::Error::other(format!("response write: {e}")))?;
        rec.exit(root, "request");
        extras.components(rec, path, component);
        Ok(())
    }

    fn finish(self) -> Vec<Span> {
        self.broadcaster.shutdown();
        self.peer_daemons.shutdown();
        drop((self.local, self.pool));
        Arc::try_unwrap(self.rec)
            .ok()
            .expect("every recorder handle was dropped with the rig")
            .into_spans()
    }
}

/// What the request did, for the component probes that follow it.
enum Component {
    None,
    LocalHit(CacheKey),
    Fetched(CacheKey, String, Vec<u8>),
    Inserted(EntryMeta, Vec<u8>),
}

/// Standalone instances for the component probes.
struct Extras {
    rules: CacheRules,
    mem: MemCache,
    ring: HashRing,
    hist: Histogram,
    heat: HeatSketch,
    /// Bytes and ns over all timed digests (bodies differ in size, so
    /// the digest is reported per KiB, not per call).
    digest_bytes: Cell<u64>,
    digest_ns: Cell<u64>,
}

impl Extras {
    fn new(workload: Workload) -> Extras {
        let defaults = CacheManagerConfig::default();
        Extras {
            rules: CacheRules::allow_all(),
            mem: MemCache::new(if workload == Workload::ZipfMix {
                ZIPF_MEM_CACHE_BYTES
            } else {
                defaults.mem_cache_bytes
            }),
            ring: HashRing::new(CALLERS, DEFAULT_VNODES),
            hist: Histogram::new(),
            heat: HeatSketch::new(defaults.hotkeys),
            digest_bytes: Cell::new(0),
            digest_ns: Cell::new(0),
        }
    }

    /// Digest a body and put it into the standalone mem tier, the two
    /// steps `complete_execution` runs between its store write and its
    /// directory insert.
    fn mem_insert(&self, rec: &Recorder, key: &CacheKey, body: &[u8]) {
        let t0 = Instant::now();
        let digest = rec.span("cache.digest", || Digest::of(body));
        self.digest_ns
            .set(self.digest_ns.get() + t0.elapsed().as_nanos() as u64);
        self.digest_bytes
            .set(self.digest_bytes.get() + body.len() as u64);
        let shared: Arc<[u8]> = Arc::from(body);
        rec.span("cache.mem_insert", || self.mem.insert(key, digest, shared));
    }

    fn digest_ns_per_kib(&self) -> f64 {
        match self.digest_bytes.get() {
            0 => 0.0,
            bytes => self.digest_ns.get() as f64 * 1024.0 / bytes as f64,
        }
    }

    fn components(&self, rec: &Recorder, path: &str, what: Component) {
        // Every request pays these, whatever its outcome.
        rec.span("obs.hist_record", || self.hist.record(12));
        rec.span("obs.heat_update", || self.heat.observe(path, 12));
        let mut trace = Trace::active(1, 0, path, Instant::now());
        rec.span("obs.trace_span", || {
            let t0 = trace.start_span();
            trace.end_span(Stage::Rules, t0);
        });
        let codec = |msg: Message| {
            let payload = rec.span("proto.encode", || msg.encode());
            let _ = rec.span("proto.decode", || Message::decode(&payload));
            rec.span("proto.frame_rw", || {
                let mut framed = Vec::with_capacity(payload.len() + 8);
                let _ = write_frame(&mut framed, &payload);
                let _ = read_frame(&mut framed.as_slice());
            });
        };
        match what {
            Component::None => {}
            Component::LocalHit(key) => {
                rec.span("cache.rules", || self.rules.decide(path));
                rec.span("cache.ring_home", || self.ring.home(&key));
                rec.span("cache.mem_get", || self.mem.get(&key));
            }
            Component::Fetched(key, content_type, body) => {
                rec.span("cache.rules", || self.rules.decide(path));
                rec.span("cache.ring_home", || self.ring.home(&key));
                codec(Message::FetchHit { content_type, body });
            }
            Component::Inserted(meta, body) => {
                rec.span("cache.rules", || self.rules.decide(path));
                rec.span("cache.ring_home", || self.ring.home(&meta.key));
                self.mem_insert(rec, &meta.key, &body);
                codec(Message::InsertNotice { meta });
            }
        }
    }
}

/// put → get → delete over `bodies` on one store, one span per call.
fn store_ops(
    rec: &Recorder,
    store: &dyn Store,
    bodies: &[(CacheKey, Vec<u8>)],
    names: [&'static str; 3],
) {
    for (key, body) in bodies {
        let _ = rec.span(names[0], || store.put(key, body));
    }
    for (key, _) in bodies {
        let _ = rec.span(names[1], || store.get(key));
    }
    for (key, _) in bodies {
        let _ = rec.span(names[2], || store.delete(key));
    }
}

/// The `Store` trait on both shipped stores, flush policy off and on.
fn store_probes(rec: &Recorder, dir: &Path, bodies: &[(CacheKey, Vec<u8>)]) -> io::Result<()> {
    let seg = |fsync| SegmentConfig {
        fsync,
        ..SegmentConfig::default()
    };
    store_ops(
        rec,
        &DiskStore::open_with_fsync(dir.join("probe-files"), false)?,
        bodies,
        ["store.put.files", "store.get.files", "store.delete.files"],
    );
    store_ops(
        rec,
        &SegmentStore::open_with(dir.join("probe-segment"), seg(false))?,
        bodies,
        [
            "store.put.segment",
            "store.get.segment",
            "store.delete.segment",
        ],
    );
    let durable = &bodies[..bodies.len().min(STORE_FSYNC_OPS)];
    let files = DiskStore::open_with_fsync(dir.join("probe-files-fsync"), true)?;
    let segment = SegmentStore::open_with(dir.join("probe-segment-fsync"), seg(true))?;
    for (key, body) in durable {
        let _ = rec.span("store.put_fsync.files", || files.put(key, body));
        let _ = rec.span("store.put_fsync.segment", || segment.put(key, body));
    }
    Ok(())
}

/// Replay caller 0's stream for `workload` and probe the stores.
pub fn run(
    catalog: &Arc<Catalog>,
    dir: &Path,
    docroot: &Path,
    budget: Duration,
) -> io::Result<ProbeOutput> {
    let workload = catalog.workload();
    let rig = Rig::build(workload, dir)?;
    let extras = Extras::new(workload);
    rig.warm(catalog)?;
    // The standalone mem tier holds what node 0's does after set-up.
    for req in catalog.warmup(0) {
        extras.mem_insert(
            &rig.rec,
            &CacheKey::new(&*req.target),
            &reference_body(&req),
        );
    }

    // Rep 1000: a stream no timed window uses.
    let mut stream = catalog.stream(1000, 0);
    let mut bodies: Vec<(CacheKey, Vec<u8>)> = Vec::new();
    let deadline = Instant::now() + budget;
    let mut requests = 0usize;
    while requests < REPLAY_REQUESTS && Instant::now() < deadline {
        let req = stream.next_req();
        requests += 1;
        rig.replay(requests as u32, &req, docroot, &extras)?;
        if req.class == Class::Dynamic && bodies.len() < STORE_OPS {
            let key = CacheKey::new(format!("{}#{}", req.target, bodies.len()));
            bodies.push((key, reference_body(&req)));
        }
    }
    rig.rec.set_request(0);
    store_probes(&rig.rec, dir, &bodies)?;

    let digest_ns_per_kib = extras.digest_ns_per_kib();
    let spans = rig.finish();
    let medians = self_times(&spans)
        .iter()
        .map(|(name, v)| {
            let ns: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            (*name, (median(&ns), ns.len()))
        })
        .collect();
    let path_total_ns: u64 = spans
        .iter()
        .filter(|s| s.req != 0 && PATH_SPANS.contains(&s.name))
        .map(Span::duration_ns)
        .sum();
    Ok(ProbeOutput {
        spans,
        medians,
        path_mean_us: path_total_ns as f64 / 1e3 / requests.max(1) as f64,
        digest_ns_per_kib,
        requests,
    })
}
