//! The cacher module's daemons (§4.1).
//!
//! [`CacheDaemons::start`] serves the cache port with a [`ConnPool`] of
//! its own, whose `swala-cacher` threads apply insert/delete notices to
//! the local directory (the paper's first daemon) and answer fetch,
//! lookup, sync and stats requests (its second, which "starts a separate
//! thread for each request"; here an idle connection parks instead). A
//! parked cache connection never expires: notice links and warm fetch
//! connections are meant to stay open. The pool is not the HTTP port's: a
//! request thread blocks on a peer's fetch, so were one pool to serve both
//! ports, two nodes whose request threads all waited on each other would
//! deadlock until the fetches timed out.
//!
//! A **purge thread** "wakes up every few seconds and deletes expired
//! cache entries", announcing each deletion to the key's homes. It sleeps
//! [`PURGE_INTERVAL`] on the manager's clock; dropping [`CacheDaemons`]
//! ends the sleep at once and joins it and the pool.

use crate::conn_pool::{Conn, ConnPool, PoolStats, Port, PortConfig, Reads, Service};
use crate::faults::{AcceptFilter, FaultAction};
use crate::message::Message;
use crate::peers::Broadcaster;
use crate::pool::DEFAULT_POOL_SIZE;
use crate::reader::{FrameRead, PatientReader};
use crate::wire::{write_frame, write_frame_split, ProtoError};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};
use swala_cache::{
    CacheKey, CacheManager, CacheStats, Classification, EntryMeta, NodeId, RemoteUpdate, StopSignal,
};
use swala_obs::{Outcome, Stage, Telemetry, Trace};

/// How long the purge daemon sleeps between passes, on the manager's
/// clock: the paper's "every few seconds".
///
/// A constant, not a knob: an expired entry already misses at lookup
/// (expiry is judged at each lookup), so the interval only bounds how
/// long an expired entry's body and directory record linger and when
/// peers hear of the expiry. Tests advance the clock instead.
pub const PURGE_INTERVAL: Duration = Duration::from_secs(2);

/// A peer that stops sending mid-frame, or stops reading a reply, for
/// this long is dropped (the request plane's keep-alive idle limit,
/// applied to the cluster plane). Until then it holds one of the cache
/// port's threads.
pub const FRAME_STALL_LIMIT: Duration = Duration::from_secs(5);

/// Hot-key entries shipped per [`Message::StatsSnapshot`] — enough for
/// any sensible cluster ranking while keeping the frame small.
const HOTKEYS_PER_SNAPSHOT: usize = 64;

/// A notice's frame and the nodes it goes to: the key's homes. The
/// broadcaster has no link to this node, so "the homes but this node" is
/// what reaches the wire.
type Routed<'a> = (&'a [NodeId], Arc<[u8]>);

/// The one announce path: a notice about `key` goes to every home of the
/// key but this node — every peer under the replicated directory, the
/// key's home under the partitioned one — as the
/// `InsertNotice`/`DeleteNotice` the receiving daemon applies. `None`
/// when this node is the key's only home: its own directory write
/// already put the entry where it belongs, and nothing is encoded.
fn route<'m>(
    manager: &'m CacheManager,
    key: &CacheKey,
    frame: impl FnOnce() -> Arc<[u8]>,
) -> Option<Routed<'m>> {
    let homes = manager.placement().homes(key);
    if homes.iter().all(|&home| home == manager.local_node()) {
        return None;
    }
    Some((homes, frame()))
}

fn insert_notice<'m>(manager: &'m CacheManager, meta: &EntryMeta) -> Option<Routed<'m>> {
    route(manager, &meta.key, || Message::insert_notice_frame(meta))
}

fn delete_notice<'m>(
    manager: &'m CacheManager,
    owner: NodeId,
    key: &CacheKey,
) -> Option<Routed<'m>> {
    route(manager, key, || Message::delete_notice_frame(owner, key))
}

/// Hand `notices` to the broadcaster in one go and count them.
fn enqueue<'a>(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    notices: impl Iterator<Item = &'a Routed<'a>> + Clone,
) {
    broadcaster.enqueue(notices.clone());
    CacheStats::add(&manager.stats().broadcasts_sent, notices.count() as u64);
}

/// Tell the cluster this node just cached `meta` (see [`announce`] for
/// the insert path, which also has evictions to report).
pub fn announce_insert(manager: &CacheManager, broadcaster: &Broadcaster, meta: &EntryMeta) {
    enqueue(manager, broadcaster, insert_notice(manager, meta).iter());
}

/// Tell the cluster the entry `owner` advertised for `key` is gone.
pub fn announce_delete(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    owner: NodeId,
    key: &CacheKey,
) {
    enqueue(
        manager,
        broadcaster,
        delete_notice(manager, owner, key).iter(),
    );
}

/// Tell every peer that this node declared `node` dead, so they stop
/// taking false hits on its entries too.
pub fn announce_node_down(manager: &CacheManager, broadcaster: &Broadcaster, node: NodeId) {
    broadcaster.broadcast(&Message::NodeDown { node });
    CacheStats::bump(&manager.stats().broadcasts_sent);
}

/// Tell the cluster about one insert and the evictions it caused, as
/// [`announce_insert`] and an [`announce_delete`] per victim would — but
/// with every notice bound for a link queued under one lock. The
/// counters still count notices.
pub fn announce(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    inserted: &EntryMeta,
    evicted: &[EntryMeta],
) {
    let insert = insert_notice(manager, inserted);
    let mut deletes = evicted
        .iter()
        .filter_map(|victim| delete_notice(manager, victim.owner, &victim.key));
    // An insert at capacity evicts one entry: its notice and the
    // insert's are listed in place, and only further ones in a `Vec`.
    let first = deletes.next();
    let rest: Vec<Routed<'_>> = deletes.collect();
    enqueue(
        manager,
        broadcaster,
        insert.iter().chain(&first).chain(&rest),
    );
}

/// Where the daemons listen.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind the cache-protocol listener on (port 0 = ephemeral).
    pub listen_addr: SocketAddr,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen_addr: "127.0.0.1:0".parse().expect("static addr"),
        }
    }
}

/// Handle to a node's running cache daemons.
pub struct CacheDaemons {
    addr: SocketAddr,
    shutdown: Arc<StopSignal>,
    purge: Option<JoinHandle<()>>,
    /// The cache port, stopped and joined after the purge thread.
    port: ConnPool,
}

/// What the purge thread and the cache port's threads share.
struct Daemon {
    manager: Arc<CacheManager>,
    broadcaster: Arc<Broadcaster>,
    telemetry: Option<Arc<Telemetry>>,
    /// Inbound faults, asked once per accepted connection.
    accept_filter: Option<AcceptFilter>,
    /// Connections the accept filter black-holed, unread until the
    /// daemons are dropped.
    held: Mutex<Vec<TcpStream>>,
}

/// The cache port's threads in a cluster of `num_nodes`, so that a hot
/// connection lingers and never meets epoll: one per peer's notice link,
/// one per fetch connection a peer may open ([`DEFAULT_POOL_SIZE`]), and
/// a spare in epoll. Any other connection parks between frames.
fn port_threads(num_nodes: usize) -> usize {
    num_nodes.saturating_sub(1) * (1 + DEFAULT_POOL_SIZE) + 1
}

impl CacheDaemons {
    /// Start the daemons for `manager`, broadcasting purges via
    /// `broadcaster`.
    pub fn start(
        manager: Arc<CacheManager>,
        broadcaster: Arc<Broadcaster>,
        cfg: DaemonConfig,
    ) -> io::Result<CacheDaemons> {
        let listener = TcpListener::bind(cfg.listen_addr)?;
        Self::start_with_listener_observed(listener, manager, broadcaster, None, None)
    }

    /// Start the daemons on an already-bound listener. Multi-node
    /// deployments bind every node's listener first (to learn ephemeral
    /// ports), wire up the broadcasters, and only then start the daemons.
    ///
    /// `accept_filter` is an inbound fault hook, consulted once per
    /// accepted connection before any frame is read, so chaos tests can
    /// make a node unreachable without killing its process. With
    /// `telemetry`, a `FetchRequest` carrying the requester's trace id has
    /// the owner record its own spans (directory lookup, tier probe, store
    /// read, reply write) under that same id with outcome `owner-serve`,
    /// so a remote hit produces correlated traces on both nodes.
    pub fn start_with_listener_observed(
        listener: TcpListener,
        manager: Arc<CacheManager>,
        broadcaster: Arc<Broadcaster>,
        accept_filter: Option<AcceptFilter>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> io::Result<CacheDaemons> {
        let addr = listener.local_addr()?;
        let shutdown = StopSignal::new(manager.clock().clone());
        // Passes fall due every interval from now, however long the
        // purge thread takes to start.
        let first_purge = manager.clock().now() + PURGE_INTERVAL;
        let cfg = PortConfig {
            role: "swala-cacher",
            threads: port_threads(manager.directory().num_nodes()),
            idle_limit: None,
            write_stall: FRAME_STALL_LIMIT,
            stats: Arc::default(),
        };
        let daemon = Arc::new(Daemon {
            manager,
            broadcaster,
            telemetry,
            accept_filter,
            held: Mutex::default(),
        });
        // Should the spawn fail, dropping `port` stops and joins it.
        let port = ConnPool::start(listener, cfg, Arc::clone(&daemon))?;
        let stop = Arc::clone(&shutdown);
        let purge = Builder::new()
            .name("swala-cache-purge".into())
            .spawn(move || daemon.purge(&stop, first_purge))?;
        Ok(CacheDaemons {
            addr,
            shutdown,
            purge: Some(purge),
            port,
        })
    }

    /// The listener's actual address (for peers' broadcaster config).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cache port's open and idle connections and park count.
    pub fn port_stats(&self) -> &PoolStats {
        self.port.stats()
    }

    /// Stop the daemons and join every thread they started (what
    /// dropping them does). Stopping waits for no peer: the sockets the
    /// cache port's threads serve are shut down.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for CacheDaemons {
    fn drop(&mut self) {
        self.shutdown.stop();
        if let Some(purge) = self.purge.take() {
            let _ = purge.join();
        }
    }
}

impl Service for Daemon {
    /// Serve one peer connection until EOF, error or stop, or until it
    /// goes idle with no other thread idle: then it is to be parked.
    fn serve(&self, conn: &Conn, port: &Port) -> bool {
        let telemetry = self.telemetry.as_deref();
        let mut stream = &conn.stream;
        let mut reader = PatientReader::new(Reads::new(stream, None));
        let stop = || port.stop_flag().load(Ordering::Acquire);
        while !stop() {
            // Mid-frame the read must block: a frame that has begun is
            // never parked.
            let lingering = !reader.buffer().is_empty() || port.linger(reader.get_mut());
            let decoded = match reader.read_frame(FRAME_STALL_LIMIT, stop) {
                Ok(FrameRead::Frame(frame)) => Message::decode(&frame),
                // Nothing consumed: park, or re-check the stop flag.
                Ok(FrameRead::Idle) if !lingering => return true,
                Ok(FrameRead::Idle) => continue,
                // Clean close, reset, or a peer stalled mid-frame: resuming
                // would mis-frame everything after it, so close.
                Ok(FrameRead::Closed) | Err(_) => return false,
            };
            let Ok(msg) = decoded else {
                return false;
            };
            let written = match msg {
                Message::Hello { .. }
                | Message::InsertNotice { .. }
                | Message::DeleteNotice { .. }
                | Message::Invalidate { .. }
                | Message::NodeDown { .. } => {
                    apply_notices(vec![msg], &self.manager, &self.broadcaster);
                    Ok(())
                }
                Message::Batch(msgs) => {
                    // Coalesced notices from a peer's paced writer. Only
                    // fire-and-forget notices may be batched; a
                    // reply-requiring sub-message is a protocol violation
                    // and drops the connection with nothing applied.
                    if !msgs.iter().all(is_notice) {
                        return false;
                    }
                    apply_notices(msgs, &self.manager, &self.broadcaster);
                    Ok(())
                }
                Message::FetchRequest { key, trace } => {
                    let mut t = self.owner_trace(trace, Arc::clone(key.shared()));
                    // Zero-copy reply: the body `Arc` from the cache tier
                    // is written directly after a small encoded prefix,
                    // never copied into a reply buffer.
                    let hit = self.manager.fetch_local_body_traced(&key, &mut t);
                    self.traced_reply(t, || match hit {
                        Some((meta, body)) => {
                            let prefix =
                                Message::encode_fetch_hit_prefix(&meta.content_type, body.len());
                            write_frame_split(&mut stream, &prefix, &body)
                        }
                        None => write_frame(&mut stream, &Message::FetchMiss.encode()),
                    })
                }
                Message::DirLookup { key, trace } => {
                    // This node is (the requester believes) one of the
                    // key's homes: answer with the directory's entry,
                    // which names the owner, or `None` when nobody caches
                    // the key.
                    let mut t = self.owner_trace(trace, Arc::clone(key.shared()));
                    let t0 = t.start_span();
                    let classification = self.manager.directory().classify(&key);
                    t.end_span(Stage::DirLookup, t0);
                    let meta = match classification {
                        Classification::Local(m) | Classification::Remote(m) => Some(m),
                        Classification::NotCached => None,
                    };
                    let reply = Message::DirAnswer { meta }.encode();
                    self.traced_reply(t, || write_frame(&mut stream, &reply))
                }
                Message::SyncRequest => {
                    let reply = Message::SyncReply {
                        node: self.manager.local_node(),
                        entries: self.manager.local_snapshot(),
                    };
                    write_frame(&mut stream, &reply.encode())
                }
                Message::StatsPull { trace } => {
                    // Stats federation: dump the registry (plain values)
                    // and the hot-key sketch. Without a telemetry handle
                    // (bare daemon in tests) the metrics list is simply
                    // empty — the puller still gets a well-formed snapshot.
                    let t = self.owner_trace(trace, "/swala-stats-pull");
                    let metrics = telemetry
                        .map(|tel| tel.registry().snapshot())
                        .unwrap_or_default();
                    let reply = Message::StatsSnapshot(crate::message::NodeStats {
                        node: self.manager.local_node(),
                        metrics,
                        hotkeys: self.manager.heat().top(HOTKEYS_PER_SNAPSHOT),
                    });
                    self.traced_reply(t, || write_frame(&mut stream, &reply.encode()))
                }
                // Replies arriving inbound are protocol violations; drop
                // the connection rather than guessing.
                Message::FetchHit { .. }
                | Message::FetchMiss
                | Message::DirAnswer { .. }
                | Message::SyncReply { .. }
                | Message::StatsSnapshot(_) => return false,
            };
            if written.is_err() {
                return false;
            }
        }
        false
    }

    /// Run the accept filter on a new connection.
    fn admit(&self, accepted: io::Result<TcpStream>) -> Option<TcpStream> {
        let stream = accepted.ok()?;
        match self.accept_filter.as_ref().and_then(|f| f()) {
            // Closed before a single frame is served — to the dialer this
            // is a peer that accepts then dies.
            Some(FaultAction::Drop | FaultAction::Reset | FaultAction::Truncate(_)) => None,
            // Held open but never served: the dialer's read times out.
            Some(FaultAction::BlackHole) => {
                self.held.lock().push(stream);
                None
            }
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Some(stream)
            }
            None => Some(stream),
        }
    }
}

impl Daemon {
    /// The purge daemon: a pass at `due` and every [`PURGE_INTERVAL`]
    /// after it, until `stop`.
    fn purge(&self, stop: &StopSignal, mut due: Instant) {
        while stop.sleep_until(due) {
            for dead in self.manager.purge_expired() {
                announce_delete(&self.manager, &self.broadcaster, dead.owner, &dead.key);
            }
            due += PURGE_INTERVAL;
        }
    }

    /// A trace under the requester's id, so both nodes' spans of one
    /// exchange correlate; inert without telemetry or for an untraced
    /// request.
    fn owner_trace(&self, trace: Option<u64>, target: impl Into<Arc<str>>) -> Trace {
        match (&self.telemetry, trace) {
            (Some(tel), Some(id)) => tel.begin_trace_with_id(id, target),
            _ => Trace::disabled(),
        }
    }

    /// Write a reply inside `t`'s response-write span, then record `t`
    /// as an owner-serve.
    fn traced_reply(
        &self,
        mut t: Trace,
        write: impl FnOnce() -> Result<(), ProtoError>,
    ) -> Result<(), ProtoError> {
        let t0 = t.start_span();
        let written = write();
        t.end_span(Stage::ResponseWrite, t0);
        t.set_outcome(Outcome::OwnerServe);
        if let Some(tel) = &self.telemetry {
            tel.record(t);
        }
        written
    }
}

/// Whether `msg` is a fire-and-forget notice (legal inside a `Batch`).
fn is_notice(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Hello { .. }
            | Message::InsertNotice { .. }
            | Message::DeleteNotice { .. }
            | Message::Invalidate { .. }
            | Message::NodeDown { .. }
    )
}

/// Apply fire-and-forget notices to the local node, in order. Directory
/// updates — nearly all of a batch — are handed to the manager as one
/// run ([`CacheManager::apply_remote_batch`]); the rare other notice
/// flushes the run gathered so far and is applied on its own.
fn apply_notices(msgs: Vec<Message>, manager: &CacheManager, broadcaster: &Broadcaster) {
    let mut run = Vec::with_capacity(msgs.len());
    for msg in msgs {
        match msg {
            Message::InsertNotice { meta } => run.push(RemoteUpdate::Insert(meta)),
            Message::DeleteNotice { owner, key } => run.push(RemoteUpdate::Delete { owner, key }),
            other => {
                manager.apply_remote_batch(std::mem::take(&mut run));
                match other {
                    Message::Hello { .. } => {}
                    Message::NodeDown { node } => {
                        // Directory repair: a peer declared `node` dead.
                        // Forget its entries so this node stops routing
                        // false hits at a corpse. Not re-broadcast — every
                        // node hears the origin's broadcast directly, and
                        // echoing would cause notice storms.
                        manager.evict_node(node);
                    }
                    Message::Invalidate { key } => {
                        // Application-driven invalidation: drop the owned
                        // entry and tell the cluster. Invalidating an
                        // absent key is a no-op (the application may race
                        // a purge).
                        if let Some(dead) = manager.remove_local(&key) {
                            announce_delete(manager, broadcaster, dead.owner, &dead.key);
                        }
                    }
                    _ => unreachable!("caller checked is_notice"),
                }
            }
        }
    }
    manager.apply_remote_batch(run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn_pool::READ_TICK;
    use crate::fetch::{default_dialer, FetchOutcome, RetryPolicy};
    use crate::pool::FetchPool;
    use crate::wire::read_frame;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;
    use swala_cache::{
        CacheKey, CacheManagerConfig, CacheRules, DirectoryKind, LookupResult, ManualClock,
        MemStore, NodeId,
    };

    /// One fetch through a fresh production client.
    fn fetch_once(addr: SocketAddr, key: &CacheKey, timeout: Duration) -> FetchOutcome {
        let pool = FetchPool::new(default_dialer(), 1);
        let policy = RetryPolicy::no_retry();
        pool.fetch(NodeId(0), addr, key, timeout, &policy, None).0
    }

    fn start_node(rules: CacheRules) -> (Arc<CacheManager>, CacheDaemons) {
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let daemons = CacheDaemons::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            DaemonConfig::default(),
        )
        .unwrap();
        (manager, daemons)
    }

    fn insert(manager: &CacheManager, key: &CacheKey, body: &[u8]) {
        match manager.lookup(key, key.as_str()) {
            LookupResult::Miss { decision, .. } => {
                manager
                    .complete_execution(
                        key,
                        body,
                        "text/html",
                        Duration::from_millis(100),
                        &decision,
                    )
                    .unwrap();
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serves_fetch_requests() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let key = CacheKey::new("/cgi-bin/adl?id=1");
        insert(&manager, &key, b"the-cached-result");

        let out = fetch_once(daemons.addr(), &key, Duration::from_secs(1));
        assert_eq!(
            out,
            FetchOutcome::Hit {
                content_type: "text/html".into(),
                body: b"the-cached-result".to_vec()
            }
        );
        // Owner recorded the remote hit in its metadata (§4.1).
        assert_eq!(manager.directory().get(NodeId(0), &key).unwrap().hits, 1);

        let gone = fetch_once(
            daemons.addr(),
            &CacheKey::new("/nope"),
            Duration::from_secs(1),
        );
        assert_eq!(gone, FetchOutcome::Gone);
        daemons.shutdown();
    }

    #[test]
    fn applies_insert_and_delete_notices() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let link = crate::peers::PeerLink::new(NodeId(1), NodeId(0), daemons.addr());
        let key = CacheKey::new("/cgi-bin/remote?x=2");
        let meta = swala_cache::EntryMeta::new(key.clone(), NodeId(1), 8, "t", 1000, None, 1);

        link.send(&Message::InsertNotice { meta }).unwrap();
        wait_until(|| manager.directory().len(NodeId(1)) == 1);

        link.send(&Message::DeleteNotice {
            owner: NodeId(1),
            key,
        })
        .unwrap();
        wait_until(|| manager.directory().len(NodeId(1)) == 0);
        daemons.shutdown();
    }

    #[test]
    fn batched_notices_fan_out() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let k1 = CacheKey::new("/cgi-bin/b?x=1");
        let k2 = CacheKey::new("/cgi-bin/b?x=2");
        let batch = Message::Batch(vec![
            Message::Hello { node: NodeId(1) },
            Message::InsertNotice {
                meta: swala_cache::EntryMeta::new(k1.clone(), NodeId(1), 8, "t", 1000, None, 1),
            },
            Message::InsertNotice {
                meta: swala_cache::EntryMeta::new(k2, NodeId(1), 8, "t", 1000, None, 2),
            },
            Message::DeleteNotice {
                owner: NodeId(1),
                key: k1,
            },
        ]);
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &batch.encode()).unwrap();
        wait_until(|| manager.directory().len(NodeId(1)) == 1);
        daemons.shutdown();
    }

    fn insert_notice(id: u32) -> Message {
        Message::InsertNotice {
            meta: EntryMeta::new(
                CacheKey::new(format!("/cgi-bin/stall?x={id}")),
                NodeId(1),
                8,
                "t",
                1000,
                None,
                id as u64,
            ),
        }
    }

    #[test]
    fn sender_pausing_mid_frame_is_not_misframed() {
        // Pauses longer than the handler's 100 ms read tick, after the
        // header and again mid-payload: the handler must keep its place
        // in the stream rather than restart at a "length" made of payload
        // bytes.
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        let payload = insert_notice(1).encode();
        let pause = Duration::from_millis(150);
        s.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
        std::thread::sleep(pause);
        let (a, b) = payload.split_at(payload.len() / 2);
        s.write_all(a).unwrap();
        std::thread::sleep(pause);
        s.write_all(b).unwrap();
        // The stream is still in step: the next frame decodes too.
        write_frame(&mut s, &insert_notice(2).encode()).unwrap();
        wait_until(|| manager.directory().len(NodeId(1)) == 2);
        assert_eq!(manager.stats().snapshot().updates_applied, 2);
        daemons.shutdown();
    }

    #[test]
    fn half_a_header_then_silence_closes_the_connection() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        s.write_all(&[0, 0]).unwrap();
        // The handler gives the frame FRAME_STALL_LIMIT to continue, then
        // closes: EOF here, well inside twice the limit.
        s.set_read_timeout(Some(2 * FRAME_STALL_LIMIT)).unwrap();
        let t0 = Instant::now();
        assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "daemon closed");
        assert!(t0.elapsed() >= FRAME_STALL_LIMIT / 2, "{:?}", t0.elapsed());
        assert_eq!(manager.stats().snapshot().updates_applied, 0);
        daemons.shutdown();
    }

    #[test]
    fn reply_requiring_message_in_batch_drops_connection() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &Message::Batch(vec![Message::SyncRequest]).encode()).unwrap();
        // The daemon closes this connection without replying; the node
        // itself stays up.
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert!(matches!(read_frame(&mut s), Ok(None) | Err(_)));
        let key = CacheKey::new("/cgi-bin/still-up");
        insert(&manager, &key, b"yes");
        let out = fetch_once(daemons.addr(), &key, Duration::from_secs(1));
        assert!(matches!(out, FetchOutcome::Hit { .. }));
        daemons.shutdown();
    }

    #[test]
    fn answers_sync() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        insert(&manager, &CacheKey::new("/cgi-bin/s?1"), b"a");
        insert(&manager, &CacheKey::new("/cgi-bin/s?2"), b"b");

        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &Message::SyncRequest.encode()).unwrap();
        match Message::decode(&read_frame(&mut s).unwrap().unwrap()).unwrap() {
            Message::SyncReply { node, entries } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(entries.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        daemons.shutdown();
    }

    /// Node 0, whose entries live one second on a clock the test moves,
    /// and whose notices go to a collector acting as node 1.
    struct TtlNode {
        manager: Arc<CacheManager>,
        time: Arc<ManualClock>,
        broadcaster: Arc<Broadcaster>,
        daemons: CacheDaemons,
        collector: std::thread::JoinHandle<Vec<Message>>,
    }

    fn start_ttl_node(directory: DirectoryKind) -> TtlNode {
        let (peer_addr, collector) = collecting_peer();
        let time = ManualClock::new();
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules: CacheRules::parse("cache * ttl=1\n").unwrap(),
                directory,
                clock: time.clock(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let broadcaster = Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)]));
        let daemons = CacheDaemons::start(
            Arc::clone(&manager),
            Arc::clone(&broadcaster),
            DaemonConfig::default(),
        )
        .unwrap();
        TtlNode {
            manager,
            time,
            broadcaster,
            daemons,
            collector,
        }
    }

    #[test]
    fn purge_daemon_expires_and_broadcasts() {
        let TtlNode {
            manager,
            time,
            broadcaster,
            daemons,
            collector,
        } = start_ttl_node(DirectoryKind::Replicated);
        let key = CacheKey::new("/cgi-bin/ttl?x=1");
        insert(&manager, &key, b"short-lived");
        // One interval: the entry's one-second TTL has run out when the
        // daemon wakes, and nothing earlier wakes it.
        time.advance(PURGE_INTERVAL - Duration::from_millis(1));
        assert_eq!(manager.stats().snapshot().expirations, 0);
        time.advance(Duration::from_millis(1));
        wait_until(|| manager.stats().snapshot().expirations == 1);
        assert!(broadcaster.flush(Duration::from_secs(5)));
        daemons.shutdown();
        broadcaster.shutdown();
        let deletes: Vec<CacheKey> = collector
            .join()
            .unwrap()
            .into_iter()
            .filter_map(|m| match m {
                Message::DeleteNotice { key, .. } => Some(key),
                _ => None,
            })
            .collect();
        assert_eq!(deletes, vec![key]);
    }

    #[test]
    fn wall_clock_step_back_never_undoes_a_purge() {
        let TtlNode {
            manager,
            time,
            broadcaster,
            daemons,
            collector,
        } = start_ttl_node(DirectoryKind::Replicated);
        let key = CacheKey::new("/cgi-bin/ttl?x=2");
        insert(&manager, &key, b"short-lived");
        time.advance(PURGE_INTERVAL);
        wait_until(|| manager.stats().snapshot().broadcasts_sent == 1);
        // Wall time steps back an hour, to before the entry was made. The
        // purged entry stays gone, and so does its delete notice: the
        // next passes find nothing, and a lookup is a fresh miss.
        time.step_wall_back(Duration::from_secs(3600));
        time.advance(PURGE_INTERVAL);
        time.advance(PURGE_INTERVAL);
        assert!(matches!(
            manager.lookup(&key, key.as_str()),
            LookupResult::Miss {
                first_in_flight: true,
                ..
            }
        ));
        manager.abort_execution(&key);
        assert!(broadcaster.flush(Duration::from_secs(5)));
        daemons.shutdown();
        broadcaster.shutdown();
        let s = manager.stats().snapshot();
        assert_eq!((s.expirations, s.broadcasts_sent), (1, 1));
        assert_eq!(
            collector.join().unwrap(),
            vec![
                Message::Hello { node: NodeId(0) },
                Message::DeleteNotice {
                    owner: NodeId(0),
                    key,
                },
            ]
        );
    }

    #[test]
    fn an_idle_daemon_serves_a_new_connection_at_once() {
        let (_, daemons) = start_node(CacheRules::allow_all());
        // Each connection comes after more than a tick of silence: none
        // may wait for a thread to come round.
        let mut waited = Duration::ZERO;
        for _ in 0..6 {
            std::thread::sleep(READ_TICK * 3 / 2);
            let t0 = Instant::now();
            let mut s = TcpStream::connect(daemons.addr()).unwrap();
            write_frame(&mut s, &Message::SyncRequest.encode()).unwrap();
            let reply = Message::decode(&read_frame(&mut s).unwrap().unwrap()).unwrap();
            assert!(matches!(reply, Message::SyncReply { .. }), "{reply:?}");
            waited += t0.elapsed();
        }
        assert!(waited < READ_TICK, "6 syncs took {waited:?}");
        daemons.shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let (_, daemons) = start_node(CacheRules::allow_all());
        // Open an idle connection so a thread lingers on it.
        let _idle = TcpStream::connect(daemons.addr()).unwrap();
        let start = Instant::now();
        daemons.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn the_port_has_a_thread_for_every_connection_its_peers_may_open() {
        // Per peer: its notice link and its fetch connections; plus a spare.
        assert_eq!(port_threads(1), 1);
        assert_eq!(port_threads(2), 6);
        assert_eq!(port_threads(4), 16);
        assert_eq!(port_threads(8), 36);
    }

    #[test]
    fn more_hot_connections_than_threads_all_make_progress() {
        // Two more connections than the port has threads, each fetching
        // back to back: the two a thread cannot linger on park between
        // frames and are served from the epoll, and none is starved.
        const FETCHES: usize = 500;
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let key = CacheKey::new("/cgi-bin/hot?x=1");
        insert(&manager, &key, b"hot");
        let conns = port_threads(2) + 2;
        let addr = daemons.addr();
        let progress: Arc<Vec<AtomicUsize>> =
            Arc::new((0..conns).map(|_| AtomicUsize::new(0)).collect());
        let request = Message::FetchRequest { key, trace: None }.encode();
        let clients: Vec<_> = (0..conns)
            .map(|me| {
                let (progress, request) = (Arc::clone(&progress), request.clone());
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    for _ in 0..FETCHES {
                        write_frame(&mut s, &request).unwrap();
                        let reply = read_frame(&mut s).unwrap().unwrap();
                        assert!(matches!(
                            Message::decode(&reply).unwrap(),
                            Message::FetchHit { .. }
                        ));
                        progress[me].fetch_add(1, Ordering::Relaxed);
                    }
                    // How far the slowest connection had got when this
                    // one finished.
                    let done = progress.iter().map(|p| p.load(Ordering::Relaxed));
                    done.min().unwrap()
                })
            })
            .collect();
        for (me, client) in clients.into_iter().enumerate() {
            let slowest = client.join().unwrap();
            assert!(
                slowest >= FETCHES / 50,
                "connection {me} finished while another had done {slowest} of {FETCHES}"
            );
        }
        assert!(daemons.port_stats().parks() > 0, "some connection parked");
        daemons.shutdown();
    }

    #[test]
    fn garbage_frame_drops_connection_only() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &[0x7f, 1, 2, 3]).unwrap();
        // The daemon drops this connection; the node still serves others.
        let key = CacheKey::new("/cgi-bin/still-alive");
        insert(&manager, &key, b"yes");
        let out = fetch_once(daemons.addr(), &key, Duration::from_secs(1));
        assert!(matches!(out, FetchOutcome::Hit { .. }));
        daemons.shutdown();
    }

    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not met within 5s");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn invalidate_removes_and_broadcasts() {
        // Collector standing in for a peer that must hear the deletion.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap();
        let collector = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut deletes = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut s) {
                if let Ok(Message::DeleteNotice { key, .. }) = Message::decode(&f) {
                    deletes.push(key);
                }
            }
            deletes
        });

        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules: CacheRules::allow_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let broadcaster = Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)]));
        let daemons =
            CacheDaemons::start(Arc::clone(&manager), broadcaster, DaemonConfig::default())
                .unwrap();

        let key = CacheKey::new("/cgi-bin/stale?x=1");
        insert(&manager, &key, b"stale-content");
        assert_eq!(manager.directory().len(NodeId(0)), 1);

        let invalidate = || {
            crate::fetch::request_invalidate(
                &crate::fetch::default_dialer(),
                NodeId(0),
                daemons.addr(),
                &key,
                Duration::from_secs(1),
            )
            .unwrap()
        };
        invalidate();
        wait_until(|| manager.directory().len(NodeId(0)) == 0);
        // Invalidating again is a harmless no-op.
        invalidate();

        daemons.shutdown();
        let deletes = collector.join().unwrap();
        assert_eq!(deletes, vec![key]);
    }

    /// Collector standing in for a peer node: accepts one connection and
    /// returns every decoded message it received before the sender hung up.
    fn collecting_peer() -> (SocketAddr, std::thread::JoinHandle<Vec<Message>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut msgs = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut s) {
                // Flatten batches: the writer may coalesce queued notices.
                match Message::decode(&f) {
                    Ok(Message::Batch(inner)) => msgs.extend(inner),
                    Ok(m) => msgs.push(m),
                    Err(_) => {}
                }
            }
            msgs
        });
        (addr, handle)
    }

    /// Probe keys until one has exactly the requested homes.
    fn key_with_homes(manager: &CacheManager, homes: &[NodeId]) -> CacheKey {
        (0..10_000u32)
            .map(|i| CacheKey::new(format!("/cgi-bin/part?i={i}")))
            .find(|k| manager.placement().homes(k) == homes)
            .expect("some probe key has the requested homes")
    }

    #[test]
    fn dir_lookup_answers_with_directory_meta() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        let key = CacheKey::new("/cgi-bin/lookup?x=1");
        insert(&manager, &key, b"body");

        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &Message::encode_dir_lookup(&key, None)).unwrap();
        match Message::decode(&read_frame(&mut s).unwrap().unwrap()).unwrap() {
            Message::DirAnswer { meta } => {
                let meta = meta.expect("cached key carries meta");
                assert_eq!((meta.owner, meta.key), (NodeId(0), key));
            }
            other => panic!("{other:?}"),
        }

        // Unknown key: meta is None so the asker falls back to executing.
        let absent = CacheKey::new("/cgi-bin/absent");
        write_frame(&mut s, &Message::encode_dir_lookup(&absent, Some(77))).unwrap();
        assert_eq!(
            Message::decode(&read_frame(&mut s).unwrap().unwrap()).unwrap(),
            Message::DirAnswer { meta: None }
        );

        // A reply arriving inbound is a protocol violation: the daemon
        // closes the connection.
        write_frame(&mut s, &Message::DirAnswer { meta: None }.encode()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert!(matches!(read_frame(&mut s), Ok(None) | Err(_)));
        daemons.shutdown();
    }

    /// The key a routed notice is about.
    fn notice_key(msg: &Message) -> &CacheKey {
        match msg {
            Message::InsertNotice { meta } => &meta.key,
            Message::DeleteNotice { key, .. } => key,
            other => panic!("not a directory notice: {other:?}"),
        }
    }

    #[test]
    fn announce_reaches_exactly_the_other_homes() {
        // Three nodes, this one and two collecting peers: every insert
        // and eviction notice reaches each of its key's homes but this
        // node, in announce order, as the same InsertNotice/DeleteNotice
        // frames under both directory organizations.
        for directory in [DirectoryKind::Replicated, DirectoryKind::Partitioned] {
            let peers = [collecting_peer(), collecting_peer()];
            let manager = CacheManager::new(
                CacheManagerConfig {
                    num_nodes: 3,
                    local: NodeId(0),
                    directory,
                    ..Default::default()
                },
                Box::new(MemStore::new()),
            );
            let broadcaster = Broadcaster::new(
                NodeId(0),
                [(NodeId(1), peers[0].0), (NodeId(2), peers[1].0)],
            );
            let meta = |i: u64| {
                let key = CacheKey::new(format!("/cgi-bin/homes?i={i}"));
                EntryMeta::new(key, NodeId(0), 4, "t", 1000, None, i)
            };
            let delete = |m: &EntryMeta| Message::DeleteNotice {
                owner: m.owner,
                key: m.key.clone(),
            };
            let mut announced = Vec::new();
            for i in 0..16 {
                let (inserted, evicted) = (meta(3 * i), [meta(3 * i + 1), meta(3 * i + 2)]);
                announce(&manager, &broadcaster, &inserted, &evicted);
                announced.push(Message::InsertNotice { meta: inserted });
                announced.extend(evicted.iter().map(delete));
            }
            let (lone_insert, lone_delete) = (meta(100), meta(101));
            announce_insert(&manager, &broadcaster, &lone_insert);
            announce_delete(&manager, &broadcaster, NodeId(0), &lone_delete.key);
            announced.push(Message::InsertNotice { meta: lone_insert });
            announced.push(delete(&lone_delete));
            assert!(broadcaster.flush(Duration::from_secs(5)));
            broadcaster.shutdown();

            let homes = |msg: &Message| manager.placement().homes(notice_key(msg)).to_vec();
            for (peer, (_, collector)) in [NodeId(1), NodeId(2)].into_iter().zip(peers) {
                let expected: Vec<Message> = std::iter::once(Message::Hello { node: NodeId(0) })
                    .chain(
                        announced
                            .iter()
                            .filter(|m| homes(m).contains(&peer))
                            .cloned(),
                    )
                    .collect();
                assert!(
                    expected.len() > 1,
                    "{directory:?}: {peer} is some key's home"
                );
                assert_eq!(collector.join().unwrap(), expected, "{directory:?} {peer}");
            }
            // One count per notice that left this node, whatever its
            // fan-out; a notice homed only here is not sent at all.
            let sent = announced.iter().filter(|m| homes(m) != [NodeId(0)]).count();
            assert_eq!(
                manager.stats().snapshot().broadcasts_sent,
                sent as u64,
                "{directory:?}"
            );
            if directory == DirectoryKind::Replicated {
                assert_eq!(sent, announced.len());
            } else {
                assert!(sent < announced.len(), "some key is homed here");
            }
        }
    }

    #[test]
    fn partitioned_purge_sends_delete_notice_to_home() {
        let TtlNode {
            manager,
            time,
            broadcaster,
            daemons,
            collector,
        } = start_ttl_node(DirectoryKind::Partitioned);
        let key = key_with_homes(&manager, &[NodeId(1)]);
        insert(&manager, &key, b"short-lived");
        time.advance(PURGE_INTERVAL);
        // The purge counts the expiration before it announces it.
        wait_until(|| manager.stats().snapshot().broadcasts_sent == 1);
        assert_eq!(manager.stats().snapshot().expirations, 1);

        assert!(broadcaster.flush(Duration::from_secs(5)));
        daemons.shutdown();
        broadcaster.shutdown();
        let msgs = collector.join().unwrap();
        assert_eq!(
            msgs,
            vec![
                Message::Hello { node: NodeId(0) },
                Message::DeleteNotice {
                    owner: NodeId(0),
                    key,
                },
            ]
        );
    }

    #[test]
    fn request_sync_returns_peer_table() {
        let (manager, daemons) = start_node(CacheRules::allow_all());
        insert(&manager, &CacheKey::new("/cgi-bin/a?1"), b"a");
        insert(&manager, &CacheKey::new("/cgi-bin/a?2"), b"b");
        let pool = FetchPool::new(default_dialer(), 1);
        let (node, entries) = pool
            .sync(NodeId(0), daemons.addr(), Duration::from_secs(1))
            .unwrap();
        assert_eq!(node, NodeId(0));
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.owner == NodeId(0)));
        daemons.shutdown();
    }
}
