//! The cacher module's daemon threads (§4.1).
//!
//! [`CacheDaemons::start`] binds a TCP listener and spawns:
//!
//! * an **accept thread** which, per incoming connection, starts a
//!   handler thread ("The second thread listens for data requests from
//!   the other nodes and starts a separate thread for each request");
//!   handler threads apply insert/delete notices to the local directory
//!   (the paper's first daemon) and answer fetch/sync/ping requests;
//! * a **purge thread** that "wakes up every few seconds and deletes
//!   expired cache entries", announcing each deletion to the key's homes.

use crate::faults::{AcceptFilter, FaultAction};
use crate::message::Message;
use crate::peers::Broadcaster;
use crate::reader::{FrameRead, PatientReader};
use crate::wire::{write_frame, write_frame_split};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use swala_cache::{
    CacheKey, CacheManager, CacheStats, Classification, EntryMeta, NodeId, RemoteUpdate,
};
use swala_obs::{Outcome, Stage, Telemetry, Trace};

/// How often an idle connection handler re-checks the shutdown flag (its
/// socket's read timeout).
const READ_TICK: Duration = Duration::from_millis(100);

/// A peer that stops sending mid-frame for this long is dropped (the
/// request plane's keep-alive idle limit, applied to the cluster plane).
const FRAME_STALL_LIMIT: Duration = Duration::from_secs(5);

/// Hot-key entries shipped per [`Message::StatsSnapshot`] — enough for
/// any sensible cluster ranking while keeping the frame small.
const HOTKEYS_PER_SNAPSHOT: usize = 64;

/// A notice and the nodes it goes to: the key's homes. The
/// broadcaster has no link to this node, so "the homes but this node" is
/// what reaches the wire.
type Routed<'a> = (&'a [NodeId], Message);

/// The one announce path: send `update` to every home of its key but
/// this node — every peer under the replicated directory, the key's home
/// under the partitioned one — as the `InsertNotice`/`DeleteNotice` the
/// receiving daemon applies. `None` when this node is the key's only
/// home: its own directory write already put the entry where it belongs.
fn route(manager: &CacheManager, update: RemoteUpdate) -> Option<Routed<'_>> {
    let homes = manager.placement().homes(update.key());
    if homes.iter().all(|&home| home == manager.local_node()) {
        return None;
    }
    let notice = match update {
        RemoteUpdate::Insert(meta) => Message::InsertNotice { meta },
        RemoteUpdate::Delete { owner, key } => Message::DeleteNotice { owner, key },
    };
    Some((homes, notice))
}

/// Hand `notices` to the broadcaster in one go and count them.
fn enqueue(manager: &CacheManager, broadcaster: &Broadcaster, notices: &[Routed<'_>]) {
    broadcaster.enqueue(notices);
    CacheStats::add(&manager.stats().broadcasts_sent, notices.len() as u64);
}

/// Tell the cluster this node just cached `meta` (see [`announce`] for
/// the insert path, which also has evictions to report).
pub fn announce_insert(manager: &CacheManager, broadcaster: &Broadcaster, meta: &EntryMeta) {
    let notice = route(manager, RemoteUpdate::Insert(meta.clone()));
    enqueue(manager, broadcaster, notice.as_slice());
}

/// Tell the cluster the entry `owner` advertised for `key` is gone.
pub fn announce_delete(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    owner: NodeId,
    key: &CacheKey,
) {
    let delete = RemoteUpdate::Delete {
        owner,
        key: key.clone(),
    };
    enqueue(manager, broadcaster, route(manager, delete).as_slice());
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
    let deletes = evicted.iter().map(|victim| RemoteUpdate::Delete {
        owner: victim.owner,
        key: victim.key.clone(),
    });
    let notices: Vec<Routed> = std::iter::once(RemoteUpdate::Insert(inserted.clone()))
        .chain(deletes)
        .filter_map(|update| route(manager, update))
        .collect();
    enqueue(manager, broadcaster, &notices);
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind the cache-protocol listener on (port 0 = ephemeral).
    pub listen_addr: SocketAddr,
    /// How often the purge daemon wakes ("every few seconds" — scaled
    /// down for tests).
    pub purge_interval: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen_addr: "127.0.0.1:0".parse().expect("static addr"),
            purge_interval: Duration::from_secs(2),
        }
    }
}

/// Handle to a node's running cache daemons.
pub struct CacheDaemons {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
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
        Self::start_with_listener_observed(
            listener,
            manager,
            broadcaster,
            cfg.purge_interval,
            None,
            None,
        )
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
        purge_interval: Duration,
        accept_filter: Option<AcceptFilter>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> io::Result<CacheDaemons> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        // Accept thread.
        {
            let manager = Arc::clone(&manager);
            let broadcaster = Arc::clone(&broadcaster);
            let shutdown = Arc::clone(&shutdown);
            let telemetry = telemetry.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("swala-cache-accept".into())
                    .spawn(move || {
                        for conn in listener.incoming() {
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            let stream = match conn {
                                Ok(stream) => stream,
                                // Out of descriptors (EMFILE and friends)
                                // the listener stays readable and accept()
                                // fails at once: pause rather than spin.
                                Err(e) => {
                                    if e.kind() != io::ErrorKind::Interrupted {
                                        std::thread::sleep(Duration::from_millis(100));
                                    }
                                    continue;
                                }
                            };
                            let fault = accept_filter.as_ref().and_then(|f| f());
                            let manager = Arc::clone(&manager);
                            let broadcaster = Arc::clone(&broadcaster);
                            let shutdown = Arc::clone(&shutdown);
                            let telemetry = telemetry.clone();
                            // Per-connection handler thread, as the paper does.
                            let _ = std::thread::Builder::new()
                                .name("swala-cache-conn".into())
                                .spawn(move || {
                                    match fault {
                                        // Connection closed before a single
                                        // frame is served — to the dialer this
                                        // is a peer that accepts then dies.
                                        Some(FaultAction::Drop)
                                        | Some(FaultAction::Reset)
                                        | Some(FaultAction::Truncate(_)) => return,
                                        // Held open but never serviced: the
                                        // dialer's read times out.
                                        Some(FaultAction::BlackHole) => {
                                            while !shutdown.load(Ordering::Acquire) {
                                                std::thread::sleep(Duration::from_millis(25));
                                            }
                                            return;
                                        }
                                        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                                        None => {}
                                    }
                                    handle_connection(
                                        stream,
                                        &manager,
                                        &broadcaster,
                                        &shutdown,
                                        telemetry.as_deref(),
                                    )
                                });
                        }
                    })?,
            );
        }

        // Purge thread.
        {
            let manager = Arc::clone(&manager);
            let broadcaster = Arc::clone(&broadcaster);
            let shutdown = Arc::clone(&shutdown);
            let interval = purge_interval;
            handles.push(
                std::thread::Builder::new()
                    .name("swala-cache-purge".into())
                    .spawn(move || {
                        let tick = Duration::from_millis(25).min(interval);
                        let mut elapsed = Duration::ZERO;
                        while !shutdown.load(Ordering::Acquire) {
                            std::thread::sleep(tick);
                            elapsed += tick;
                            if elapsed < interval {
                                continue;
                            }
                            elapsed = Duration::ZERO;
                            for dead in manager.purge_expired() {
                                announce_delete(&manager, &broadcaster, dead.owner, &dead.key);
                            }
                        }
                    })?,
            );
        }

        Ok(CacheDaemons {
            addr,
            shutdown,
            handles,
        })
    }

    /// The listener's actual address (for peers' broadcaster config).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop all daemon threads and wait for them (what dropping the
    /// daemons does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for CacheDaemons {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Serve one peer connection until EOF, error or shutdown.
fn handle_connection(
    stream: TcpStream,
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    shutdown: &AtomicBool,
    telemetry: Option<&Telemetry>,
) {
    // A finite read timeout, set once, lets the handler observe shutdown
    // even when the peer link is idle; without it the thread could never
    // be joined, so a socket that refuses it is closed.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = PatientReader::new(&stream);
    let mut stream = &stream;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let stop = || shutdown.load(Ordering::Acquire);
        let decoded = match reader.read_frame(FRAME_STALL_LIMIT, stop) {
            Ok(FrameRead::Frame(frame)) => Message::decode(&frame),
            Ok(FrameRead::Idle) => continue, // nothing consumed; re-check shutdown
            // Clean close, reset, or a peer stalled mid-frame: resuming
            // would mis-frame everything after it, so close.
            Ok(FrameRead::Closed) | Err(_) => return,
        };
        let Ok(msg) = decoded else {
            return;
        };
        match msg {
            Message::Hello { .. }
            | Message::InsertNotice { .. }
            | Message::DeleteNotice { .. }
            | Message::Invalidate { .. }
            | Message::NodeDown { .. } => {
                apply_notices(vec![msg], manager, broadcaster);
            }
            Message::Batch(msgs) => {
                // Coalesced notices from a peer's paced writer. Only
                // fire-and-forget notices may be batched; a
                // reply-requiring sub-message is a protocol violation and
                // drops the connection with nothing applied.
                if !msgs.iter().all(is_notice) {
                    return;
                }
                apply_notices(msgs, manager, broadcaster);
            }
            Message::FetchRequest { key, trace } => {
                // Adopt the requester's trace id so both nodes' spans of
                // one remote hit correlate; without telemetry (or an
                // untraced request) the handle is inert.
                let mut t = match (telemetry, trace) {
                    (Some(tel), Some(id)) => tel.begin_trace_with_id(id, key.as_str()),
                    _ => Trace::disabled(),
                };
                // Zero-copy reply: the body `Arc` from the cache tier is
                // written directly after a small encoded prefix, never
                // copied into a reply buffer.
                let hit = manager.fetch_local_body_traced(&key, &mut t);
                let t0 = t.start_span();
                let written = match hit {
                    Some((meta, body)) => {
                        let prefix =
                            Message::encode_fetch_hit_prefix(&meta.content_type, body.len());
                        write_frame_split(&mut stream, &prefix, &body)
                    }
                    None => write_frame(&mut stream, &Message::FetchMiss.encode()),
                };
                t.end_span(Stage::ResponseWrite, t0);
                t.set_outcome(Outcome::OwnerServe);
                if let Some(tel) = telemetry {
                    tel.record(t);
                }
                if written.is_err() {
                    return;
                }
            }
            Message::DirLookup { key, trace } => {
                // This node is (the requester believes) one of the key's
                // homes: answer with the directory's entry, which names
                // the owner, or `None` when nobody caches the key.
                let mut t = match (telemetry, trace) {
                    (Some(tel), Some(id)) => tel.begin_trace_with_id(id, key.as_str()),
                    _ => Trace::disabled(),
                };
                let t0 = t.start_span();
                let classification = manager.directory().classify(&key);
                t.end_span(Stage::DirLookup, t0);
                let meta = match classification {
                    Classification::Local(m) | Classification::Remote(m) => Some(m),
                    Classification::NotCached => None,
                };
                let reply = Message::DirAnswer { meta };
                let t0 = t.start_span();
                let written = write_frame(&mut stream, &reply.encode());
                t.end_span(Stage::ResponseWrite, t0);
                t.set_outcome(Outcome::OwnerServe);
                if let Some(tel) = telemetry {
                    tel.record(t);
                }
                if written.is_err() {
                    return;
                }
            }
            Message::SyncRequest => {
                let reply = Message::SyncReply {
                    node: manager.local_node(),
                    entries: manager.local_snapshot(),
                };
                if write_frame(&mut stream, &reply.encode()).is_err() {
                    return;
                }
            }
            Message::StatsPull { trace } => {
                // Stats federation: dump the registry (plain values) and
                // the hot-key sketch. Without a telemetry handle (bare
                // daemon in tests) the metrics list is simply empty — the
                // puller still gets a well-formed snapshot.
                let mut t = match (telemetry, trace) {
                    (Some(tel), Some(id)) => tel.begin_trace_with_id(id, "/swala-stats-pull"),
                    _ => Trace::disabled(),
                };
                let metrics = telemetry
                    .map(|tel| tel.registry().snapshot())
                    .unwrap_or_default();
                let reply = Message::StatsSnapshot(crate::message::NodeStats {
                    node: manager.local_node(),
                    metrics,
                    hotkeys: manager.heat().top(HOTKEYS_PER_SNAPSHOT),
                });
                let t0 = t.start_span();
                let written = write_frame(&mut stream, &reply.encode());
                t.end_span(Stage::ResponseWrite, t0);
                t.set_outcome(Outcome::OwnerServe);
                if let Some(tel) = telemetry {
                    tel.record(t);
                }
                if written.is_err() {
                    return;
                }
            }
            Message::Ping => {
                if write_frame(&mut stream, &Message::Pong.encode()).is_err() {
                    return;
                }
            }
            // Replies arriving inbound are protocol violations; drop the
            // connection rather than guessing.
            Message::FetchHit { .. }
            | Message::FetchMiss
            | Message::DirAnswer { .. }
            | Message::SyncReply { .. }
            | Message::StatsSnapshot(_)
            | Message::Pong => return,
        }
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
    use crate::fetch::{default_dialer, FetchOutcome, RetryPolicy};
    use crate::pool::FetchPool;
    use crate::wire::read_frame;
    use std::io::{Read, Write};
    use std::time::Instant;
    use swala_cache::{
        CacheKey, CacheManagerConfig, CacheRules, DirectoryKind, LookupResult, MemStore, NodeId,
    };

    /// One fetch through the production client, nothing pooled.
    fn fetch_once(addr: SocketAddr, key: &CacheKey, timeout: Duration) -> FetchOutcome {
        let pool = FetchPool::new(default_dialer(), 0);
        let policy = RetryPolicy::no_retry();
        pool.fetch(NodeId(0), addr, key, timeout, &policy, None).0
    }

    fn start_node(rules: CacheRules, purge_ms: u64) -> (Arc<CacheManager>, CacheDaemons) {
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
            DaemonConfig {
                purge_interval: Duration::from_millis(purge_ms),
                ..Default::default()
            },
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &Message::Batch(vec![Message::Ping]).encode()).unwrap();
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
    fn answers_sync_and_ping() {
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
        insert(&manager, &CacheKey::new("/cgi-bin/s?1"), b"a");
        insert(&manager, &CacheKey::new("/cgi-bin/s?2"), b"b");

        let mut s = TcpStream::connect(daemons.addr()).unwrap();
        write_frame(&mut s, &Message::Ping.encode()).unwrap();
        let f = read_frame(&mut s).unwrap().unwrap();
        assert_eq!(Message::decode(&f).unwrap(), Message::Pong);

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

    #[test]
    fn purge_daemon_expires_and_broadcasts() {
        // Node 0's purge notices go to a collector acting as node 1.
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

        let rules = CacheRules::parse("cache * ttl=1\n").unwrap();
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let broadcaster = Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)]));
        let daemons = CacheDaemons::start(
            Arc::clone(&manager),
            broadcaster,
            DaemonConfig {
                purge_interval: Duration::from_millis(50),
                ..Default::default()
            },
        )
        .unwrap();

        let key = CacheKey::new("/cgi-bin/ttl?x=1");
        insert(&manager, &key, b"short-lived");
        // Backdate expiry instead of sleeping out the 1-second TTL.
        let mut meta = manager.directory().get(NodeId(0), &key).unwrap();
        meta.expires_unix = Some(1);
        manager.directory().insert(NodeId(0), meta);

        wait_until(|| manager.stats().snapshot().expirations == 1);
        daemons.shutdown();
        let deletes = collector.join().unwrap();
        assert_eq!(deletes, vec![key]);
    }

    #[test]
    fn shutdown_is_prompt() {
        let (_, daemons) = start_node(CacheRules::allow_all(), 60_000);
        // Open an idle connection so a handler thread exists too.
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
    fn garbage_frame_drops_connection_only() {
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let daemons = CacheDaemons::start(
            Arc::clone(&manager),
            broadcaster,
            DaemonConfig {
                purge_interval: Duration::from_secs(60),
                ..Default::default()
            },
        )
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

    fn start_partitioned_node(
        rules: CacheRules,
        peer_addr: SocketAddr,
        purge_ms: u64,
    ) -> (Arc<CacheManager>, Arc<Broadcaster>, CacheDaemons) {
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules,
                directory: DirectoryKind::Partitioned,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let broadcaster = Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)]));
        let daemons = CacheDaemons::start(
            Arc::clone(&manager),
            Arc::clone(&broadcaster),
            DaemonConfig {
                purge_interval: Duration::from_millis(purge_ms),
                ..Default::default()
            },
        )
        .unwrap();
        (manager, broadcaster, daemons)
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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
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
        let (peer_addr, collector) = collecting_peer();
        let rules = CacheRules::parse("cache * ttl=1\n").unwrap();
        let (manager, broadcaster, daemons) = start_partitioned_node(rules, peer_addr, 50);
        let key = key_with_homes(&manager, &[NodeId(1)]);
        insert(&manager, &key, b"short-lived");
        // Backdate expiry instead of sleeping out the 1-second TTL.
        let mut meta = manager.directory().get(NodeId(0), &key).unwrap();
        meta.expires_unix = Some(1);
        manager.directory().insert(NodeId(0), meta);

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
        let (manager, daemons) = start_node(CacheRules::allow_all(), 60_000);
        insert(&manager, &CacheKey::new("/cgi-bin/a?1"), b"a");
        insert(&manager, &CacheKey::new("/cgi-bin/a?2"), b"b");
        let (node, entries) = crate::fetch::request_sync_via(
            &crate::fetch::default_dialer(),
            NodeId(0),
            daemons.addr(),
            Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(node, NodeId(0));
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.owner == NodeId(0)));
        daemons.shutdown();
    }
}
