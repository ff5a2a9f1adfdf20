//! Persistent per-peer fetch connections.
//!
//! The paper's remote cache hit pays "only the added delay of a
//! request/reply session between the two nodes"; a fresh TCP connection
//! per fetch would add a handshake to exactly the path that is supposed
//! to be cheap. The cache port serves a connection's frames until the
//! peer hangs up, so one connection carries any number of exchanges.
//!
//! [`FetchPool`] opens at most a fixed number of connections to each
//! peer and makes an exchange that finds them all busy wait for one, so
//! an owner knows how many connections its peers may open. It narrows
//! no failure handling: a stale connection is redialed within the
//! exchange, and every other failure reaches [`RetryPolicy`] and the
//! caller's `HealthTracker` as before.

use crate::fetch::{Dialer, FaultStream, FetchOutcome, RetryPolicy};
use crate::message::{Message, NodeStats};
use crate::reader::{FrameRead, PatientReader};
use crate::wire::{write_frame, ProtoError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_obs::MetricsRegistry;

/// Connections a node opens at most to each peer. A constant, not a
/// knob: a remote hit holds one for one exchange, so a few carry a
/// peer's remote-hit stream and a burst waits; cache ports are sized by it.
pub const DEFAULT_POOL_SIZE: usize = 4;

/// Counter snapshot (the registry's `swala_fetch_*` series, tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchPoolStats {
    /// TCP connections dialed (pool misses).
    pub connects_opened: u64,
    /// Fetches served over a warm pooled connection.
    pub reuses: u64,
    /// Pooled connections found dead on reuse and discarded.
    pub stale_drops: u64,
    /// Idle connections currently parked, across all peers.
    pub idle: u64,
    /// Checkouts that waited for one of a busy peer's connections.
    pub waits: u64,
}

/// A pooled connection: the stream plus the buffer its replies are read
/// through (one `recv` per reply that fits it).
type Conn = PatientReader<FaultStream>;

/// One peer's connections: the idle ones, how many are open (idle or in
/// use, never more than the pool's cap), and the checkouts waiting on
/// `freed` for one of them.
#[derive(Default)]
struct Peer {
    idle: Vec<Conn>,
    open: usize,
    waiting: usize,
    freed: Arc<Condvar>,
}

/// A pool of request/reply connections, at most `max_per_peer` per peer.
///
/// Deadlock freedom rests on one rule: no caller holds a pooled
/// connection while it asks for another. Each exchange (`dir_lookup`,
/// then `fetch` on a remote hit; `stats_pull` on an admin scrape; `sync`
/// at join) checks a connection out and back in before the next begins,
/// so a waiter waits only on exchanges that end within their timeout.
pub struct FetchPool {
    dialer: Dialer,
    max_per_peer: usize,
    peers: Mutex<HashMap<NodeId, Peer>>,
    connects_opened: AtomicU64,
    reuses: AtomicU64,
    stale_drops: AtomicU64,
    waits: AtomicU64,
}

/// One of a peer's `open` connections while an exchange holds it, and
/// the connection in it. Dropped, the slot goes back: the connection idle,
/// or closed when there is none or bytes follow its last reply (they
/// would be read as the next one). Either way one waiter wakes.
struct Slot<'a> {
    pool: &'a FetchPool,
    peer: NodeId,
    conn: Option<Conn>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let conn = self.conn.take().filter(|c| c.buffer().is_empty());
        let mut peers = self.pool.peers.lock();
        let p = peers.entry(self.peer).or_default();
        match conn {
            Some(conn) => p.idle.push(conn),
            None => p.open -= 1,
        }
        if p.waiting > 0 {
            p.freed.notify_one();
        }
    }
}

/// Why an exchange with a peer got no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerError {
    /// Every connection to the peer stayed in use by this node's other
    /// exchanges for the whole timeout: this node's load, no evidence
    /// against the peer.
    Busy,
    /// The dial or the exchange failed.
    Failed(String),
}

impl PeerError {
    fn failed(e: impl fmt::Display) -> PeerError {
        PeerError::Failed(e.to_string())
    }
}

impl fmt::Display for PeerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerError::Busy => f.write_str("every connection to the peer stayed busy"),
            PeerError::Failed(why) => f.write_str(why),
        }
    }
}

impl FetchPool {
    /// A pool dialing through `dialer`, with at most `max_per_peer`
    /// connections per peer, idle and in use. Identical fetches are not
    /// merged here: the flight registry lets one request per key fetch.
    pub fn new(dialer: Dialer, max_per_peer: usize) -> FetchPool {
        assert!(max_per_peer > 0, "a fetch pool needs a connection per peer");
        FetchPool {
            dialer,
            max_per_peer,
            peers: Mutex::new(HashMap::new()),
            connects_opened: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Fetch `key` from `peer` at `addr` with bounded retries, reusing a
    /// warm connection when one is parked. Only transport failures are
    /// retried — a `Gone` reply is a protocol-level answer (the §4.2 false
    /// hit) that no retry will change — and the attempt count is returned
    /// for the caller's health accounting.
    /// `trace` is the caller's trace id; when `Some`, it rides in the
    /// `FetchRequest` so the owner's daemon records correlated spans.
    pub fn fetch(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        key: &CacheKey,
        timeout: Duration,
        policy: &RetryPolicy,
        trace: Option<u64>,
    ) -> (FetchOutcome, u32) {
        let request = Message::encode_fetch_request(key, trace);
        let accept = |reply| match reply {
            Message::FetchHit { content_type, body } => {
                Ok(FetchOutcome::Hit { content_type, body })
            }
            Message::FetchMiss => Ok(FetchOutcome::Gone),
            other => Err(other),
        };
        let mut attempt = 1;
        loop {
            let out = match self.with_conn(peer, addr, timeout, &request, accept) {
                Ok(out) => out,
                Err(PeerError::Busy) => FetchOutcome::Busy,
                Err(PeerError::Failed(why)) => FetchOutcome::Unreachable(why),
            };
            if attempt >= policy.max_attempts || !matches!(out, FetchOutcome::Unreachable(_)) {
                return (out, attempt);
            }
            std::thread::sleep(policy.backoff_after(attempt));
            attempt += 1;
        }
    }

    /// Send `request` to `peer` on a pooled connection and map the reply
    /// through `accept`, which hands back any reply it does not expect. A
    /// failure on a *reused* connection is staleness, not evidence
    /// against the peer: the connection is closed and the exchange
    /// repeated once on a fresh dial in its slot, whose failure is the
    /// caller's to handle. A failed exchange never leaves its connection
    /// idle.
    fn with_conn<T>(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        timeout: Duration,
        request: &[u8],
        accept: impl Fn(Message) -> Result<T, Message>,
    ) -> Result<T, PeerError> {
        let conn = self.checkout(peer, timeout)?;
        let mut slot = Slot {
            pool: self,
            peer,
            conn,
        };
        if let Some(conn) = &mut slot.conn {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            if let Ok(reply) = exchange(conn, timeout, request, &accept) {
                return Ok(reply);
            }
            self.stale_drops.fetch_add(1, Ordering::Relaxed);
            slot.conn = None;
        }
        let stream = (self.dialer)(peer, addr, timeout).map_err(PeerError::failed)?;
        self.connects_opened.fetch_add(1, Ordering::Relaxed);
        let conn = slot.conn.insert(PatientReader::new(stream));
        let reply = exchange(conn, timeout, request, &accept);
        if reply.is_err() {
            slot.conn = None;
        }
        reply.map_err(PeerError::failed)
    }

    /// One directory-lookup exchange: ask `peer`, one of the key's homes,
    /// who caches `key` — the entry naming its owner, or `None` when the
    /// home has no record. One attempt: on `Err` the caller executes
    /// locally rather than retry a lookup it can live without.
    pub fn dir_lookup(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        key: &CacheKey,
        timeout: Duration,
        trace: Option<u64>,
    ) -> Result<Option<EntryMeta>, PeerError> {
        let request = Message::encode_dir_lookup(key, trace);
        self.with_conn(peer, addr, timeout, &request, |reply| match reply {
            Message::DirAnswer { meta } => Ok(meta),
            other => Err(other),
        })
    }

    /// One stats-federation exchange: pull `peer`'s metrics snapshot and
    /// hot-key sketch. One attempt: on `Err` the scraper degrades to a
    /// partial cluster view.
    pub fn stats_pull(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        timeout: Duration,
        trace: Option<u64>,
    ) -> Result<NodeStats, PeerError> {
        let request = Message::StatsPull { trace }.encode();
        self.with_conn(peer, addr, timeout, &request, |reply| match reply {
            Message::StatsSnapshot(stats) => Ok(stats),
            other => Err(other),
        })
    }

    /// One join-sync exchange: pull `peer`'s whole local table. One
    /// attempt: on `Err` the joining node learns that peer's entries from
    /// its notices instead.
    pub fn sync(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<(NodeId, Vec<EntryMeta>), PeerError> {
        let request = Message::SyncRequest.encode();
        self.with_conn(peer, addr, timeout, &request, |reply| match reply {
            Message::SyncReply { node, entries } => Ok((node, entries)),
            other => Err(other),
        })
    }

    /// Take a slot: an idle connection to `peer`, or `None` to dial into
    /// while fewer than `max_per_peer` are open. Otherwise wait up to
    /// `timeout` for a slot to go back.
    fn checkout(&self, peer: NodeId, timeout: Duration) -> Result<Option<Conn>, PeerError> {
        let deadline = Instant::now() + timeout;
        let mut waited = false;
        let mut peers = self.peers.lock();
        loop {
            let p = peers.entry(peer).or_default();
            p.waiting -= waited as usize;
            if let Some(conn) = p.idle.pop() {
                return Ok(Some(conn));
            }
            if p.open < self.max_per_peer {
                p.open += 1;
                return Ok(None);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(PeerError::Busy);
            }
            if !waited {
                waited = true;
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
            p.waiting += 1;
            // The wait takes the map's lock, so it cannot borrow from the map.
            let freed = Arc::clone(&p.freed);
            let woken = freed.wait_timeout(peers, left);
            peers = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Discard every idle connection to `peer`, freeing their slots.
    /// Called when the health tracker quarantines the peer — its parked
    /// connections are dead weight at best and stale-failure noise at
    /// worst.
    pub fn purge_peer(&self, peer: NodeId) {
        if let Some(p) = self.peers.lock().get_mut(&peer) {
            p.open -= p.idle.len();
            p.idle.clear();
            p.freed.notify_all();
        }
    }

    /// Register the pool's counters and idle gauge on `reg` as
    /// `swala_fetch_*`, each read through [`stats`](Self::stats).
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        type Field = fn(FetchPoolStats) -> u64;
        let counters: [(&str, &str, Field); 4] = [
            (
                "swala_fetch_connects_opened",
                "Fetch-pool TCP connections opened",
                |s| s.connects_opened,
            ),
            ("swala_fetch_reuses", "Fetch-pool connection reuses", |s| {
                s.reuses
            }),
            (
                "swala_fetch_stale_drops",
                "Fetch-pool pooled connections dropped as stale",
                |s| s.stale_drops,
            ),
            (
                "swala_fetch_waits",
                "Fetch-pool checkouts that waited for a busy peer's connection",
                |s| s.waits,
            ),
        ];
        for (name, help, read) in counters {
            let p = Arc::clone(self);
            reg.register_counter(name, help, move || read(p.stats()));
        }
        let p = Arc::clone(self);
        let help = "Fetch-pool idle connections, across all peers";
        reg.register_gauge_fn("swala_fetch_idle", help, move || p.stats().idle as i64);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FetchPoolStats {
        let idle: usize = self.peers.lock().values().map(|p| p.idle.len()).sum();
        FetchPoolStats {
            connects_opened: self.connects_opened.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            idle: idle as u64,
            waits: self.waits.load(Ordering::Relaxed),
        }
    }
}

/// Send `request` and map the reply frame through `accept`, both bounded
/// by `timeout` (the socket carries it, so a timeout anywhere is a
/// failure).
fn exchange<T>(
    conn: &mut Conn,
    timeout: Duration,
    request: &[u8],
    accept: impl Fn(Message) -> Result<T, Message>,
) -> Result<T, ProtoError> {
    conn.get_mut().set_io_timeout(timeout)?;
    write_frame(conn.get_mut(), request)?;
    let reply = match conn.read_frame(Duration::ZERO, || true)? {
        FrameRead::Frame(reply) => Message::decode(&reply)?,
        FrameRead::Idle => return Err(io::Error::from(io::ErrorKind::TimedOut).into()),
        FrameRead::Closed => return Err(ProtoError::Truncated("reply")),
    };
    accept(reply).map_err(|other| io::Error::other(format!("unexpected reply: {other:?}")).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{default_dialer, StreamFault};
    use crate::wire::read_frame;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use swala_cache::{CacheKey, EntryMeta};

    /// Fetch server that answers any number of requests per connection
    /// (like the real daemon) and counts accepted connections.
    fn persistent_fetch_server(
        reply: impl Fn(&CacheKey) -> Message + Send + Sync + 'static,
    ) -> (SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU32::new(0));
        let accepted2 = Arc::clone(&accepted);
        let reply = Arc::new(reply);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                accepted2.fetch_add(1, Ordering::SeqCst);
                let reply = Arc::clone(&reply);
                std::thread::spawn(move || {
                    while let Ok(Some(frame)) = read_frame(&mut s) {
                        match Message::decode(&frame) {
                            Ok(Message::FetchRequest { key, .. }) => {
                                if write_frame(&mut s, &reply(&key).encode()).is_err() {
                                    return;
                                }
                            }
                            _ => return,
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    fn hit(body: &[u8]) -> Message {
        Message::FetchHit {
            content_type: "text/html".into(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn burst_reuses_one_connection() {
        let (addr, accepted) = persistent_fetch_server(|_| hit(b"warm"));
        let pool = FetchPool::new(default_dialer(), 4);
        for i in 0..20 {
            let (out, attempts) = pool.fetch(
                NodeId(1),
                addr,
                &CacheKey::new(format!("/x?{i}")),
                Duration::from_secs(1),
                &RetryPolicy::no_retry(),
                None,
            );
            assert!(matches!(out, FetchOutcome::Hit { .. }), "{out:?}");
            assert_eq!(attempts, 1);
        }
        let s = pool.stats();
        // Sequential burst: the very first fetch dials, the rest reuse.
        assert_eq!(s.connects_opened, 1);
        assert_eq!(s.reuses, 19);
        assert_eq!(s.stale_drops, 0);
        assert_eq!(s.idle, 1);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_burst_opens_at_most_pool_size() {
        let (addr, accepted) = persistent_fetch_server(|_| hit(b"x"));
        let pool = Arc::new(FetchPool::new(default_dialer(), 4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let (out, _) = pool.fetch(
                        NodeId(1),
                        addr,
                        &CacheKey::new(format!("/t{t}?{i}")),
                        Duration::from_secs(1),
                        &RetryPolicy::no_retry(),
                        None,
                    );
                    assert!(matches!(out, FetchOutcome::Hit { .. }));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads × 10 fetches over a pool of 4: at most 4 dials, the
        // other fetches reuse or wait.
        assert!(accepted.load(Ordering::SeqCst) <= 4);
        assert!(pool.stats().idle <= 4);
    }

    /// A fetch server on a schedule of its own: every third reply comes
    /// after a 5 ms stall, every fifth with a stray byte behind it, and
    /// each connection closes after its seventh.
    fn scheduled_fetch_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicU32::new(0));
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    for _ in 0..7 {
                        let Ok(Some(_)) = read_frame(&mut s) else {
                            return;
                        };
                        let n = served.fetch_add(1, Ordering::SeqCst);
                        if n.is_multiple_of(3) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        let mut reply = Vec::new();
                        write_frame(&mut reply, &hit(b"x").encode()).unwrap();
                        if n.is_multiple_of(5) {
                            reply.push(0);
                        }
                        if s.write_all(&reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    /// A fetch server whose first reply waits for a word on `go` and is
    /// then passed through `first`: the bytes to send, or `None` to close
    /// without a reply. Every other reply is a plain hit.
    fn gated_fetch_server(
        go: std::sync::mpsc::Receiver<()>,
        first: fn(Vec<u8>) -> Option<Vec<u8>>,
    ) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut go = Some(go);
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                let mut gate = go.take();
                std::thread::spawn(move || {
                    while let Ok(Some(_)) = read_frame(&mut s) {
                        let mut reply = Vec::new();
                        write_frame(&mut reply, &hit(b"x").encode()).unwrap();
                        if let Some(go) = gate.take() {
                            go.recv().unwrap();
                            match first(reply) {
                                Some(bytes) => reply = bytes,
                                None => return,
                            }
                        }
                        if s.write_all(&reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One fetch of `/x` from node 1 at `addr`, no retries.
    fn fetch_x(pool: &FetchPool, addr: SocketAddr, timeout: Duration) -> FetchOutcome {
        let (key, policy) = (CacheKey::new("/x"), RetryPolicy::no_retry());
        pool.fetch(NodeId(1), addr, &key, timeout, &policy, None).0
    }

    #[test]
    fn a_wait_that_outlasts_its_timeout_is_busy() {
        let (go, gate) = std::sync::mpsc::channel();
        let addr = gated_fetch_server(gate, Some);
        let pool = Arc::new(FetchPool::new(default_dialer(), 1));
        let busy = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || fetch_x(&pool, addr, Duration::from_secs(5)))
        };
        wait_until(|| pool.stats().connects_opened == 1);
        // The only connection is held until `go`: this fetch waits out
        // its whole timeout.
        let out = fetch_x(&pool, addr, Duration::from_millis(50));
        assert_eq!(out, FetchOutcome::Busy);
        go.send(()).unwrap();
        assert!(matches!(busy.join().unwrap(), FetchOutcome::Hit { .. }));
        let s = pool.stats();
        assert_eq!((s.connects_opened, s.waits, s.idle), (1, 1, 1));
    }

    /// With one connection per peer, a fetch that waits behind another
    /// gets the slot as soon as the first one's connection closes, on
    /// each way a connection closes without going back idle: a failed
    /// exchange, and bytes behind the reply.
    #[test]
    fn every_release_wakes_a_waiter() {
        let no_reply: fn(Vec<u8>) -> Option<Vec<u8>> = |_| None;
        let stray_byte: fn(Vec<u8>) -> Option<Vec<u8>> = |mut reply| {
            reply.push(0);
            Some(reply)
        };
        for (first_hits, first) in [(false, no_reply), (true, stray_byte)] {
            let (go, gate) = std::sync::mpsc::channel();
            let addr = gated_fetch_server(gate, first);
            let pool = Arc::new(FetchPool::new(default_dialer(), 1));
            let timeout = Duration::from_secs(5);
            let spawn_fetch = || {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || fetch_x(&pool, addr, timeout))
            };
            let holder = spawn_fetch();
            wait_until(|| pool.stats().connects_opened == 1);
            let waiter = spawn_fetch();
            wait_until(|| pool.stats().waits == 1);
            let released = Instant::now();
            go.send(()).unwrap();
            let out = waiter.join().unwrap();
            assert!(matches!(out, FetchOutcome::Hit { .. }), "{out:?}");
            assert!(released.elapsed() < Duration::from_secs(1), "{first_hits}");
            let held = holder.join().unwrap();
            assert_eq!(matches!(held, FetchOutcome::Hit { .. }), first_hits);
            // The first connection closed instead of going back idle, so
            // the waiter dialed rather than reusing it.
            let s = pool.stats();
            assert_eq!((s.connects_opened, s.waits, s.idle), (2, 1, 1), "{s:?}");
            assert_eq!((s.reuses, s.stale_drops), (0, 0), "{s:?}");
        }
    }

    #[test]
    fn slots_never_leak_under_failures_stalls_and_purges() {
        const CAP: usize = 2;
        let addr = scheduled_fetch_server();
        // Every fourth dial fails and every fourth delivers 8 bytes.
        let dials = AtomicU32::new(0);
        let dialer: Dialer =
            Arc::new(
                move |_peer, a, t| match dials.fetch_add(1, Ordering::SeqCst) % 4 {
                    0 => Err(std::io::Error::other("scheduled dial failure")),
                    1 => FaultStream::connect(a, t, StreamFault::TruncateReads(8)),
                    _ => FaultStream::connect(a, t, StreamFault::None),
                },
            );
        let pool = Arc::new(FetchPool::new(dialer, CAP));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Two peers behind one server, so the caps are per peer.
        let peers = [NodeId(1), NodeId(2)];
        let checker = {
            let (pool, done) = (Arc::clone(&pool), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    for p in pool.peers.lock().values() {
                        assert!(p.open <= CAP && p.idle.len() <= p.open);
                    }
                    for peer in peers {
                        pool.purge_peer(peer);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0,
        };
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let (pool, policy) = (Arc::clone(&pool), policy.clone());
                std::thread::spawn(move || {
                    let mut hits = 0;
                    for i in 0..30 {
                        let key = CacheKey::new(format!("/t{t}?{i}"));
                        let timeout = Duration::from_secs(2);
                        let (out, _) = pool.fetch(peers[i % 2], addr, &key, timeout, &policy, None);
                        // Every exchange ends within milliseconds, so a
                        // wait that runs out is a leaked slot or a
                        // release that woke no waiter.
                        assert_ne!(out, FetchOutcome::Busy);
                        hits += matches!(out, FetchOutcome::Hit { .. }) as usize;
                    }
                    hits
                })
            })
            .collect();
        let hits: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        done.store(true, Ordering::SeqCst);
        checker.join().unwrap();
        assert!(hits > 0);
        for (peer, p) in pool.peers.lock().iter() {
            assert_eq!(p.open, p.idle.len(), "{peer:?} leaked a slot");
            assert_eq!(p.waiting, 0, "{peer:?} counts a waiter that left");
        }
        assert!(pool.stats().waits > 0, "{:?}", pool.stats());
    }

    #[test]
    fn stale_connection_reconnects_within_one_attempt() {
        let (addr, accepted) = persistent_fetch_server(|_| hit(b"ok"));
        // One connection per peer: the redial must take the stale one's
        // slot, or it would wait for itself.
        let pool = FetchPool::new(default_dialer(), 1);
        let key = CacheKey::new("/x");
        let (out, _) = pool.fetch(
            NodeId(1),
            addr,
            &key,
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
            None,
        );
        assert!(matches!(out, FetchOutcome::Hit { .. }));
        // Poison the parked connection: replace it with one whose reads
        // always reset, as if the peer restarted while it sat idle.
        {
            let mut peers = pool.peers.lock();
            let stack = &mut peers.get_mut(&NodeId(1)).unwrap().idle;
            let dead = stack.pop().unwrap();
            drop(dead);
            let raw = std::net::TcpStream::connect(addr).unwrap();
            stack.push(PatientReader::new(FaultStream::wrap(
                raw,
                StreamFault::ResetReads,
            )));
        }
        let (out, attempts) = pool.fetch(
            NodeId(1),
            addr,
            &key,
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
            None,
        );
        // Even with no retries budgeted, the stale drop + fresh dial
        // happen inside the single attempt and the fetch succeeds.
        assert!(matches!(out, FetchOutcome::Hit { .. }), "{out:?}");
        assert_eq!(attempts, 1);
        let s = pool.stats();
        assert_eq!(s.stale_drops, 1);
        assert_eq!(s.connects_opened, 2);
        assert!(accepted.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn gone_reply_keeps_connection_pooled() {
        let (addr, _accepted) = persistent_fetch_server(|_| Message::FetchMiss);
        let pool = FetchPool::new(default_dialer(), 2);
        for _ in 0..3 {
            let (out, _) = pool.fetch(
                NodeId(1),
                addr,
                &CacheKey::new("/gone"),
                Duration::from_secs(1),
                &RetryPolicy::no_retry(),
                None,
            );
            assert_eq!(out, FetchOutcome::Gone);
        }
        let s = pool.stats();
        assert_eq!(s.connects_opened, 1);
        assert_eq!(s.reuses, 2);
    }

    #[test]
    fn purge_peer_drops_idle_connections() {
        let (addr, _) = persistent_fetch_server(|_| hit(b"x"));
        let pool = FetchPool::new(default_dialer(), 1);
        pool.fetch(
            NodeId(3),
            addr,
            &CacheKey::new("/x"),
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
            None,
        );
        assert_eq!(pool.stats().idle, 1);
        pool.purge_peer(NodeId(3));
        assert_eq!(pool.stats().idle, 0);
        // Next fetch dials fresh, in the slot the purge freed.
        let (out, _) = pool.fetch(
            NodeId(3),
            addr,
            &CacheKey::new("/y"),
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
            None,
        );
        assert!(matches!(out, FetchOutcome::Hit { .. }), "{out:?}");
        let s = pool.stats();
        assert_eq!((s.connects_opened, s.waits), (2, 0));
    }

    #[test]
    fn unreachable_peer_still_retries_via_policy() {
        let pool = FetchPool::new(default_dialer(), 2);
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0,
        };
        let (out, attempts) = pool.fetch(
            NodeId(1),
            "127.0.0.1:1".parse().unwrap(),
            &CacheKey::new("/x"),
            Duration::from_millis(100),
            &policy,
            None,
        );
        assert!(matches!(out, FetchOutcome::Unreachable(_)));
        assert_eq!(attempts, 2);
        assert_eq!(pool.stats().idle, 0);
    }

    /// Server answering `DirLookup` with an entry owned by `owner`, any
    /// number of exchanges per connection (like the real daemon).
    fn dir_lookup_server(owner: NodeId) -> (SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU32::new(0));
        let accepted2 = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                accepted2.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    while let Ok(Some(frame)) = read_frame(&mut s) {
                        match Message::decode(&frame) {
                            Ok(Message::DirLookup { key, .. }) => {
                                let reply = Message::DirAnswer {
                                    meta: Some(EntryMeta::new(key, owner, 1, "t", 1, None, 1)),
                                };
                                if write_frame(&mut s, &reply.encode()).is_err() {
                                    return;
                                }
                            }
                            _ => return,
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    #[test]
    fn dir_lookup_reuses_pooled_connection() {
        let (addr, accepted) = dir_lookup_server(NodeId(2));
        let pool = FetchPool::new(default_dialer(), 2);
        for i in 0..3 {
            let answer = pool
                .dir_lookup(
                    NodeId(1),
                    addr,
                    &CacheKey::new(format!("/cgi-bin/h?{i}")),
                    Duration::from_secs(1),
                    None,
                )
                .unwrap();
            assert_eq!(answer.map(|meta| meta.owner), Some(NodeId(2)));
        }
        let s = pool.stats();
        assert_eq!(s.connects_opened, 1);
        assert_eq!(s.reuses, 2);
        assert_eq!(s.idle, 1);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dir_lookup_unreachable_home_is_an_error() {
        let pool = FetchPool::new(default_dialer(), 2);
        let err = pool.dir_lookup(
            NodeId(1),
            "127.0.0.1:1".parse().unwrap(),
            &CacheKey::new("/x"),
            Duration::from_millis(100),
            None,
        );
        assert!(err.is_err());
        assert_eq!(pool.stats().idle, 0);
    }

    /// Server answering `StatsPull` with a fixed snapshot, any number of
    /// exchanges per connection (like the real daemon).
    fn stats_server(stats: crate::message::NodeStats) -> (SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicU32::new(0));
        let accepted2 = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                accepted2.fetch_add(1, Ordering::SeqCst);
                let stats = stats.clone();
                std::thread::spawn(move || {
                    while let Ok(Some(frame)) = read_frame(&mut s) {
                        match Message::decode(&frame) {
                            Ok(Message::StatsPull { .. }) => {
                                let reply = Message::StatsSnapshot(stats.clone());
                                if write_frame(&mut s, &reply.encode()).is_err() {
                                    return;
                                }
                            }
                            _ => return,
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    #[test]
    fn stats_pull_reuses_pooled_connection() {
        let stats = crate::message::NodeStats {
            node: NodeId(2),
            metrics: vec![swala_obs::MetricSnapshot {
                name: "swala_requests".into(),
                help: "Requests".into(),
                label: None,
                value: swala_obs::MetricValue::Counter(99),
            }],
            hotkeys: vec![swala_obs::HeatEntry {
                key: "/cgi-bin/hot".into(),
                count: 7,
                error: 0,
                cost_us: 1000,
            }],
        };
        let (addr, accepted) = stats_server(stats.clone());
        let pool = FetchPool::new(default_dialer(), 2);
        for _ in 0..3 {
            let got = pool
                .stats_pull(NodeId(1), addr, Duration::from_secs(1), None)
                .unwrap();
            assert_eq!(got, stats);
        }
        let s = pool.stats();
        assert_eq!(s.connects_opened, 1);
        assert_eq!(s.reuses, 2);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_pull_unreachable_peer_is_an_error() {
        let pool = FetchPool::new(default_dialer(), 2);
        let err = pool.stats_pull(
            NodeId(1),
            "127.0.0.1:1".parse().unwrap(),
            Duration::from_millis(100),
            None,
        );
        assert!(err.is_err());
        assert_eq!(pool.stats().idle, 0);
    }
}
