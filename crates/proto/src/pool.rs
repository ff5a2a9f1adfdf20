//! Persistent per-peer fetch connections.
//!
//! The paper's remote cache hit pays "only the added delay of a
//! request/reply session between the two nodes"; a fresh TCP connection
//! per fetch would add a three-way handshake to exactly the path that is
//! supposed to be cheap. The cache port serves a connection's frames
//! until the peer hangs up, so one connection carries any number of
//! request/reply exchanges.
//!
//! [`FetchPool`] keeps a small stack of warm connections per peer and
//! reuses them across remote hits. A pooled connection may have died
//! while idle (peer restarted, RST in flight, injected fault), so one
//! failure on a *reused* connection is charged to staleness rather than
//! to the peer: the pool drops it and dials fresh once within the same
//! retry attempt. Failures on fresh connections propagate to the
//! existing [`RetryPolicy`] / `HealthTracker` seams unchanged — the
//! pool narrows no failure handling, it only removes handshakes.

use crate::fetch::{Dialer, FaultStream, FetchOutcome, RetryPolicy};
use crate::message::Message;
use crate::reader::{FrameRead, PatientReader};
use crate::wire::{write_frame, ProtoError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use swala_cache::{CacheKey, NodeId};

/// Idle fetch connections every node keeps warm per peer. A constant,
/// not a knob: a remote hit holds a connection for one exchange, so a few
/// carry a peer's remote-hit stream, and a burst beyond them dials.
pub const DEFAULT_POOL_SIZE: usize = 4;

/// Counter snapshot for reporting (`/swala-status`, bench assertions).
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
}

impl fmt::Display for FetchPoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "connects={} reuses={} stale_drops={} idle={}",
            self.connects_opened, self.reuses, self.stale_drops, self.idle,
        )
    }
}

/// A pooled connection: the stream plus the buffer its replies are read
/// through (one `recv` per reply that fits it).
type Conn = PatientReader<FaultStream>;

/// A pool of warm request/reply connections, one stack per peer.
pub struct FetchPool {
    dialer: Dialer,
    max_per_peer: usize,
    idle: Mutex<HashMap<u16, Vec<Conn>>>,
    connects_opened: AtomicU64,
    reuses: AtomicU64,
    stale_drops: AtomicU64,
}

impl FetchPool {
    /// A pool dialing through `dialer`, keeping at most `max_per_peer`
    /// idle connections per peer. `max_per_peer == 0` disables pooling
    /// (every fetch dials). Identical concurrent fetches are
    /// not merged here: the cache manager's flight registry lets one
    /// request per key fetch while the others wait.
    pub fn new(dialer: Dialer, max_per_peer: usize) -> FetchPool {
        FetchPool {
            dialer,
            max_per_peer,
            idle: Mutex::new(HashMap::new()),
            connects_opened: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
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
        key: &swala_cache::CacheKey,
        timeout: Duration,
        policy: &RetryPolicy,
        trace: Option<u64>,
    ) -> (FetchOutcome, u32) {
        let attempts = policy.max_attempts.max(1);
        let mut last = FetchOutcome::Unreachable("no attempt made".into());
        for attempt in 1..=attempts {
            last = self.try_once(peer, addr, key, timeout, trace);
            if !matches!(last, FetchOutcome::Unreachable(_)) {
                return (last, attempt);
            }
            if attempt < attempts {
                std::thread::sleep(policy.backoff_after(attempt));
            }
        }
        (last, attempts)
    }

    /// One attempt: warm connection first (discard-and-redial once if it
    /// proves stale), then a fresh dial.
    fn try_once(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        key: &swala_cache::CacheKey,
        timeout: Duration,
        trace: Option<u64>,
    ) -> FetchOutcome {
        self.with_conn(peer, addr, timeout, |conn| {
            fetch_on(conn, key, timeout, trace)
        })
        .unwrap_or_else(FetchOutcome::Unreachable)
    }

    /// Run one request/reply `exchange` with `peer` on a pooled
    /// connection. A failure on a *reused* connection is staleness, not
    /// evidence against the peer: the connection is dropped and the
    /// exchange repeated once on a fresh dial, whose failure is the
    /// caller's to handle.
    fn with_conn<T>(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        timeout: Duration,
        exchange: impl Fn(&mut Conn) -> Result<T, ProtoError>,
    ) -> Result<T, String> {
        if let Some(mut conn) = self.checkout(peer) {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            match exchange(&mut conn) {
                Ok(reply) => {
                    self.checkin(peer, conn);
                    return Ok(reply);
                }
                Err(_) => {
                    self.stale_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let stream = (self.dialer)(peer, addr, timeout).map_err(|e| e.to_string())?;
        self.connects_opened.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = PatientReader::new(stream);
        let reply = exchange(&mut conn).map_err(|e| e.to_string())?;
        self.checkin(peer, conn);
        Ok(reply)
    }

    /// One pooled directory-lookup exchange: ask `peer` — one of the
    /// key's homes — who currently caches `key`. Returns the home's
    /// authoritative answer: the entry (naming its owner) when the key is
    /// cached somewhere, `None` when the home has no record (the asker
    /// should execute locally).
    ///
    /// Single attempt, with the pool's usual stale-drop-then-redial
    /// inside it; a transport failure maps to `Err` so the caller can
    /// fall back to local execution rather than retrying a lookup whose
    /// answer it can live without.
    pub fn dir_lookup(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        key: &CacheKey,
        timeout: Duration,
        trace: Option<u64>,
    ) -> Result<Option<swala_cache::EntryMeta>, String> {
        self.with_conn(peer, addr, timeout, |conn| {
            dir_lookup_on(conn, key, timeout, trace)
        })
    }

    /// One pooled stats-federation exchange: pull `peer`'s metrics
    /// snapshot and hot-key sketch. Same shape as
    /// [`dir_lookup`](Self::dir_lookup) — single attempt with the pool's
    /// stale-drop-then-redial inside it, `Err` on transport failure so
    /// the scraper can degrade to a partial cluster view.
    pub fn stats_pull(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        timeout: Duration,
        trace: Option<u64>,
    ) -> Result<crate::message::NodeStats, String> {
        self.with_conn(peer, addr, timeout, |conn| {
            stats_pull_on(conn, timeout, trace)
        })
    }

    fn checkout(&self, peer: NodeId) -> Option<Conn> {
        self.idle.lock().get_mut(&peer.0)?.pop()
    }

    fn checkin(&self, peer: NodeId, conn: Conn) {
        // Bytes behind the reply would be read as the next one: close.
        if !conn.buffer().is_empty() {
            return;
        }
        let mut idle = self.idle.lock();
        let stack = idle.entry(peer.0).or_default();
        if stack.len() < self.max_per_peer {
            stack.push(conn);
        }
        // Else: over the cap (or pooling disabled); dropping closes it.
    }

    /// Discard every idle connection to `peer`. Called when the health
    /// tracker quarantines the peer — its parked connections are dead
    /// weight at best and stale-failure noise at worst.
    pub fn purge_peer(&self, peer: NodeId) {
        self.idle.lock().remove(&peer.0);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FetchPoolStats {
        let idle = self.idle.lock().values().map(|v| v.len() as u64).sum();
        FetchPoolStats {
            connects_opened: self.connects_opened.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            idle,
        }
    }
}

/// Send `request` and decode the reply frame, both bounded by `timeout`
/// (the socket carries it, so a timeout anywhere is a failure).
fn exchange(
    conn: &mut Conn,
    timeout: Duration,
    request: &[u8],
    what: &'static str,
) -> Result<Message, ProtoError> {
    conn.get_mut().set_io_timeout(timeout)?;
    write_frame(conn.get_mut(), request)?;
    match conn.read_frame(Duration::ZERO, || true)? {
        FrameRead::Frame(reply) => Message::decode(&reply),
        FrameRead::Idle => Err(ProtoError::Io(std::io::ErrorKind::TimedOut.into())),
        FrameRead::Closed => Err(ProtoError::Truncated(what)),
    }
}

fn unexpected(what: &str, reply: Message) -> ProtoError {
    ProtoError::Io(std::io::Error::other(format!(
        "unexpected {what}: {reply:?}"
    )))
}

/// One fetch request/reply exchange on an established connection.
fn fetch_on(
    conn: &mut Conn,
    key: &swala_cache::CacheKey,
    timeout: Duration,
    trace: Option<u64>,
) -> Result<FetchOutcome, ProtoError> {
    let request = Message::encode_fetch_request(key, trace);
    match exchange(conn, timeout, &request, "fetch reply")? {
        Message::FetchHit { content_type, body } => Ok(FetchOutcome::Hit { content_type, body }),
        Message::FetchMiss => Ok(FetchOutcome::Gone),
        other => Err(unexpected("fetch reply", other)),
    }
}

/// One directory-lookup request/reply exchange on an established
/// connection.
fn dir_lookup_on(
    conn: &mut Conn,
    key: &CacheKey,
    timeout: Duration,
    trace: Option<u64>,
) -> Result<Option<swala_cache::EntryMeta>, ProtoError> {
    let request = Message::encode_dir_lookup(key, trace);
    match exchange(conn, timeout, &request, "dir-lookup reply")? {
        Message::DirAnswer { meta } => Ok(meta),
        other => Err(unexpected("dir-lookup reply", other)),
    }
}

/// One stats-pull request/reply exchange on an established connection.
fn stats_pull_on(
    conn: &mut Conn,
    timeout: Duration,
    trace: Option<u64>,
) -> Result<crate::message::NodeStats, ProtoError> {
    let request = Message::StatsPull { trace }.encode();
    match exchange(conn, timeout, &request, "stats reply")? {
        Message::StatsSnapshot(stats) => Ok(stats),
        other => Err(unexpected("stats reply", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{default_dialer, StreamFault};
    use crate::wire::read_frame;
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
        for t in 0..4 {
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
        // 4 threads × 10 fetches over a pool of 4: at most 4 dials.
        assert!(accepted.load(Ordering::SeqCst) <= 4);
        assert!(pool.stats().idle <= 4);
    }

    #[test]
    fn stale_connection_reconnects_within_one_attempt() {
        let (addr, accepted) = persistent_fetch_server(|_| hit(b"ok"));
        let pool = FetchPool::new(default_dialer(), 2);
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
            let mut idle = pool.idle.lock();
            let stack = idle.get_mut(&1).unwrap();
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
        let pool = FetchPool::new(default_dialer(), 2);
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
        // Next fetch dials fresh.
        pool.fetch(
            NodeId(3),
            addr,
            &CacheKey::new("/y"),
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
            None,
        );
        assert_eq!(pool.stats().connects_opened, 2);
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

    #[test]
    fn zero_sized_pool_never_parks_connections() {
        let (addr, accepted) = persistent_fetch_server(|_| hit(b"x"));
        let pool = FetchPool::new(default_dialer(), 0);
        for _ in 0..3 {
            let (out, _) = pool.fetch(
                NodeId(1),
                addr,
                &CacheKey::new("/x"),
                Duration::from_secs(1),
                &RetryPolicy::no_retry(),
                None,
            );
            assert!(matches!(out, FetchOutcome::Hit { .. }));
        }
        let s = pool.stats();
        assert_eq!(s.connects_opened, 3);
        assert_eq!(s.reuses, 0);
        assert_eq!(s.idle, 0);
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }
}
