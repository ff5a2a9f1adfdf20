//! Client side of a remote cache fetch.
//!
//! Figure 2's "Fetch from remote cache" edge: a node whose directory says
//! a peer holds the result sends a [`Message::FetchRequest`] on one of
//! its connections to that peer and reads the reply. A `FetchMiss` reply is
//! the §4.2 *false hit* — the caller falls back to executing the CGI
//! locally, paying "only the added delay of a request/reply session
//! between the two nodes".
//!
//! The fetch client itself is [`FetchPool`](crate::pool::FetchPool): it
//! keeps connections warm and handles transport failures with a bounded
//! retry loop ([`RetryPolicy`]: jittered exponential backoff). This
//! module holds what it is built from — the outcome type, the policy, and
//! the [`Dialer`] every connection goes through, so the chaos harness
//! (`faults`) can cut, delay or truncate a session deterministically —
//! and the one-shot invalidate request.

use crate::message::Message;
use crate::wire::{write_frame, ProtoError};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use swala_cache::NodeId;

/// Result of a remote fetch attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchOutcome {
    /// Body retrieved from the peer's store.
    Hit { content_type: String, body: Vec<u8> },
    /// Peer no longer has the entry (false hit): execute locally.
    Gone,
    /// Transport failure (peer down, timeout): execute locally.
    Unreachable(String),
    /// Every connection to the peer stayed in use by this node's other
    /// exchanges for the whole timeout: execute locally at once. That is
    /// this node's load, not evidence against the peer, so it is neither
    /// retried nor reported to the health tracker.
    Busy,
}

/// Stream-level fault applied to a [`FaultStream`]'s reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Pass-through (the production configuration).
    None,
    /// Deliver at most this many reply bytes, then EOF — the peer died
    /// mid-write and the frame arrives cut short.
    TruncateReads(usize),
    /// Every read fails with `ConnectionReset` — an RST landed after the
    /// session was established.
    ResetReads,
}

/// A `TcpStream` with an optional injected read fault. The production
/// dialer always wraps with [`StreamFault::None`]; the type exists so a
/// single [`Dialer`] signature covers both clean and chaos transports.
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    fault: StreamFault,
    delivered: usize,
    /// The read/write timeout the socket currently carries, so a pooled
    /// connection pays the two `setsockopt`s once, not per exchange.
    io_timeout: Option<Duration>,
}

impl FaultStream {
    /// Connect and wrap in one step, with `TCP_NODELAY`: every exchange
    /// on a peer connection is a small request awaiting its reply.
    pub fn connect(addr: SocketAddr, timeout: Duration, fault: StreamFault) -> io::Result<Self> {
        let inner = TcpStream::connect_timeout(&addr, timeout)?;
        inner.set_nodelay(true)?;
        Ok(Self::wrap(inner, fault))
    }

    /// Wrap an already-connected stream.
    pub fn wrap(inner: TcpStream, fault: StreamFault) -> Self {
        FaultStream {
            inner,
            fault,
            delivered: 0,
            io_timeout: None,
        }
    }

    /// Bound every read and write on this connection by `timeout`. Free
    /// when the connection already carries that timeout.
    pub fn set_io_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if self.io_timeout != Some(timeout) {
            self.io_timeout = None;
            self.inner.set_read_timeout(Some(timeout))?;
            self.inner.set_write_timeout(Some(timeout))?;
            self.io_timeout = Some(timeout);
        }
        Ok(())
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.fault {
            StreamFault::None => self.inner.read(buf),
            StreamFault::ResetReads => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected: connection reset",
            )),
            StreamFault::TruncateReads(limit) => {
                let remaining = limit.saturating_sub(self.delivered);
                if remaining == 0 {
                    return Ok(0); // injected EOF mid-frame
                }
                let cap = remaining.min(buf.len());
                let n = self.inner.read(&mut buf[..cap])?;
                self.delivered += n;
                Ok(n)
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    /// Forwarded so a frame stays one `writev` (the default would send
    /// its first part only).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.inner.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Opens the request/reply session to a peer. The peer's [`NodeId`] is
/// passed so fault rules can match by destination.
pub type Dialer =
    Arc<dyn Fn(NodeId, SocketAddr, Duration) -> io::Result<FaultStream> + Send + Sync>;

/// The production dialer: plain `TcpStream::connect_timeout`, no faults.
pub fn default_dialer() -> Dialer {
    Arc::new(|_peer, addr, timeout| FaultStream::connect(addr, timeout, StreamFault::None))
}

/// Attempts a remote fetch makes, the first included, before the request
/// executes locally.
///
/// A constant, not a knob: retries absorb a refused or reset connection
/// that would succeed a moment later, within about 100 ms of backoff; a
/// peer that stays down is the health tracker's to quarantine.
pub const FETCH_ATTEMPTS: u32 = 3;

/// Backoff before a fetch's second attempt; it doubles per retry.
///
/// A constant, not a knob: it only spaces retries of one request against
/// one peer, whose failure streak the health tracker already turns into a
/// quarantine. The retry sleep stays on real time: it holds up a request
/// thread, not a timer.
pub const FETCH_BACKOFF: Duration = Duration::from_millis(25);

/// Bounded-retry policy for remote fetches. Backoff is exponential with
/// deterministic jitter: the sleep before attempt `k` (1-based) is
/// `base · 2^(k-1) · (1 + j)` where `j ∈ [0, 0.5)` is derived by hashing
/// `(jitter_seed, attempt)` — no shared RNG state, so concurrent fetches
/// can't perturb each other's schedules and chaos runs replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Seed for the jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: FETCH_ATTEMPTS,
            base_backoff: FETCH_BACKOFF,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// One attempt, no retries — PR 1 behaviour.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Sleep to take after failed attempt `attempt` (1-based).
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let base = self.base_backoff.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        // splitmix64 on (seed, attempt) → jitter fraction in [0, 0.5).
        let mut z = self
            .jitter_seed
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let jitter = exp / 2 * (z % 1024) / 1024;
        Duration::from_micros(exp + jitter)
    }
}

/// Ask the owner `peer` at `addr` to invalidate `key` (application-driven
/// invalidation). Fire-and-forget: the owner announces the resulting
/// deletion to the key's homes. A one-shot dial, not a pooled connection:
/// no reply comes back, so a stale pooled socket would swallow the
/// request without an error.
pub fn request_invalidate(
    dialer: &Dialer,
    peer: NodeId,
    addr: SocketAddr,
    key: &swala_cache::CacheKey,
    timeout: Duration,
) -> Result<(), ProtoError> {
    let mut stream = dialer(peer, addr, timeout)?;
    stream.set_io_timeout(timeout)?;
    write_frame(&mut stream, &Message::encode_invalidate(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::FetchPool;
    use crate::wire::read_frame;
    use std::net::TcpListener;
    use swala_cache::CacheKey;

    /// Fetch through a fresh production client: one dial per attempt, so
    /// what these cases pin is the wire exchange and the retry loop.
    fn fetch_via(
        dialer: &Dialer,
        addr: SocketAddr,
        key: &str,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> (FetchOutcome, u32) {
        FetchPool::new(dialer.clone(), 1).fetch(
            NodeId(1),
            addr,
            &CacheKey::new(key),
            timeout,
            policy,
            None,
        )
    }

    /// One attempt over the default dialer.
    fn fetch_once(addr: SocketAddr, key: &str, timeout: Duration) -> FetchOutcome {
        fetch_via(
            &default_dialer(),
            addr,
            key,
            timeout,
            &RetryPolicy::no_retry(),
        )
        .0
    }

    #[test]
    fn io_timeout_is_carried_and_reset_only_on_change() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conn =
            FaultStream::connect(addr, Duration::from_secs(1), StreamFault::None).unwrap();
        let one = Duration::from_secs(1);
        conn.set_io_timeout(one).unwrap();
        assert_eq!(conn.inner.read_timeout().unwrap(), Some(one));
        assert_eq!(conn.inner.write_timeout().unwrap(), Some(one));
        // Same value again: the socket is not touched (changed behind
        // the wrapper's back, it stays changed).
        conn.inner.set_read_timeout(None).unwrap();
        conn.set_io_timeout(one).unwrap();
        assert_eq!(conn.inner.read_timeout().unwrap(), None);
        // A different value is applied to both directions.
        let two = Duration::from_secs(2);
        conn.set_io_timeout(two).unwrap();
        assert_eq!(conn.inner.read_timeout().unwrap(), Some(two));
        assert_eq!(conn.inner.write_timeout().unwrap(), Some(two));
    }

    /// One-shot fetch server answering from a closure.
    fn fetch_server(
        reply: impl Fn(&CacheKey) -> Message + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let frame = read_frame(&mut s).unwrap().unwrap();
            match Message::decode(&frame).unwrap() {
                Message::FetchRequest { key, .. } => {
                    write_frame(&mut s, &reply(&key).encode()).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        });
        (addr, handle)
    }

    #[test]
    fn fetch_hit() {
        let (addr, h) = fetch_server(|_| Message::FetchHit {
            content_type: "text/html".into(),
            body: b"cached-body".to_vec(),
        });
        let out = fetch_once(addr, "/cgi-bin/x?1", Duration::from_secs(1));
        assert_eq!(
            out,
            FetchOutcome::Hit {
                content_type: "text/html".into(),
                body: b"cached-body".to_vec()
            }
        );
        h.join().unwrap();
    }

    #[test]
    fn fetch_gone_is_false_hit() {
        let (addr, h) = fetch_server(|_| Message::FetchMiss);
        let out = fetch_once(addr, "/cgi-bin/deleted", Duration::from_secs(1));
        assert_eq!(out, FetchOutcome::Gone);
        h.join().unwrap();
    }

    #[test]
    fn fetch_unreachable() {
        let out = fetch_once(
            "127.0.0.1:1".parse().unwrap(),
            "/x",
            Duration::from_millis(200),
        );
        assert!(matches!(out, FetchOutcome::Unreachable(_)));
    }

    #[test]
    fn fetch_peer_closes_without_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            drop(s); // slam the door
        });
        let out = fetch_once(addr, "/x", Duration::from_millis(500));
        assert!(matches!(out, FetchOutcome::Unreachable(_)));
        h.join().unwrap();
    }

    #[test]
    fn unexpected_reply_type_is_unreachable() {
        let (addr, h) = fetch_server(|_| Message::SyncRequest);
        let out = fetch_once(addr, "/x", Duration::from_secs(1));
        assert!(matches!(out, FetchOutcome::Unreachable(_)));
        h.join().unwrap();
    }

    #[test]
    fn requested_key_reaches_server() {
        let (addr, h) = fetch_server(|key| {
            assert_eq!(key.as_str(), "/cgi-bin/echo?k=v");
            Message::FetchMiss
        });
        fetch_once(addr, "/cgi-bin/echo?k=v", Duration::from_secs(1));
        h.join().unwrap();
    }

    #[test]
    fn retry_recovers_after_transient_refusals() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let (addr, h) = fetch_server(|_| Message::FetchMiss);
        let calls2 = Arc::clone(&calls);
        // First two dials fail at connect; the third goes through.
        let dialer: Dialer = Arc::new(move |_peer, a, t| {
            if calls2.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, "flaky"))
            } else {
                FaultStream::connect(a, t, StreamFault::None)
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 9,
        };
        let (out, attempts) = fetch_via(&dialer, addr, "/x", Duration::from_secs(1), &policy);
        assert_eq!(out, FetchOutcome::Gone);
        assert_eq!(attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        h.join().unwrap();
    }

    #[test]
    fn retry_exhaustion_returns_unreachable() {
        let dialer: Dialer =
            Arc::new(|_peer, _a, _t| Err(io::Error::new(io::ErrorKind::ConnectionRefused, "dead")));
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0,
        };
        let (out, attempts) = fetch_via(
            &dialer,
            "127.0.0.1:1".parse().unwrap(),
            "/x",
            Duration::from_millis(100),
            &policy,
        );
        assert!(matches!(out, FetchOutcome::Unreachable(_)));
        assert_eq!(attempts, 3);
    }

    #[test]
    fn gone_is_not_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let (addr, h) = fetch_server(|_| Message::FetchMiss);
        let dialer: Dialer = Arc::new(move |_peer, a, t| {
            calls2.fetch_add(1, Ordering::SeqCst);
            FaultStream::connect(a, t, StreamFault::None)
        });
        let (out, attempts) = fetch_via(
            &dialer,
            addr,
            "/x",
            Duration::from_secs(1),
            &RetryPolicy::default(),
        );
        assert_eq!(out, FetchOutcome::Gone);
        assert_eq!(attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        h.join().unwrap();
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            jitter_seed: 42,
        };
        let b1 = p.backoff_after(1);
        let b2 = p.backoff_after(2);
        let b3 = p.backoff_after(3);
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(15));
        assert!(b2 >= Duration::from_millis(20) && b2 < Duration::from_millis(30));
        assert!(b3 >= Duration::from_millis(40) && b3 < Duration::from_millis(60));
        // Same policy ⇒ same jitter, every time.
        assert_eq!(p.backoff_after(2), b2);
    }

    #[test]
    fn truncated_reply_maps_to_unreachable() {
        let (addr, h) = fetch_server(|_| Message::FetchHit {
            content_type: "text/html".into(),
            body: vec![7u8; 4096],
        });
        // Deliver only 16 reply bytes: mid-frame EOF.
        let dialer: Dialer =
            Arc::new(|_peer, a, t| FaultStream::connect(a, t, StreamFault::TruncateReads(16)));
        let (out, _) = fetch_via(
            &dialer,
            addr,
            "/x",
            Duration::from_secs(1),
            &RetryPolicy::no_retry(),
        );
        assert!(matches!(out, FetchOutcome::Unreachable(_)), "{out:?}");
        h.join().unwrap();
    }
}
