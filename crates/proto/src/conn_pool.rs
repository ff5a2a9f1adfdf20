//! One connection pool for both of a node's ports.
//!
//! Each port is a [`ConnPool`] of its own: a fixed set of threads, no
//! dispatcher, no queue, waiting not in `accept()` but in one epoll that
//! holds the listener, a stop `eventfd` and the *parked* connections
//! (listener and connections one-shot, so each event wakes one thread). A
//! thread serves a connection with blocking reads and writes; when the
//! connection goes idle between messages and no other thread is free to
//! take new work, the thread parks the socket on the epoll and goes back
//! to waiting, so an idle connection costs a map entry instead of a
//! thread. Two rules keep that honest:
//!
//! * **Park only with an empty buffer.** A message that has begun is read
//!   to its end by the thread that saw its first byte (the
//!   [`PatientReader`](crate::PatientReader) rule); only a read that found
//!   nothing, with nothing buffered, can park.
//! * **Linger only while another thread is idle** ([`Port::linger`]).
//!   While some thread sits in `epoll_wait`, waiting for the next message
//!   in a blocking `recv` costs nobody anything and a hot connection never
//!   meets epoll. When none does, the wait is one `recv(MSG_DONTWAIT)` and
//!   then the park: a saturated pool turns itself into a readiness loop.
//!
//! A port's protocol is its [`Service`], which also admits each accepted
//! connection. What else differs between the ports is fixed when the pool
//! is built ([`PortConfig`]): how long a parked connection may stay and how
//! long a blocked write may wait.

use crate::epoll::{self, Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swala_obs::Gauge;

/// Granularity at which a thread lingering on a connection re-checks the
/// stop flag (every accepted socket's read timeout), and the least a
/// thread waits before sweeping deadlines.
pub const READ_TICK: Duration = Duration::from_millis(100);

/// Epoll tokens of the listener and the stop `eventfd`; each park takes
/// the next number above them, so a stale event or deadline names nothing.
const LISTENER_TOKEN: u64 = 0;
const STOP_TOKEN: u64 = 1;

/// One-shot, like the parked connections: one thread hears of a new
/// connection, takes it and re-arms the listener. Level-triggered, every
/// waiting thread woke for every connection (measured on HTTP/1.0
/// one-shot requests: −10 % throughput, +19 % CPU against a pool blocked
/// in `accept()`), and a thread that had just accepted found nobody idle.
const LISTENER_EVENTS: u32 = EPOLLIN | EPOLLONESHOT;

/// A port's protocol: how one of its connections is served.
pub trait Service: Send + Sync + 'static {
    /// Serve `conn` until it closes or goes idle. `true` parks it, which
    /// a service may only ask with nothing of a next message read;
    /// `false` closes it.
    fn serve(&self, conn: &Conn, port: &Port) -> bool;

    /// Hear of each `accept()` that did not just find the queue empty:
    /// return the connection to serve it, or `None` to leave it unserved.
    fn admit(&self, accepted: io::Result<TcpStream>) -> Option<TcpStream>;
}

/// What tells one port's pool from another's, fixed when it is built.
pub struct PortConfig {
    /// Thread `i` is named `{role}-{i}`.
    pub role: &'static str,
    pub threads: usize,
    /// How long a connection may stay parked; `None` keeps it until it
    /// closes or the pool stops.
    pub idle_limit: Option<Duration>,
    /// Every accepted socket's write timeout: a peer that takes nothing of
    /// a reply for this long is dropped, and frees its thread.
    pub write_stall: Duration,
    pub stats: Arc<PoolStats>,
}

/// A pool's gauges and park counter.
#[derive(Default)]
pub struct PoolStats {
    /// Currently-open connections.
    pub open_connections: Arc<Gauge>,
    /// Connections between messages: parked, or lingering on a thread
    /// where the service counts that (HTTP's does).
    pub idle_connections: Arc<Gauge>,
    /// Times a connection was parked. A hot connection never is, so this
    /// staying flat under load is "the hit path never meets epoll".
    pub parks: AtomicU64,
}

impl PoolStats {
    /// Current park count.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

/// An accepted connection, between the threads that serve it.
pub struct Conn {
    pub stream: TcpStream,
    pub peer: String,
}

/// Connections waiting on the epoll for their next message.
#[derive(Default)]
struct Parked {
    conns: HashMap<u64, Conn>,
    /// `(deadline, token)` in parking order. Every park gets the same
    /// idle limit, so that is expiry order too and only the front is ever
    /// examined. Entries whose connection has since been served again stay
    /// behind as tokens the map no longer holds.
    deadlines: VecDeque<(Instant, u64)>,
    next_token: u64,
}

/// A port's shared state: what every pool thread, and every serve call,
/// sees.
pub struct Port {
    listener: TcpListener,
    epoll: Epoll,
    /// Signalled once by `stop` and never drained: level-triggered, it
    /// wakes every thread that waits, now or later.
    stop_fd: EventFd,
    stop: AtomicBool,
    parked: Mutex<Parked>,
    /// One per thread.
    serving: Vec<Slot>,
    /// Threads in `epoll_wait` (or not there yet, or about to be), free to
    /// take whatever comes next. A hint for the linger rule: it publishes
    /// no data, so every access is `Relaxed`.
    idle_threads: AtomicUsize,
    cfg: PortConfig,
}

/// A thread's record of the socket it is serving, for stop to shut down:
/// a thread blocked on a peer that reads nothing then returns at once.
type Slot = Mutex<Option<RawFd>>;

/// A running pool: its threads, joined on drop.
pub struct ConnPool {
    port: Arc<Port>,
    handles: Vec<JoinHandle<()>>,
}

impl ConnPool {
    /// Spawn `cfg.threads` threads serving `listener` with `service`.
    pub fn start<S: Service>(
        listener: TcpListener,
        cfg: PortConfig,
        service: Arc<S>,
    ) -> io::Result<ConnPool> {
        assert!(cfg.threads > 0, "pool must have at least one thread");
        // Best effort: parked connections are cheap enough to hold by the
        // thousand, which takes more descriptors than the usual soft limit
        // and a deeper accept backlog than std's 128, or a connect storm
        // costs its clients SYN retransmits.
        let _ = epoll::raise_nofile_limit();
        let _ = epoll::deepen_backlog(listener.as_raw_fd(), 4096);
        let listener = with_connection_options(listener, cfg.write_stall)?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let stop_fd = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_EVENTS, LISTENER_TOKEN)?;
        epoll.add(stop_fd.raw_fd(), EPOLLIN, STOP_TOKEN)?;
        let (role, threads) = (cfg.role, cfg.threads);
        // Should a spawn fail, dropping `pool` stops and joins what did
        // start.
        let mut pool = ConnPool {
            port: Arc::new(Port {
                listener,
                epoll,
                stop_fd,
                stop: AtomicBool::new(false),
                parked: Mutex::new(Parked {
                    next_token: STOP_TOKEN + 1,
                    ..Parked::default()
                }),
                serving: (0..threads).map(|_| Mutex::new(None)).collect(),
                idle_threads: AtomicUsize::new(threads),
                cfg,
            }),
            handles: Vec::with_capacity(threads),
        };
        for i in 0..threads {
            let port = Arc::clone(&pool.port);
            let service = Arc::clone(&service);
            pool.handles.push(
                std::thread::Builder::new()
                    .name(format!("{role}-{i}"))
                    .spawn(move || port.run(&port.serving[i], &*service))?,
            );
        }
        Ok(pool)
    }

    /// The pool's counters.
    pub fn stats(&self) -> &Arc<PoolStats> {
        &self.port.cfg.stats
    }
}

impl Drop for ConnPool {
    /// Stop accepting, wake every thread, shut down the sockets they
    /// serve, join them, and close what is parked. A thread mid-serve
    /// returns at once, whatever its peer does: its read finds EOF and
    /// its write fails.
    fn drop(&mut self) {
        let port = &self.port;
        port.stop.store(true, Ordering::Release);
        port.stop_fd.signal();
        for slot in &port.serving {
            // Under the slot's lock: its thread clears it before the
            // socket can close, so `fd` is not a number reused since.
            if let Some(fd) = *slot.lock() {
                epoll::shutdown_both(fd);
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let parked = std::mem::take(&mut port.parked.lock().conns);
        for conn in parked.into_values() {
            port.close_parked(conn);
        }
    }
}

/// Set on the listener what every connection needs (Linux hands an
/// accepted socket its listener's options, so a connection costs no
/// `setsockopt` of its own): no Nagle delay on small replies, a
/// [`READ_TICK`] read timeout for a lingering thread to poll the stop flag
/// by, and the port's write timeout. A blocked send that times out reports
/// what it did write; the first to write nothing closes the connection.
/// std only offers the setters on a stream, hence the round trip through
/// the descriptor. A socket that refuses any of them could pin a thread,
/// so the pool does not start on one.
fn with_connection_options(listener: TcpListener, stall: Duration) -> io::Result<TcpListener> {
    let socket = TcpStream::from(OwnedFd::from(listener));
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(READ_TICK))?;
    socket.set_write_timeout(Some(stall))?;
    Ok(TcpListener::from(OwnedFd::from(socket)))
}

impl Port {
    /// Whether the pool is stopping: a service between messages returns,
    /// and one mid-message abandons it.
    pub fn stop_flag(&self) -> &AtomicBool {
        &self.stop
    }

    /// The linger rule, asked before each read that may find a connection
    /// idle: wait on the spot while another thread is idle (`true`);
    /// otherwise make that read one `recv(MSG_DONTWAIT)` (`false`), so
    /// that finding nothing parks the connection.
    pub fn linger(&self, reads: &mut Reads) -> bool {
        let others_idle = self.idle_threads.load(Ordering::Relaxed) > 0;
        reads.nowait = !others_idle;
        others_idle
    }

    /// One pool thread: wait for a connection — new or parked — serve it
    /// until it closes or goes idle, repeat.
    fn run<S: Service>(&self, slot: &Slot, service: &S) {
        let mut events = [EpollEvent { events: 0, data: 0 }];
        loop {
            // Nothing parked: no timeout, so an idle pool makes no timed
            // wake-ups, as threads blocked in `accept()` made none.
            let timeout = self.sweep();
            let ready = self.epoll.wait(&mut events, timeout);
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            self.idle_threads.fetch_sub(1, Ordering::Relaxed);
            match ready {
                Ok(0) => {}
                Ok(_) => {
                    let token = events[0].data;
                    if token == LISTENER_TOKEN {
                        self.accept(slot, service);
                    } else if let Some(conn) = self.unpark(token) {
                        self.serve(conn, slot, service);
                    }
                }
                Err(_) => std::thread::sleep(READ_TICK),
            }
            self.idle_threads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take one connection off the listener, pass the listener on, and
    /// serve the connection if the service admits it.
    fn accept<S: Service>(&self, slot: &Slot, service: &S) {
        let accepted = match self.listener.accept() {
            Ok(accepted) => Some(accepted),
            // The client may have given up already.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => None,
            // EMFILE and friends leave the listener readable: pause rather
            // than spin on it.
            Err(e) => {
                service.admit(Err(e));
                std::thread::sleep(READ_TICK);
                None
            }
        };
        // If more connections are queued another thread hears at once.
        let listener = self.listener.as_raw_fd();
        let _ = self.epoll.modify(listener, LISTENER_EVENTS, LISTENER_TOKEN);
        let admitted = accepted.and_then(|(stream, peer)| Some((service.admit(Ok(stream))?, peer)));
        if let Some((stream, peer)) = admitted {
            self.cfg.stats.open_connections.add(1);
            let peer = peer.to_string();
            self.serve(Conn { stream, peer }, slot, service);
        }
    }

    /// Serve `conn` with its socket in this thread's `slot`. The service
    /// reads the stop flag after the slot is set, so a stop either finds
    /// the socket there or is seen before the first read.
    fn serve<S: Service>(&self, conn: Conn, slot: &Slot, service: &S) {
        *slot.lock() = Some(conn.stream.as_raw_fd());
        let keep = service.serve(&conn, self);
        *slot.lock() = None;
        if keep {
            self.park(conn);
        } else {
            self.close(conn);
        }
    }

    fn close(&self, _conn: Conn) {
        self.cfg.stats.open_connections.sub(1);
    }

    /// Close a connection taken out of the parked map unserved. Closing
    /// the socket takes it off the epoll.
    fn close_parked(&self, conn: Conn) {
        self.cfg.stats.idle_connections.sub(1);
        self.close(conn);
    }

    /// Hand an idle connection to the epoll. The map holds it *before* the
    /// one-shot is armed: the event may fire at once, on another thread,
    /// and that thread must find the connection it names.
    fn park(&self, conn: Conn) {
        let fd = conn.stream.as_raw_fd();
        let token = {
            let parked = &mut *self.parked.lock();
            let token = parked.next_token;
            parked.next_token += 1;
            parked.conns.insert(token, conn);
            if let Some(limit) = self.cfg.idle_limit {
                parked.deadlines.push_back((Instant::now() + limit, token));
                // A connection that parks often leaves its old deadlines
                // behind; drop them once they outnumber the live ones.
                if parked.deadlines.len() > 2 * parked.conns.len() + 64 {
                    let conns = &parked.conns;
                    parked
                        .deadlines
                        .retain(|(_, token)| conns.contains_key(token));
                }
            }
            token
        };
        self.cfg.stats.parks.fetch_add(1, Ordering::Relaxed);
        self.cfg.stats.idle_connections.add(1);
        let armed = self
            .epoll
            .add(fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, token);
        if armed.is_err() {
            if let Some(conn) = self.unpark(token) {
                self.close(conn);
            }
        }
    }

    /// Claim the parked connection an event (or a failed park) names;
    /// `None` when its deadline got there first.
    fn unpark(&self, token: u64) -> Option<Conn> {
        let conn = self.parked.lock().conns.remove(&token)?;
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.cfg.stats.idle_connections.sub(1);
        Some(conn)
    }

    /// Close the parked connections whose idle limit has passed and
    /// return how long the next wait may last: until the oldest remaining
    /// deadline, but no less than a tick, so a run of deadlines is one
    /// wake-up per tick and not one each. Every thread sweeps on its way
    /// into the wait; while all of them are busy or lingering a parked
    /// connection outlives its deadline, which costs its map entry a
    /// little longer and nobody a thread.
    fn sweep(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut expired = Vec::new();
        let timeout = {
            let mut parked = self.parked.lock();
            while let Some(&(deadline, token)) = parked.deadlines.front() {
                if deadline > now && parked.conns.contains_key(&token) {
                    break;
                }
                parked.deadlines.pop_front();
                // Still in the map, so not served since: expired.
                expired.extend(parked.conns.remove(&token));
            }
            let next = parked.deadlines.front();
            next.map(|(deadline, _)| (*deadline - now).max(READ_TICK))
        };
        for conn in expired {
            self.close_parked(conn);
        }
        timeout
    }
}

/// A pooled connection's socket as its service reads it: each read is
/// counted into `count` when one is given, and [`Port::linger`] can make
/// the next read — one read — a `recv(MSG_DONTWAIT)`.
pub struct Reads<'a> {
    stream: &'a TcpStream,
    count: Option<&'a AtomicU64>,
    nowait: bool,
}

impl<'a> Reads<'a> {
    pub fn new(stream: &'a TcpStream, count: Option<&'a AtomicU64>) -> Reads<'a> {
        Reads {
            stream,
            count,
            nowait: false,
        }
    }
}

impl Read for Reads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(count) = self.count {
            count.fetch_add(1, Ordering::Relaxed);
        }
        if std::mem::take(&mut self.nowait) {
            return epoll::recv_nowait(self.stream.as_raw_fd(), buf);
        }
        self.stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_inherit_the_listeners_options() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stall = Duration::from_millis(2500);
        let listener = with_connection_options(listener, stall).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TICK));
        assert_eq!(accepted.write_timeout().unwrap(), Some(stall));
    }

    /// Writes to its connection until a write fails.
    struct Flood;

    impl Service for Flood {
        fn serve(&self, conn: &Conn, _port: &Port) -> bool {
            let chunk = [0u8; 64 * 1024];
            while std::io::Write::write_all(&mut &conn.stream, &chunk).is_ok() {}
            false
        }

        fn admit(&self, accepted: io::Result<TcpStream>) -> Option<TcpStream> {
            accepted.ok()
        }
    }

    /// A thread blocked writing to a peer that reads nothing is freed by
    /// stop, not by its write timeout.
    #[test]
    fn stop_frees_a_thread_blocked_on_a_peer_that_reads_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = PortConfig {
            role: "test-flood",
            threads: 1,
            idle_limit: None,
            write_stall: Duration::from_secs(60),
            stats: Arc::default(),
        };
        let pool = ConnPool::start(listener, cfg, Arc::new(Flood)).unwrap();
        let _silent = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().open_connections.get() == 0 {
            assert!(Instant::now() < deadline, "never accepted");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Long enough for both socket buffers to fill and the write to block.
        std::thread::sleep(Duration::from_millis(300));
        let t0 = Instant::now();
        drop(pool);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }
}
