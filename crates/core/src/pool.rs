//! The request-handler thread pool.
//!
//! §4.1: "The request threads in the HTTP module take turns listening on
//! the main port for incoming connections and handling the requests.
//! After receiving a new connection, the request thread is responsible
//! for the request from parsing to completion."
//!
//! That is implemented literally — `pool_size` threads, no dispatcher, no
//! queue — with one change to where the threads wait: not in `accept()`
//! but in one shared epoll that holds the listener, a stop `eventfd` and
//! the *parked* connections (listener and connections one-shot, so each
//! event wakes one thread). A thread serves a connection with blocking
//! reads and writes exactly as the 1998 design did; when the connection
//! goes idle between keep-alive requests and no other thread is free to
//! take new work, the thread parks the socket on the epoll and goes back
//! to waiting, so idle clients cost a map entry instead of a thread.
//! Two rules keep that honest:
//!
//! * **Park only with an empty buffer.** A request that has begun is read
//!   to its end by the thread that saw its first byte (the
//!   [`PatientReader`] rule); only [`Fill::Idle`] — a read that found
//!   nothing, with nothing buffered — can park.
//! * **Linger only while another thread is idle.** While some thread sits
//!   in `epoll_wait`, waiting for the next request in a blocking `recv`
//!   costs nobody anything and a hot connection never meets epoll. When
//!   none does, the wait is one `recv(MSG_DONTWAIT)` and then the park:
//!   a saturated pool turns itself into a readiness loop.

use crate::epoll::{self, Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};
use crate::handler::{handle_request, response_body_allowed, NodeContext};
use crate::stats::RequestStats;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swala_http::{try_parse_request, ParseStatus, Request, Response, StatusCode};
use swala_obs::Stage;
use swala_proto::{Fill, PatientReader};

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

/// A running request pool.
pub struct RequestPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

/// An accepted connection, between the threads that serve it.
struct Conn {
    stream: TcpStream,
    peer: String,
}

/// Connections waiting on the epoll for their next request.
struct Parked {
    conns: HashMap<u64, Conn>,
    /// `(deadline, token)` in parking order. Every park gets the same
    /// [`KEEP_ALIVE_IDLE`], so that is expiry order too and only the front
    /// is ever examined. Entries whose connection has since been served
    /// again stay behind as tokens the map no longer holds.
    deadlines: VecDeque<(Instant, u64)>,
    next_token: u64,
}

/// What the pool's threads share.
struct Shared {
    listener: TcpListener,
    ctx: Arc<NodeContext>,
    epoll: Epoll,
    /// Signalled once by `stop` and never drained: level-triggered, it
    /// wakes every thread that waits, now or later.
    stop_fd: EventFd,
    stop: AtomicBool,
    parked: Mutex<Parked>,
    /// Threads in `epoll_wait` (or not there yet, or about to be), free to
    /// take whatever comes next. A hint for the linger rule: it publishes
    /// no data, so every access is `Relaxed`.
    idle_threads: AtomicUsize,
}

impl RequestPool {
    /// Spawn `size` request threads over `listener`.
    pub fn start(
        listener: TcpListener,
        ctx: Arc<NodeContext>,
        size: usize,
    ) -> io::Result<RequestPool> {
        assert!(size > 0, "pool must have at least one thread");
        let addr = listener.local_addr()?;
        // Best effort: parked connections are cheap enough to hold by the
        // thousand, which takes more descriptors than the usual soft limit
        // and a deeper accept backlog than std's 128, or a connect storm
        // costs its clients SYN retransmits.
        let _ = epoll::raise_nofile_limit();
        let _ = epoll::deepen_backlog(listener.as_raw_fd(), 4096);
        let listener = with_connection_options(listener)?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let stop_fd = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_EVENTS, LISTENER_TOKEN)?;
        epoll.add(stop_fd.raw_fd(), EPOLLIN, STOP_TOKEN)?;
        let shared = Arc::new(Shared {
            listener,
            ctx,
            epoll,
            stop_fd,
            stop: AtomicBool::new(false),
            parked: Mutex::new(Parked {
                conns: HashMap::new(),
                deadlines: VecDeque::new(),
                next_token: STOP_TOKEN + 1,
            }),
            idle_threads: AtomicUsize::new(size),
        });
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("swala-request-{i}"))
                    .spawn(move || shared.request_thread())?,
            );
        }
        Ok(RequestPool {
            shared,
            handles,
            addr,
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every thread, join them, and close what is
    /// parked.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.stop_fd.signal();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let parked = std::mem::take(&mut self.shared.parked.lock().conns);
        for conn in parked.into_values() {
            self.shared.close_parked(conn);
        }
    }
}

impl Drop for RequestPool {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop();
        }
    }
}

/// Set on the listener what every connection needs: Linux hands an
/// accepted socket its listener's options, so a connection costs no
/// `setsockopt` of its own. No Nagle delay on small keep-alive responses;
/// a short read timeout, so a thread lingering on a connection polls the
/// stop flag; and a write timeout, which bounds a client that stops
/// reading its response — a blocked send that times out reports what it
/// did write, and the first one to have written nothing closes the
/// connection. (The listener itself never blocks, so the timeouts mean
/// nothing to it; std only offers the setters on a stream, hence the
/// round trip through the descriptor.) A socket that refuses any of them
/// could pin a thread, so the pool does not start on one.
fn with_connection_options(listener: TcpListener) -> io::Result<TcpListener> {
    let socket = TcpStream::from(OwnedFd::from(listener));
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(READ_TICK))?;
    socket.set_write_timeout(Some(KEEP_ALIVE_IDLE / 2))?;
    Ok(TcpListener::from(OwnedFd::from(socket)))
}

impl Shared {
    /// One pool thread: wait for a connection — new or parked — serve it
    /// until it closes or goes idle, repeat.
    fn request_thread(&self) {
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
                        self.accept();
                    } else if let Some(conn) = self.unpark(token) {
                        self.serve(conn);
                    }
                }
                Err(_) => std::thread::sleep(READ_TICK),
            }
            self.idle_threads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take one connection off the listener, pass the listener on, and
    /// serve the connection.
    fn accept(&self) {
        let accepted = self.listener.accept();
        if let Err(e) = &accepted {
            // The client may have given up already (`WouldBlock`). Anything
            // else — EMFILE and friends — leaves the listener readable:
            // pause rather than spin on it.
            if !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ) {
                RequestStats::bump(&self.ctx.stats.accept_errors);
                std::thread::sleep(READ_TICK);
            }
        }
        // If more connections are queued another thread hears at once.
        let listener = self.listener.as_raw_fd();
        let _ = self.epoll.modify(listener, LISTENER_EVENTS, LISTENER_TOKEN);
        let Ok((stream, peer)) = accepted else { return };
        RequestStats::bump(&self.ctx.stats.connections);
        self.ctx.engine_stats.open_connections.add(1);
        self.serve(Conn {
            stream,
            peer: peer.to_string(),
        });
    }

    fn serve(&self, conn: Conn) {
        if serve_connection(&conn, self) {
            self.park(conn);
        } else {
            self.close(conn);
        }
    }

    fn close(&self, conn: Conn) {
        self.ctx.engine_stats.open_connections.sub(1);
        drop(conn);
    }

    /// Close a connection taken out of the parked map unserved. Closing
    /// the socket takes it off the epoll.
    fn close_parked(&self, conn: Conn) {
        self.ctx.engine_stats.idle_connections.sub(1);
        self.close(conn);
    }

    /// Hand an idle connection to the epoll. The map holds it *before* the
    /// one-shot is armed: the event may fire at once, on another thread,
    /// and that thread must find the connection it names.
    fn park(&self, conn: Conn) {
        let fd = conn.stream.as_raw_fd();
        let stats = &self.ctx.engine_stats;
        let token = {
            let mut parked = self.parked.lock();
            let Parked {
                conns,
                deadlines,
                next_token,
            } = &mut *parked;
            let token = *next_token;
            *next_token += 1;
            conns.insert(token, conn);
            deadlines.push_back((Instant::now() + KEEP_ALIVE_IDLE, token));
            // A connection that parks often leaves its old deadlines
            // behind; drop them once they outnumber the live ones.
            if deadlines.len() > 2 * conns.len() + 64 {
                deadlines.retain(|(_, token)| conns.contains_key(token));
            }
            token
        };
        stats.parks.fetch_add(1, Ordering::Relaxed);
        stats.idle_connections.add(1);
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
        self.ctx.engine_stats.idle_connections.sub(1);
        Some(conn)
    }

    /// Close the parked connections whose keep-alive limit has passed and
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

/// Idle keep-alive connections are dropped after this long, as 1998
/// servers did — lingering or parked — and a blocked response write
/// waits half as long before it gives up.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Granularity at which a thread lingering on a connection re-checks the
/// stop flag, and the least a thread waits before sweeping deadlines.
pub(crate) const READ_TICK: Duration = Duration::from_millis(100);

/// Decrements a gauge when dropped, so early returns stay balanced.
struct GaugeGuard<'a>(&'a swala_obs::Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A connection's socket, counting the reads issued on it into
/// `swala_http_read_calls`. `nowait` makes the next read — one read — a
/// `recv(MSG_DONTWAIT)`.
struct CountedReads<'a> {
    stream: &'a TcpStream,
    ctx: &'a NodeContext,
    nowait: bool,
}

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        RequestStats::bump(&self.ctx.stats.read_calls);
        if std::mem::take(&mut self.nowait) {
            return epoll::recv_nowait(self.stream.as_raw_fd(), buf);
        }
        self.stream.read(buf)
    }
}

/// The next request on a connection, and when its first byte was seen.
enum Next {
    Request(Request, Instant),
    /// Idle with nothing buffered, and waiting here would hold up others.
    Park,
    /// Answer with this status (if any) and close.
    Close(Option<StatusCode>),
}

/// Wait for one whole request. Until its first byte arrives a read
/// timeout is idleness (shutdown and the keep-alive limit are checked
/// each tick, and `linger` — asked before each such read, with the stream
/// to prepare — says whether to keep waiting here or park); after it, the
/// reader keeps reading until the client has stalled for
/// [`KEEP_ALIVE_IDLE`] — answered 408, since restarting the parse would
/// drop bytes already consumed. Pipelined bytes left over by the previous
/// parse are parsed before any read.
fn next_request<R: Read>(
    reader: &mut PatientReader<R>,
    idle_connections: &swala_obs::Gauge,
    mut linger: impl FnMut(&mut R) -> bool,
    shutdown: &AtomicBool,
) -> Next {
    let stop = || shutdown.load(Ordering::Acquire);
    let mut started = (!reader.buffer().is_empty()).then(Instant::now);
    let mut idle_gauge = started.is_none().then(|| {
        idle_connections.add(1);
        GaugeGuard(idle_connections)
    });
    let mut idle = Duration::ZERO;
    loop {
        if let Some(started) = started {
            match try_parse_request(reader.buffer()) {
                ParseStatus::Complete { request, consumed } => {
                    reader.consume(consumed);
                    return Next::Request(request, started);
                }
                ParseStatus::Partial => {}
                ParseStatus::Error(e) => return Next::Close(e.response_status()),
            }
        } else if stop() {
            return Next::Close(None);
        }
        // Mid-message the read must block: a request that has begun is
        // never parked.
        let lingering = started.is_some() || linger(reader.get_mut());
        match reader.fill(KEEP_ALIVE_IDLE, stop) {
            Ok(Fill::Data) => {
                started.get_or_insert_with(Instant::now);
                drop(idle_gauge.take());
            }
            Ok(Fill::Idle) if !lingering => return Next::Park,
            Ok(Fill::Idle) => {
                idle += READ_TICK;
                if idle >= KEEP_ALIVE_IDLE {
                    return Next::Close(None);
                }
            }
            // Client closed (between requests or mid-request), or reset.
            Ok(Fill::Closed) => return Next::Close(None),
            Err(e) if e.kind() == io::ErrorKind::TimedOut && !stop() => {
                return Next::Close(Some(StatusCode::REQUEST_TIMEOUT));
            }
            Err(_) => return Next::Close(None),
        }
    }
}

/// Serve a connection's keep-alive request loop: per request, one read
/// (when the request arrives whole) and one vectored write. Returns
/// whether the connection went idle and is to be parked; otherwise it is
/// finished.
fn serve_connection(conn: &Conn, pool: &Shared) -> bool {
    let ctx = &*pool.ctx;
    let peer = conn.peer.as_str();
    let mut reader = PatientReader::new(CountedReads {
        stream: &conn.stream,
        ctx,
        nowait: false,
    });
    let mut writer = &conn.stream;
    let idle_connections = &ctx.engine_stats.idle_connections;
    let linger = |reads: &mut CountedReads| {
        let others_idle = pool.idle_threads.load(Ordering::Relaxed) > 0;
        reads.nowait = !others_idle;
        others_idle
    };
    loop {
        let (req, attempt_start) =
            match next_request(&mut reader, idle_connections, linger, &pool.stop) {
                Next::Request(req, started) => (req, started),
                Next::Park => return true,
                Next::Close(status) => {
                    if let Some(status) = status {
                        let mut resp = Response::error(status);
                        resp.set_keep_alive(false);
                        resp.set_server(crate::handler::SERVER_NAME);
                        let _ = resp.write_to(&mut writer, true);
                    }
                    return false;
                }
            };
        let keep = req.keep_alive();
        let parse_end = Instant::now();
        let target = req.target.cache_key_string();
        let mut trace = ctx.telemetry.begin_trace(&target, attempt_start);
        trace.record_span(Stage::Parse, attempt_start, parse_end);
        let mut resp = handle_request(ctx, &req, &target, peer, &mut trace);
        resp.version = req.version;
        resp.set_keep_alive(keep);
        let t0 = trace.start_span();
        let written = resp.write_to(&mut writer, response_body_allowed(req.method));
        trace.end_span(Stage::ResponseWrite, t0);
        ctx.finish_request(peer, &req, &resp, trace);
        if written.is_err() || !keep {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swala_http::Method;
    use swala_obs::Gauge;
    use swala_proto::reader::Script;

    const GET_A: &[u8] = b"GET /cgi-bin/a?x=1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    const POST_B: &[u8] = b"POST /cgi-bin/b HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
    const GET_C: &[u8] = b"GET /c.html HTTP/1.1\r\nHost: n\r\n\r\n";

    fn reader(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> PatientReader<Script> {
        PatientReader::new(Script::new(steps))
    }

    fn running() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// Another thread is idle: wait for the next request on the spot.
    const LINGER: fn(&mut Script) -> bool = |_| true;
    /// None is: a read that finds nothing parks the connection.
    const PARK: fn(&mut Script) -> bool = |_| false;

    fn expect_request(next: Next) -> Request {
        match next {
            Next::Request(req, _) => req,
            Next::Park => panic!("expected a request, got Park"),
            Next::Close(status) => panic!("expected a request, got Close({status:?})"),
        }
    }

    #[test]
    fn accepted_connections_inherit_the_listeners_options() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener = with_connection_options(listener).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TICK));
        assert_eq!(accepted.write_timeout().unwrap(), Some(KEEP_ALIVE_IDLE / 2));
    }

    #[test]
    fn a_whole_request_is_one_read_and_a_pipelined_burst_is_one_read_for_all_of_it() {
        let idle = Gauge::new();
        let mut r = reader([Some(GET_A.to_vec())]);
        let req = expect_request(next_request(&mut r, &idle, LINGER, &running()));
        assert_eq!(req.target.cache_key_string(), "/cgi-bin/a?x=1");
        assert_eq!(r.get_ref().reads(), 1);

        let mut r = reader([Some([GET_A, POST_B, GET_C].concat())]);
        let a = expect_request(next_request(&mut r, &idle, LINGER, &running()));
        let b = expect_request(next_request(&mut r, &idle, LINGER, &running()));
        let c = expect_request(next_request(&mut r, &idle, LINGER, &running()));
        assert_eq!(
            (a.method, b.method, c.target.path.as_str()),
            (Method::Get, Method::Post, "/c.html")
        );
        assert_eq!(b.body, b"hello");
        assert_eq!(r.get_ref().reads(), 1, "the second and third were buffered");
        // Then the client hangs up: a silent close, one more read.
        assert!(matches!(
            next_request(&mut r, &idle, LINGER, &running()),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), 2);
        assert_eq!(idle.get(), 0);
    }

    #[test]
    fn timeouts_before_the_first_byte_are_idleness_up_to_the_keep_alive_limit() {
        let ticks = (KEEP_ALIVE_IDLE.as_millis() / READ_TICK.as_millis()) as usize;
        let idle = Gauge::new();
        // One tick short of the limit, then the request: served.
        let mut steps = vec![None; ticks - 1];
        steps.push(Some(GET_A.to_vec()));
        let mut r = reader(steps);
        expect_request(next_request(&mut r, &idle, LINGER, &running()));
        assert_eq!(r.get_ref().reads(), ticks);
        // The full limit of silence: closed without a reply, nothing
        // consumed, and the idle gauge is released.
        let mut steps = vec![None; ticks];
        steps.push(Some(GET_A.to_vec()));
        let mut r = reader(steps);
        assert!(matches!(
            next_request(&mut r, &idle, LINGER, &running()),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), ticks);
        assert!(r.buffer().is_empty());
        assert_eq!(idle.get(), 0);
    }

    #[test]
    fn with_no_idle_thread_a_read_that_finds_nothing_parks_but_only_between_requests() {
        let idle = Gauge::new();
        let mut steps = vec![
            None,
            Some([GET_A, &POST_B[..20]].concat()),
            None,
            Some(POST_B[20..].to_vec()),
            None,
        ];
        steps.push(Some(GET_C[..5].to_vec()));
        steps.extend(vec![None; 3]);
        steps.push(Some(GET_C[5..].to_vec()));
        let mut r = reader(steps);
        // Nothing yet: parked after the one read, nothing consumed.
        assert!(matches!(
            next_request(&mut r, &idle, PARK, &running()),
            Next::Park
        ));
        assert_eq!(r.get_ref().reads(), 1);
        // Readiness: the first request, and the second has begun behind
        // it, so the silence after its head is a stall to ride out.
        expect_request(next_request(&mut r, &idle, PARK, &running()));
        let b = expect_request(next_request(&mut r, &idle, PARK, &running()));
        assert_eq!(b.body, b"hello");
        assert!(matches!(
            next_request(&mut r, &idle, PARK, &running()),
            Next::Park
        ));
        assert!(r.buffer().is_empty());
        // Five bytes of a third, then silence: never parked.
        let c = expect_request(next_request(&mut r, &idle, PARK, &running()));
        assert_eq!(c.target.path.as_str(), "/c.html");
        assert_eq!(idle.get(), 0);
    }

    #[test]
    fn the_thread_situation_is_asked_before_every_idle_read() {
        // Lingering while others are idle, parked as soon as none is: the
        // tick that was waited counts, the park consumes nothing.
        let idle = Gauge::new();
        let mut r = reader([None, None, None, Some(GET_A.to_vec())]);
        let mut asked = 0;
        let next = next_request(
            &mut r,
            &idle,
            |_| {
                asked += 1;
                asked < 3
            },
            &running(),
        );
        assert!(matches!(next, Next::Park));
        assert_eq!((asked, r.get_ref().reads()), (3, 3));
        expect_request(next_request(&mut r, &idle, PARK, &running()));
    }

    #[test]
    fn timeouts_after_the_first_byte_keep_reading() {
        // Far more mid-request ticks than the idle limit allows between
        // requests: they are a stall being ridden out (the clock decides
        // when to give up — `engine_tests::stalled_partial_request_gets_408`),
        // never idleness, so the request still parses.
        let idle = Gauge::new();
        let mut steps = vec![Some(GET_A[..9].to_vec())];
        steps.extend(vec![None; 200]);
        steps.push(Some(GET_A[9..30].to_vec()));
        steps.push(None);
        steps.push(Some(GET_A[30..].to_vec()));
        let mut r = reader(steps);
        let req = expect_request(next_request(&mut r, &idle, LINGER, &running()));
        assert_eq!(req.target.cache_key_string(), "/cgi-bin/a?x=1");
        assert_eq!(idle.get(), 0, "a request in progress is not idle");
    }

    #[test]
    fn shutdown_closes_silently_idle_or_mid_request() {
        let idle = Gauge::new();
        let stopping = AtomicBool::new(true);
        // Idle: not even a read is issued.
        let mut r = reader([Some(GET_A.to_vec())]);
        assert!(matches!(
            next_request(&mut r, &idle, LINGER, &stopping),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), 0);
        // Mid-request (the first bytes are already buffered): abandoned
        // at the first timeout, and no 408 — the client did not stall,
        // the server is going away.
        let mut r = reader([Some(GET_A[..9].to_vec()), None, Some(GET_A[9..].to_vec())]);
        assert_eq!(r.fill(KEEP_ALIVE_IDLE, || false).unwrap(), Fill::Data);
        assert!(matches!(
            next_request(&mut r, &idle, LINGER, &stopping),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), 2);
    }

    #[test]
    fn eof_is_silent_and_a_malformed_request_is_answered() {
        let idle = Gauge::new();
        for wire in [&b""[..], &GET_A[..20]] {
            let mut r = reader([Some(wire.to_vec())]);
            assert!(matches!(
                next_request(&mut r, &idle, LINGER, &running()),
                Next::Close(None)
            ));
        }
        let mut r = reader([Some(b"BREW / HTTP/1.0\r\n\r\n".to_vec())]);
        assert!(matches!(
            next_request(&mut r, &idle, LINGER, &running()),
            Next::Close(Some(StatusCode::NOT_IMPLEMENTED))
        ));
    }

    fn request_strategy() -> impl Strategy<Value = Vec<u8>> {
        (
            prop_oneof![Just("GET"), Just("HEAD"), Just("POST")],
            "[a-z0-9/._%-]{0,24}",
            proptest::option::of("[a-z0-9=&+%]{0,16}"),
            prop_oneof![
                Just("HTTP/1.0"),
                Just("HTTP/1.1"),
                Just("HTTP/2.0"),
                Just("")
            ],
            proptest::collection::vec(("[A-Za-z-]{1,12}", "[ -~]{0,24}"), 0..5),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
            prop_oneof![Just("\r\n"), Just("\n")],
        )
            .prop_map(|(method, path, query, version, headers, body, eol)| {
                let mut wire = format!("{method} /{path}");
                if let Some(q) = query {
                    wire.push_str(&format!("?{q}"));
                }
                wire.push_str(&format!(" {version}{eol}"));
                for (name, value) in headers {
                    wire.push_str(&format!("{name}: {value}{eol}"));
                }
                let body = body.unwrap_or_default();
                if !body.is_empty() {
                    wire.push_str(&format!("Content-Length: {}{eol}", body.len()));
                }
                wire.push_str(eol);
                [wire.as_bytes(), &body].concat()
            })
    }

    /// What a connection yields: the requests served, then how it ends.
    type Served = (Vec<(String, Vec<(String, String)>, Vec<u8>)>, Option<u16>);

    fn digest(req: &Request) -> (String, Vec<(String, String)>, Vec<u8>) {
        (
            format!(
                "{} {} {}",
                req.method.as_str(),
                req.target,
                req.version.as_str()
            ),
            req.headers
                .iter()
                .map(|h| (h.name.clone(), h.value.clone()))
                .collect(),
            req.body.clone(),
        )
    }

    proptest! {
        /// `try_parse_request` over the whole byte stream is the oracle:
        /// however the stream is split into segments and wherever reads
        /// time out, the connection loop serves the same requests in the
        /// same order and ends the same way (silent close, or the same
        /// error status) — including after malformed and torn requests.
        /// With no idle thread the timeouts between requests park the
        /// connection instead, only ever with an empty buffer, and being
        /// served again picks the stream up where it was.
        #[test]
        fn every_split_of_a_request_stream_parses_like_the_whole(
            requests in proptest::collection::vec(request_strategy(), 1..5),
            torn in 0usize..40,
            cuts in proptest::collection::vec(0usize..600, 0..10),
            timeouts in proptest::collection::vec(0usize..14, 0..5),
            others_idle in any::<bool>(),
        ) {
            let mut wire = requests.concat();
            wire.truncate(wire.len().saturating_sub(torn.saturating_sub(20)));

            let mut rest = &wire[..];
            let mut expected: Served = (Vec::new(), None);
            loop {
                match try_parse_request(rest) {
                    ParseStatus::Complete { request, consumed } => {
                        expected.0.push(digest(&request));
                        rest = &rest[consumed..];
                    }
                    ParseStatus::Partial => break,
                    ParseStatus::Error(e) => {
                        expected.1 = e.response_status().map(|s| s.0);
                        break;
                    }
                }
            }

            let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < wire.len()).collect();
            cuts.extend([0, wire.len()]);
            cuts.sort_unstable();
            cuts.dedup();
            let mut steps: Vec<Option<Vec<u8>>> =
                cuts.windows(2).map(|w| Some(wire[w[0]..w[1]].to_vec())).collect();
            for at in timeouts {
                steps.insert(at.min(steps.len()), None);
            }
            let mut r = PatientReader::with_capacity(32, Script::new(steps));
            let idle = Gauge::new();
            let mut got: Served = (Vec::new(), None);
            loop {
                match next_request(&mut r, &idle, |_| others_idle, &running()) {
                    Next::Request(req, _) => got.0.push(digest(&req)),
                    Next::Park => {
                        prop_assert!(!others_idle);
                        prop_assert!(r.buffer().is_empty());
                    }
                    Next::Close(status) => {
                        got.1 = status.map(|s| s.0);
                        break;
                    }
                }
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(idle.get(), 0);
        }
    }
}
