//! The request-handler thread pool.
//!
//! §4.1: "The request threads in the HTTP module take turns listening on
//! the main port for incoming connections and handling the requests.
//! After receiving a new connection, the request thread is responsible
//! for the request from parsing to completion."
//!
//! That is implemented literally: `pool_size` threads share one
//! `TcpListener` and each blocks in `accept()` in turn (the kernel hands
//! each connection to exactly one accepter). There is no separate
//! dispatcher thread and no queue — the 1998 design, which also happens
//! to avoid a dispatch hop on the critical path.

use crate::handler::{handle_request, response_body_allowed, NodeContext};
use crate::stats::RequestStats;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swala_http::{try_parse_request, ParseStatus, Request, Response, StatusCode};
use swala_obs::Stage;
use swala_proto::{Fill, PatientReader};

/// A running accept pool.
pub struct RequestPool {
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

impl RequestPool {
    /// Spawn `size` request threads over `listener`.
    pub fn start(
        listener: TcpListener,
        ctx: Arc<NodeContext>,
        size: usize,
    ) -> std::io::Result<RequestPool> {
        assert!(size > 0, "pool must have at least one thread");
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let listener = Arc::new(listener);
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let listener = Arc::clone(&listener);
            let ctx = Arc::clone(&ctx);
            let shutdown = Arc::clone(&shutdown);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("swala-request-{i}"))
                    .spawn(move || request_thread(&listener, &ctx, &shutdown))?,
            );
        }
        Ok(RequestPool {
            shutdown,
            handles,
            addr,
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every thread, and join them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // One dummy self-connection per thread unblocks all accepts.
        // Deliberate: the threads block *inside* `accept()` with no other
        // wakeup channel, and std's TcpListener has no cancellation — a
        // kernel-level wakeup would need nonblocking sockets and a
        // readiness loop, which is exactly what the event engine is. It
        // uses an eventfd instead (see `event::EventEngine::shutdown`).
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
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

/// One pool thread: accept, serve the connection to completion, repeat.
fn request_thread(listener: &TcpListener, ctx: &NodeContext, shutdown: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, peer)) = conn else { continue };
        RequestStats::bump(&ctx.stats.connections);
        serve_connection(stream, &peer.to_string(), ctx, shutdown);
    }
}

/// Idle keep-alive connections are dropped after this long, as 1998
/// servers did, so they cannot pin a pool thread forever. The event
/// engine enforces the same limits from its deadline sweep.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Granularity at which an idle pool thread re-checks the shutdown flag
/// (and the event loop's wait tick / deadline-sweep period).
pub(crate) const READ_TICK: Duration = Duration::from_millis(100);

/// Decrements a gauge when dropped, so early returns stay balanced.
struct GaugeGuard<'a>(&'a swala_obs::Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A connection's socket, counting the reads issued on it into
/// `swala_http_read_calls`.
struct CountedReads<'a>(&'a TcpStream, &'a NodeContext);

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        RequestStats::bump(&self.1.stats.read_calls);
        self.0.read(buf)
    }
}

/// The next request on a connection, and when its first byte was seen.
enum Next {
    Request(Request, Instant),
    /// Answer with this status (if any) and close.
    Close(Option<StatusCode>),
}

/// Wait for one whole request. Until its first byte arrives a read
/// timeout is idleness (shutdown and the keep-alive limit are checked
/// each tick); after it, the reader keeps reading until the client has
/// stalled for [`KEEP_ALIVE_IDLE`] — answered 408, since restarting the
/// parse would drop bytes already consumed. Pipelined bytes left over by
/// the previous parse are parsed before any read.
fn next_request<R: Read>(
    reader: &mut PatientReader<R>,
    idle_connections: &swala_obs::Gauge,
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
        match reader.fill(KEEP_ALIVE_IDLE, stop) {
            Ok(Fill::Data) => {
                started.get_or_insert_with(Instant::now);
                drop(idle_gauge.take());
            }
            Ok(Fill::Idle) => {
                idle += READ_TICK;
                if idle >= KEEP_ALIVE_IDLE {
                    return Next::Close(None);
                }
            }
            // Client closed (between requests or mid-request), or reset.
            Ok(Fill::Closed) => return Next::Close(None),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut && !stop() => {
                return Next::Close(Some(StatusCode::REQUEST_TIMEOUT));
            }
            Err(_) => return Next::Close(None),
        }
    }
}

/// Serve one connection's keep-alive request loop: per request, one read
/// (when the request arrives whole) and one vectored write.
fn serve_connection(stream: TcpStream, peer: &str, ctx: &NodeContext, shutdown: &AtomicBool) {
    ctx.engine_stats.open_connections.add(1);
    let _open = GaugeGuard(&ctx.engine_stats.open_connections);
    let _ = stream.set_nodelay(true);
    // A short read timeout, set once, lets the thread poll the shutdown
    // flag while the connection idles; a socket that refuses it could pin
    // the thread past shutdown, so it is closed instead.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let mut reader = PatientReader::new(CountedReads(&stream, ctx));
    let mut writer = &stream;
    let idle_connections = &ctx.engine_stats.idle_connections;
    loop {
        let (req, attempt_start) = match next_request(&mut reader, idle_connections, shutdown) {
            Next::Request(req, started) => (req, started),
            Next::Close(status) => {
                if let Some(status) = status {
                    let mut resp = Response::error(status);
                    resp.set_keep_alive(false);
                    resp.set_server(&ctx.server_name);
                    let _ = resp.write_to(&mut writer, true);
                }
                return;
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
            return;
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

    fn expect_request(next: Next) -> Request {
        match next {
            Next::Request(req, _) => req,
            Next::Close(status) => panic!("expected a request, got Close({status:?})"),
        }
    }

    #[test]
    fn a_whole_request_is_one_read_and_a_pipelined_burst_is_one_read_for_all_of_it() {
        let idle = Gauge::new();
        let mut r = reader([Some(GET_A.to_vec())]);
        let req = expect_request(next_request(&mut r, &idle, &running()));
        assert_eq!(req.target.cache_key_string(), "/cgi-bin/a?x=1");
        assert_eq!(r.get_ref().reads(), 1);

        let mut r = reader([Some([GET_A, POST_B, GET_C].concat())]);
        let a = expect_request(next_request(&mut r, &idle, &running()));
        let b = expect_request(next_request(&mut r, &idle, &running()));
        let c = expect_request(next_request(&mut r, &idle, &running()));
        assert_eq!(
            (a.method, b.method, c.target.path.as_str()),
            (Method::Get, Method::Post, "/c.html")
        );
        assert_eq!(b.body, b"hello");
        assert_eq!(r.get_ref().reads(), 1, "the second and third were buffered");
        // Then the client hangs up: a silent close, one more read.
        assert!(matches!(
            next_request(&mut r, &idle, &running()),
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
        expect_request(next_request(&mut r, &idle, &running()));
        assert_eq!(r.get_ref().reads(), ticks);
        // The full limit of silence: closed without a reply, nothing
        // consumed, and the idle gauge is released.
        let mut steps = vec![None; ticks];
        steps.push(Some(GET_A.to_vec()));
        let mut r = reader(steps);
        assert!(matches!(
            next_request(&mut r, &idle, &running()),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), ticks);
        assert!(r.buffer().is_empty());
        assert_eq!(idle.get(), 0);
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
        let req = expect_request(next_request(&mut r, &idle, &running()));
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
            next_request(&mut r, &idle, &stopping),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), 0);
        // Mid-request (the first bytes are already buffered): abandoned
        // at the first timeout, and no 408 — the client did not stall,
        // the server is going away.
        let mut r = reader([Some(GET_A[..9].to_vec()), None, Some(GET_A[9..].to_vec())]);
        assert_eq!(r.fill(KEEP_ALIVE_IDLE, || false).unwrap(), Fill::Data);
        assert!(matches!(
            next_request(&mut r, &idle, &stopping),
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
                next_request(&mut r, &idle, &running()),
                Next::Close(None)
            ));
        }
        let mut r = reader([Some(b"BREW / HTTP/1.0\r\n\r\n".to_vec())]);
        assert!(matches!(
            next_request(&mut r, &idle, &running()),
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
        #[test]
        fn every_split_of_a_request_stream_parses_like_the_whole(
            requests in proptest::collection::vec(request_strategy(), 1..5),
            torn in 0usize..40,
            cuts in proptest::collection::vec(0usize..600, 0..10),
            timeouts in proptest::collection::vec(0usize..14, 0..5),
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
                match next_request(&mut r, &idle, &running()) {
                    Next::Request(req, _) => got.0.push(digest(&req)),
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
