//! The request-handler thread pool.
//!
//! §4.1: "The request threads in the HTTP module take turns listening on
//! the main port for incoming connections and handling the requests.
//! After receiving a new connection, the request thread is responsible
//! for the request from parsing to completion."
//!
//! The threads and the parked connections are a [`ConnPool`]; this module
//! is the HTTP port's keep-alive request loop, which parks a connection
//! only on [`Fill::Idle`] and drops it after `KEEP_ALIVE_IDLE` idle.
//!
//! A request is parsed where it lies in the connection's read buffer and
//! answered before the buffer moves on ([`respond`]), so its fields are
//! never copied out.

use crate::handler::{handle_request, NodeContext};
use crate::stats::RequestStats;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala_cache::CacheKey;
use swala_http::{try_parse_request, ParseStatus, Request, Response, StatusCode};
use swala_obs::Stage;
use swala_proto::conn_pool::{Conn, ConnPool, Port, PortConfig, Reads, Service, READ_TICK};
use swala_proto::{Fill, PatientReader};

/// A running request pool: dropping it stops accepting, joins its
/// threads and closes what is parked.
pub struct RequestPool {
    _threads: ConnPool,
}

impl RequestPool {
    /// Spawn `size` request threads over `listener`.
    pub fn start(
        listener: TcpListener,
        ctx: Arc<NodeContext>,
        size: usize,
    ) -> io::Result<RequestPool> {
        let cfg = PortConfig {
            role: "swala-request",
            threads: size,
            idle_limit: Some(KEEP_ALIVE_IDLE),
            write_stall: KEEP_ALIVE_IDLE / 2,
            stats: Arc::clone(&ctx.engine_stats),
        };
        let _threads = ConnPool::start(listener, cfg, ctx)?;
        Ok(RequestPool { _threads })
    }
}

/// Idle keep-alive connections are dropped after this long, as 1998
/// servers did — lingering or parked — and a blocked response write
/// waits half as long before it gives up.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Decrements a gauge when dropped, so early returns stay balanced.
struct GaugeGuard<'a>(&'a swala_obs::Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// How waiting for the next request on a connection ended.
enum Next<T> {
    /// A request arrived and `serve` answered it with this.
    Served(T),
    /// Idle with nothing buffered, and waiting here would hold up others.
    Park,
    /// Answer with this status (if any) and close.
    Close(Option<StatusCode>),
}

/// Wait for one whole request and hand it to `serve`, with the instant
/// its first byte was seen. The request borrows the reader's buffer,
/// whose bytes are consumed once `serve` returns. Until its first byte
/// arrives a read timeout is idleness (shutdown and the keep-alive limit
/// are checked each tick, and `linger` — asked before each such read,
/// with the stream to prepare — says whether to keep waiting here or
/// park); after it, the reader keeps reading until the client has stalled
/// for [`KEEP_ALIVE_IDLE`] — answered 408, since restarting the parse
/// would drop bytes already consumed. Pipelined bytes left over by the
/// previous parse are parsed before any read.
fn next_request<R: Read, T>(
    reader: &mut PatientReader<R>,
    idle_connections: &swala_obs::Gauge,
    mut linger: impl FnMut(&mut R) -> bool,
    shutdown: &AtomicBool,
    serve: impl FnOnce(&Request<'_>, Instant) -> T,
) -> Next<T> {
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
                    let served = serve(&request, started);
                    request.recycle();
                    reader.consume(consumed);
                    return Next::Served(served);
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

/// Answer one parsed request on `out`, whose first byte arrived at
/// `started`: the request's one key, its trace, the response, the write,
/// and the trace's end. Returns whether the connection stays open.
///
/// The key text is allocated once and shared by the cache lookup and the
/// trace; the response head is written into the thread's reused buffer.
pub fn respond<W: Write>(
    ctx: &NodeContext,
    req: &Request<'_>,
    started: Instant,
    peer: &str,
    out: &mut W,
) -> bool {
    let keep = req.keep_alive();
    let parse_end = Instant::now();
    let key = CacheKey::new(req.target.cache_key());
    let mut trace = ctx.telemetry.begin_trace(Arc::clone(key.shared()), started);
    trace.record_span(Stage::Parse, started, parse_end);
    let mut resp = handle_request(ctx, req, key, peer, &mut trace);
    resp.version = req.version;
    resp.set_keep_alive(keep);
    let t0 = trace.start_span();
    // A HEAD request takes the GET path; only its body is not written.
    let with_body = req.method.response_has_body();
    let written = resp.write_to(out, with_body);
    trace.end_span(Stage::ResponseWrite, t0);
    if written.is_ok() && with_body {
        RequestStats::add(&ctx.stats.bytes_sent, resp.body.len() as u64);
    }
    ctx.finish_request(peer, req, &resp, trace);
    resp.recycle();
    written.is_ok() && keep
}

/// The HTTP port.
impl Service for NodeContext {
    /// A connection's keep-alive request loop: per request, one read (when
    /// the request arrives whole) and one vectored write.
    fn serve(&self, conn: &Conn, port: &Port) -> bool {
        let ctx = self;
        let peer = conn.peer.as_str();
        let mut reader = PatientReader::new(Reads::new(&conn.stream, Some(&ctx.stats.read_calls)));
        let mut writer = &conn.stream;
        let idle_connections = &ctx.engine_stats.idle_connections;
        let linger = |reads: &mut Reads| port.linger(reads);
        loop {
            let answer = |req: &Request<'_>, started| respond(ctx, req, started, peer, &mut writer);
            match next_request(
                &mut reader,
                idle_connections,
                linger,
                port.stop_flag(),
                answer,
            ) {
                Next::Served(true) => {}
                Next::Served(false) | Next::Close(None) => return false,
                Next::Park => return true,
                Next::Close(Some(status)) => {
                    let mut resp = Response::error(status);
                    resp.set_keep_alive(false);
                    resp.set_server(crate::handler::SERVER_NAME);
                    resp.set_date_now();
                    let _ = resp.write_to(&mut writer, true);
                    return false;
                }
            }
        }
    }

    /// Count the connection, or the failed `accept()`.
    fn admit(&self, accepted: io::Result<TcpStream>) -> Option<TcpStream> {
        let stats = &self.stats;
        RequestStats::bump(if accepted.is_ok() {
            &stats.connections
        } else {
            &stats.accept_errors
        });
        accepted.ok()
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

    /// [`next_request`], serving with an owned copy of the request.
    fn next<R: Read>(
        reader: &mut PatientReader<R>,
        idle_connections: &Gauge,
        linger: impl FnMut(&mut R) -> bool,
        shutdown: &AtomicBool,
    ) -> Next<Request<'static>> {
        next_request(reader, idle_connections, linger, shutdown, |req, _| {
            req.clone().into_owned()
        })
    }

    fn expect_request(next: Next<Request<'static>>) -> Request<'static> {
        match next {
            Next::Served(req) => req,
            Next::Park => panic!("expected a request, got Park"),
            Next::Close(status) => panic!("expected a request, got Close({status:?})"),
        }
    }

    #[test]
    fn a_whole_request_is_one_read_and_a_pipelined_burst_is_one_read_for_all_of_it() {
        let idle = Gauge::new();
        let mut r = reader([Some(GET_A.to_vec())]);
        let req = expect_request(next(&mut r, &idle, LINGER, &running()));
        assert_eq!(req.target.cache_key_string(), "/cgi-bin/a?x=1");
        assert_eq!(r.get_ref().reads(), 1);

        let mut r = reader([Some([GET_A, POST_B, GET_C].concat())]);
        let a = expect_request(next(&mut r, &idle, LINGER, &running()));
        let b = expect_request(next(&mut r, &idle, LINGER, &running()));
        let c = expect_request(next(&mut r, &idle, LINGER, &running()));
        assert_eq!(
            (a.method, b.method, c.target.path.as_str()),
            (Method::Get, Method::Post, "/c.html")
        );
        assert_eq!(b.body, b"hello");
        assert_eq!(r.get_ref().reads(), 1, "the second and third were buffered");
        // Then the client hangs up: a silent close, one more read.
        assert!(matches!(
            next(&mut r, &idle, LINGER, &running()),
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
        expect_request(next(&mut r, &idle, LINGER, &running()));
        assert_eq!(r.get_ref().reads(), ticks);
        // The full limit of silence: closed without a reply, nothing
        // consumed, and the idle gauge is released.
        let mut steps = vec![None; ticks];
        steps.push(Some(GET_A.to_vec()));
        let mut r = reader(steps);
        assert!(matches!(
            next(&mut r, &idle, LINGER, &running()),
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
        assert!(matches!(next(&mut r, &idle, PARK, &running()), Next::Park));
        assert_eq!(r.get_ref().reads(), 1);
        // Readiness: the first request, and the second has begun behind
        // it, so the silence after its head is a stall to ride out.
        expect_request(next(&mut r, &idle, PARK, &running()));
        let b = expect_request(next(&mut r, &idle, PARK, &running()));
        assert_eq!(b.body, b"hello");
        assert!(matches!(next(&mut r, &idle, PARK, &running()), Next::Park));
        assert!(r.buffer().is_empty());
        // Five bytes of a third, then silence: never parked.
        let c = expect_request(next(&mut r, &idle, PARK, &running()));
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
        let parked = next(
            &mut r,
            &idle,
            |_| {
                asked += 1;
                asked < 3
            },
            &running(),
        );
        assert!(matches!(parked, Next::Park));
        assert_eq!((asked, r.get_ref().reads()), (3, 3));
        expect_request(next(&mut r, &idle, PARK, &running()));
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
        let req = expect_request(next(&mut r, &idle, LINGER, &running()));
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
            next(&mut r, &idle, LINGER, &stopping),
            Next::Close(None)
        ));
        assert_eq!(r.get_ref().reads(), 0);
        // Mid-request (the first bytes are already buffered): abandoned
        // at the first timeout, and no 408 — the client did not stall,
        // the server is going away.
        let mut r = reader([Some(GET_A[..9].to_vec()), None, Some(GET_A[9..].to_vec())]);
        assert_eq!(r.fill(KEEP_ALIVE_IDLE, || false).unwrap(), Fill::Data);
        assert!(matches!(
            next(&mut r, &idle, LINGER, &stopping),
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
                next(&mut r, &idle, LINGER, &running()),
                Next::Close(None)
            ));
        }
        let mut r = reader([Some(b"BREW / HTTP/1.0\r\n\r\n".to_vec())]);
        assert!(matches!(
            next(&mut r, &idle, LINGER, &running()),
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
                .map(|h| (h.name.to_string(), h.value.to_string()))
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
                match next(&mut r, &idle, |_| others_idle, &running()) {
                    Next::Served(req) => got.0.push(digest(&req)),
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
