//! The event-driven request engine.
//!
//! The paper's §4.1 pool dedicates a blocking thread to each connection
//! "from parsing to completion" — faithful, but a thread per idle
//! keep-alive client caps concurrency at `pool_size`. This engine keeps
//! the *execution* model (the same [`handle_request`] control flow on a
//! bounded pool of `pool_size` workers) but moves connection I/O onto one
//! readiness-polled loop thread: nonblocking sockets, buffered partial
//! reads, resumable vectored writes, and a per-connection state machine
//! (idle → reading → executing → writing). Ten thousand parked
//! keep-alive connections cost file descriptors, not threads.
//!
//! Observable semantics match the threaded pool byte for byte: the same
//! parser accepts the same wire format; idle connections close silently
//! after [`KEEP_ALIVE_IDLE`](crate::pool::KEEP_ALIVE_IDLE); a mid-request
//! stall earns `408 Request Timeout`; traces, histograms and access-log
//! lines are recorded at the same points with the same contents.
//!
//! Select it with `engine event` in `swala.conf` (or `SWALA_ENGINE=event`);
//! the default remains the paper-faithful threaded pool.

pub mod conn;
pub mod epoll;
pub mod source;
pub mod worker;

use crate::handler::{response_body_allowed, NodeContext};
use crate::pool::{KEEP_ALIVE_IDLE, READ_TICK};
use crate::stats::{EngineStats, RequestStats};
use conn::{Conn, ConnState, FinishMeta, WriteJob, WriteProgress};
use source::{EpollSource, Event, EventSource, Interest, WakeupHandle};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use swala_http::{try_parse_request, ParseStatus, Response, StatusCode};
use swala_obs::Stage;
use worker::{Completion, Job, WorkerPool};

/// Token of the accept socket. Connection tokens start above it.
/// The loop's wait timeout is [`READ_TICK`] — the deadline-sweep
/// granularity, matching the threaded pool's shutdown-poll tick.
const LISTENER_TOKEN: u64 = 0;

/// A running event engine: one loop thread plus `pool_size` workers.
pub struct EventEngine {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: WakeupHandle,
    handle: Option<JoinHandle<()>>,
}

impl EventEngine {
    /// Take over `listener` and serve it until [`shutdown`](Self::shutdown).
    pub fn start(
        listener: TcpListener,
        ctx: Arc<NodeContext>,
        pool_size: usize,
    ) -> io::Result<EventEngine> {
        // Best effort: C10K needs more fds than the usual soft default,
        // and a deeper accept backlog than std's hardcoded 128 so a
        // connect storm doesn't cost clients SYN retransmits.
        let _ = epoll::raise_nofile_limit();
        let _ = epoll::deepen_backlog(listener.as_raw_fd(), 4096);
        let source = EpollSource::new()?;
        Self::start_with_source(listener, ctx, pool_size, source)
    }

    /// Seam for tests: run the identical loop over any event source.
    pub fn start_with_source<S: EventSource>(
        listener: TcpListener,
        ctx: Arc<NodeContext>,
        pool_size: usize,
        mut source: S,
    ) -> io::Result<EventEngine> {
        assert!(pool_size > 0, "worker pool must have at least one thread");
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        source.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)?;
        let waker = source.wakeup_handle();
        let stop = Arc::new(AtomicBool::new(false));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::clone(&ctx.engine_stats);
        let workers = WorkerPool::start(
            pool_size,
            Arc::clone(&ctx),
            Arc::clone(&completions),
            waker.clone(),
            Arc::clone(&stats),
        )?;
        let mut evloop = EventLoop {
            source,
            listener,
            ctx,
            conns: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            completions,
            workers: Some(workers),
            stop: Arc::clone(&stop),
            stats,
        };
        let handle = std::thread::Builder::new()
            .name("swala-event-loop".into())
            .spawn(move || evloop.run())?;
        Ok(EventEngine {
            addr,
            stop,
            waker,
            handle: Some(handle),
        })
    }

    /// The listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the loop and the workers; queued requests still get replies.
    /// Unlike the threaded pool's dial-self dance, stopping here is one
    /// flag store plus an eventfd wakeup.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            self.waker.wake();
            let _ = handle.join();
        }
    }
}

impl Drop for EventEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The loop proper, generic over its readiness source.
struct EventLoop<S: EventSource> {
    source: S,
    listener: TcpListener,
    ctx: Arc<NodeContext>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    completions: Arc<Mutex<Vec<Completion>>>,
    workers: Option<WorkerPool>,
    stop: Arc<AtomicBool>,
    stats: Arc<EngineStats>,
}

impl<S: EventSource> EventLoop<S> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            let _ = self.source.wait(&mut events, READ_TICK);
            self.stats.eventloop_wakeups.fetch_add(1, Ordering::Relaxed);
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            for ev in events.iter().copied() {
                self.dispatch(ev);
            }
            self.drain_completions();
            self.sweep_deadlines();
        }
        self.shutdown_flush();
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        // u64::MAX is the sources' reserved wakeup token; wrapping past
        // it would take centuries, but stay correct anyway.
        self.next_token = self.next_token.wrapping_add(1).max(LISTENER_TOKEN + 1);
        t
    }

    fn dispatch(&mut self, ev: Event) {
        if ev.token == LISTENER_TOKEN {
            self.accept_ready();
            return;
        }
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return; // connection already dropped this tick
        };
        if ev.closed && matches!(conn.state, ConnState::Executing) {
            // Peer died while its request runs. We cannot free the slot
            // until the completion arrives, but ERR/HUP are level-
            // triggered and unmaskable — deregister so the loop does not
            // spin on a corpse.
            conn.dead = true;
            let fd = conn.stream.as_raw_fd();
            let _ = self.source.deregister(fd);
            return;
        }
        if ev.readable {
            self.handle_read(ev.token);
        } else if ev.closed {
            match self.conns.get(&ev.token).map(|c| &c.state) {
                Some(ConnState::Writing(_)) => self.handle_write(ev.token),
                Some(_) => self.drop_conn(ev.token),
                None => {}
            }
        }
        if ev.writable {
            self.handle_write(ev.token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    RequestStats::bump(&self.ctx.stats.connections);
                    // Same socket options as the threaded pool: no Nagle
                    // delay on small keep-alive responses.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.alloc_token();
                    if self
                        .source
                        .register(stream.as_raw_fd(), token, Interest::Read)
                        .is_err()
                    {
                        continue; // dropping the stream closes it
                    }
                    self.stats.open_connections.add(1);
                    self.stats.idle_connections.add(1);
                    self.conns.insert(
                        token,
                        Conn::new(stream, peer.to_string(), Instant::now() + KEEP_ALIVE_IDLE),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: yield this tick; readiness stays
                // level-triggered, so we retry next wakeup.
                Err(_) => break,
            }
        }
    }

    /// Pull whatever the socket has, then try to parse a request.
    fn handle_read(&mut self, token: u64) {
        let now = Instant::now();
        let (mut eof, got) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading { .. }) {
                return;
            }
            let mut eof = false;
            let mut got = 0usize;
            let mut tmp = [0u8; 16 * 1024];
            loop {
                RequestStats::bump(&self.ctx.stats.read_calls);
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&tmp[..n]);
                        got += n;
                        if n < tmp.len() {
                            break; // drained; level-triggering re-reports if not
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true; // reset: same silent close as threaded
                        break;
                    }
                }
            }
            if got > 0 {
                self.stats.conn_buffer_bytes.add(got as u64);
                if conn.is_idle() {
                    // The request has begun: idle wait becomes read stall.
                    self.stats.idle_connections.sub(1);
                    conn.state = ConnState::Reading { started: now };
                }
                // Every byte of progress resets the stall clock, exactly
                // like the threaded pool's per-request read timeout.
                conn.deadline = Some(now + KEEP_ALIVE_IDLE);
            }
            (eof, got)
        };
        if got > 0 {
            // A complete request supersedes a trailing EOF: serve it, and
            // let the next idle-read observe the close (threaded parity —
            // its parser returns the request before seeing EOF).
            if self.try_parse(token) {
                eof = false;
            }
        }
        if eof {
            self.drop_conn(token);
        }
    }

    /// Attempt to parse a buffered request; returns true if one was
    /// dispatched to the workers (or an error reply was started).
    fn try_parse(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let ConnState::Reading { started } = conn.state else {
            return false;
        };
        match try_parse_request(&conn.buf) {
            ParseStatus::Complete { request, consumed } => {
                conn.buf.drain(..consumed);
                self.stats.conn_buffer_bytes.sub(consumed as u64);
                conn.state = ConnState::Executing;
                conn.deadline = None;
                let peer = conn.peer.clone();
                self.sync_interest(token);
                let job = Job {
                    token,
                    req: request,
                    peer,
                    started,
                    parse_end: Instant::now(),
                };
                self.workers
                    .as_ref()
                    .expect("workers live while the loop runs")
                    .submit(job, &self.stats);
                true
            }
            ParseStatus::Partial => false,
            ParseStatus::Error(e) => {
                // Threaded parity: answer if the error maps to a status,
                // then close; otherwise just close.
                self.stats.conn_buffer_bytes.sub(conn.buf.len() as u64);
                conn.buf.clear();
                match e.response_status() {
                    Some(status) => {
                        let mut resp = Response::error(status);
                        resp.set_keep_alive(false);
                        resp.set_server(&self.ctx.server_name);
                        self.start_write(token, WriteJob::new(resp, true, false, None));
                    }
                    None => self.drop_conn(token),
                }
                true
            }
        }
    }

    /// Begin (or resume) writing; tries inline first so a ready socket
    /// never waits a loop tick.
    fn start_write(&mut self, token: u64, job: WriteJob) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Writing(Box::new(job));
            conn.deadline = None;
            self.handle_write(token);
        }
    }

    fn handle_write(&mut self, token: u64) {
        let progress = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ConnState::Writing(job) = &mut conn.state else {
                return;
            };
            job.advance(&mut conn.stream)
        };
        match progress {
            WriteProgress::Done => self.finish_write(token, false),
            WriteProgress::Pending => self.sync_interest(token),
            WriteProgress::Failed => self.finish_write(token, true),
        }
    }

    /// The response is fully written (or undeliverable): record the
    /// ResponseWrite span, finish the trace, write the access-log line,
    /// then keep the connection alive or close it.
    fn finish_write(&mut self, token: u64, failed: bool) {
        let (job, keep, peer) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Placeholder must not be Idle: drop_conn balances the idle
            // gauge off the state, and this connection was never parked.
            let job = match std::mem::replace(&mut conn.state, ConnState::Executing) {
                ConnState::Writing(job) => job,
                other => {
                    conn.state = other;
                    return;
                }
            };
            let keep = job.keep && !failed && !conn.dead;
            (job, keep, conn.peer.clone())
        };
        self.record_finish(&peer, *job);
        if !keep {
            self.drop_conn(token);
            return;
        }
        let now = Instant::now();
        let has_pipelined = {
            let conn = self.conns.get_mut(&token).expect("conn checked above");
            if conn.buf.is_empty() {
                conn.state = ConnState::Idle;
                // Release the request buffer's capacity: a parked
                // keep-alive connection holds no heap.
                conn.buf = Vec::new();
                conn.deadline = Some(now + KEEP_ALIVE_IDLE);
                self.stats.idle_connections.add(1);
                false
            } else {
                conn.state = ConnState::Reading { started: now };
                conn.deadline = Some(now + KEEP_ALIVE_IDLE);
                true
            }
        };
        self.sync_interest(token);
        if has_pipelined {
            self.try_parse(token);
        }
    }

    /// Post-write bookkeeping, identical in order and content to the
    /// threaded pool: span, telemetry finish, access log (with trace
    /// suffix when telemetry produced a summary). 408s and parse-error
    /// replies carry no `FinishMeta` and skip all of it, as threaded does.
    fn record_finish(&self, peer: &str, mut job: WriteJob) {
        if let Some(FinishMeta { req, mut trace }) = job.finish.take() {
            trace.record_span(Stage::ResponseWrite, job.started, Instant::now());
            self.ctx.finish_request(peer, &req, &job.resp, trace);
        }
    }

    /// Start response writes for every request the workers finished.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.completions.lock().unwrap());
        for c in done {
            let Some(conn) = self.conns.get(&c.token) else {
                continue;
            };
            let include_body = response_body_allowed(c.req.method);
            let keep = c.keep && !conn.dead;
            let job = WriteJob::new(
                c.resp,
                include_body,
                keep,
                Some(FinishMeta {
                    req: c.req,
                    trace: c.trace,
                }),
            );
            self.start_write(c.token, job);
        }
    }

    /// Enforce the idle and stall clocks, once per loop tick.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match conn.state {
                // Idle keep-alive expiry: silent close (threaded parity).
                ConnState::Idle => self.drop_conn(token),
                // Mid-request stall: 408, close. No trace, no log line —
                // the request never finished parsing.
                ConnState::Reading { .. } => {
                    self.stats.conn_buffer_bytes.sub(conn.buf.len() as u64);
                    conn.buf.clear();
                    let mut resp = Response::error(StatusCode::REQUEST_TIMEOUT);
                    resp.set_keep_alive(false);
                    resp.set_server(&self.ctx.server_name);
                    self.start_write(token, WriteJob::new(resp, true, false, None));
                }
                // Executing and Writing never carry deadlines.
                _ => {}
            }
        }
    }

    /// Point the source at what the connection's state needs.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = match conn.state {
            ConnState::Idle | ConnState::Reading { .. } => Interest::Read,
            ConnState::Executing => Interest::None,
            ConnState::Writing(_) => Interest::Write,
        };
        if conn.interest != want && !conn.dead {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.source.modify(fd, token, want);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if !conn.dead {
            let _ = self.source.deregister(conn.stream.as_raw_fd());
        }
        self.stats.open_connections.sub(1);
        if conn.is_idle() {
            self.stats.idle_connections.sub(1);
        }
        self.stats.conn_buffer_bytes.sub(conn.buf.len() as u64);
        // Dropping `conn` closes the socket.
    }

    /// Orderly shutdown: workers drain their queue (every accepted
    /// request gets a reply), then remaining responses are flushed with
    /// blocking writes before the sockets close.
    fn shutdown_flush(&mut self) {
        if let Some(workers) = self.workers.take() {
            workers.stop();
        }
        self.drain_completions();
        let writing: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Writing(_)))
            .map(|(t, _)| *t)
            .collect();
        for token in writing {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let _ = conn.stream.set_nonblocking(false);
            let job = match std::mem::replace(&mut conn.state, ConnState::Executing) {
                ConnState::Writing(job) => job,
                other => {
                    conn.state = other;
                    continue;
                }
            };
            let mut job = job;
            let _ = job.advance(&mut conn.stream); // blocking: Done or Failed
            let peer = conn.peer.clone();
            self.record_finish(&peer, *job);
            self.drop_conn(token);
        }
        let remaining: Vec<u64> = self.conns.keys().copied().collect();
        for token in remaining {
            self.drop_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use parking_lot::RwLock;
    use source::FakeSource;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;
    use swala_cache::{CacheManager, CacheManagerConfig, MemStore, NodeId};
    use swala_proto::{
        default_dialer, Broadcaster, FetchPool, HealthConfig, HealthTracker, RetryPolicy,
    };

    /// A minimal single-node context: no docroot, no programs — every
    /// request 404s, which is plenty to exercise the connection machine.
    fn test_ctx() -> Arc<NodeContext> {
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 1,
                local: NodeId(0),
                capacity: 16,
                policy: swala_cache::PolicyKind::Lru,
                rules: swala_cache::CacheRules::allow_all(),
                mem_cache_bytes: 0,
                coalesce: false,
                coalesce_wait: Duration::from_secs(1),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        let telemetry = swala_obs::Telemetry::new(0, 16);
        let stats = Arc::new(RequestStats::new());
        Arc::new(NodeContext {
            node: NodeId(0),
            server_name: "SwalaTest".into(),
            caching_enabled: true,
            fetch_timeout: Duration::from_millis(200),
            docroot: None,
            registry: swala_cgi::ProgramRegistry::new(),
            manager,
            broadcaster: Arc::new(Broadcaster::new(NodeId(0), Vec::new())),
            cache_addrs: RwLock::new(Vec::new()),
            stats,
            telemetry,
            http_port: 0,
            access_log: None,
            dialer: default_dialer(),
            fetch_pool: Arc::new(FetchPool::new(default_dialer(), 1)),
            retry_policy: RetryPolicy {
                max_attempts: 1,
                base_backoff: Duration::from_millis(1),
                jitter_seed: 0,
            },
            health: Arc::new(HealthTracker::new(HealthConfig {
                suspect_after: 1,
                quarantine_after: 3,
                probe_interval: Duration::from_secs(5),
            })),
            engine_stats: EngineStats::new(),
            engine: EngineKind::Event,
            started: std::time::Instant::now(),
            scrape_failures: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, Vec<String>) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut headers = Vec::new();
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length: ") {
                len = v.trim().parse().unwrap();
            }
            headers.push(line);
        }
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(reader, &mut body).unwrap();
        (status.trim_end().to_string(), headers)
    }

    /// Drive the full engine loop from a scripted FakeSource: accept,
    /// keep-alive request/response cycles, interest transitions, close.
    #[test]
    fn fake_source_drives_keep_alive_cycle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let listener_fd = listener.as_raw_fd();
        let ctx = test_ctx();
        let stats = Arc::clone(&ctx.engine_stats);
        let fake = FakeSource::new();
        let driver = fake.clone();
        let engine = EventEngine::start_with_source(listener, ctx, 2, fake).unwrap();

        let client = TcpStream::connect(addr).unwrap();
        driver.push(Event {
            token: LISTENER_TOKEN,
            readable: true,
            writable: false,
            closed: false,
        });
        // Wait for the accept to register the connection (token 1).
        let conn_reg = 'outer: {
            for _ in 0..100 {
                if let Some(op) = driver.ops().iter().find(|(_, t, _)| *t == 1).copied() {
                    break 'outer op;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("connection never registered");
        };
        assert!(matches!(conn_reg.2, Interest::Read));
        assert_eq!(stats.open_connections.get(), 1);
        assert_eq!(stats.idle_connections.get(), 1);

        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        for round in 0..2 {
            writer
                .write_all(b"GET /missing HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            driver.push(Event {
                token: 1,
                readable: true,
                writable: false,
                closed: false,
            });
            let (status, headers) = read_response(&mut reader);
            assert!(status.contains("404"), "round {round}: {status}");
            assert!(
                headers.iter().any(|h| h == "Connection: keep-alive"),
                "round {round}: {headers:?}"
            );
        }
        // Executing switched interest off, then back to Read when idle.
        let ops = driver.ops();
        assert!(
            ops.iter()
                .any(|(_, t, i)| *t == 1 && matches!(i, Interest::None)),
            "no interest-off transition in {ops:?}"
        );
        // The client sees the last response byte before the loop thread
        // re-parks the connection, so poll rather than assert immediately.
        for _ in 0..100 {
            if stats.idle_connections.get() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.idle_connections.get(), 1, "parked between requests");
        assert_eq!(stats.conn_buffer_bytes.get(), 0, "idle holds no buffer");

        // Client closes; the loop observes EOF and frees the slot.
        drop(writer);
        drop(reader);
        driver.push(Event {
            token: 1,
            readable: true,
            writable: false,
            closed: false,
        });
        for _ in 0..100 {
            if stats.open_connections.get() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.open_connections.get(), 0);
        assert_eq!(stats.idle_connections.get(), 0);
        assert!(stats.wakeups() > 0);

        engine.shutdown();
        // The listener deregistration isn't logged; just check the fd was
        // registered at the reserved listener token initially.
        assert!(driver
            .ops()
            .iter()
            .any(|(fd, t, _)| *fd == listener_fd && *t == LISTENER_TOKEN));
    }

    /// Split request delivery: bytes arrive in three fragments, each
    /// signalled separately — the parser must resume, not restart.
    #[test]
    fn fake_source_fragmented_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ctx = test_ctx();
        let fake = FakeSource::new();
        let driver = fake.clone();
        let engine = EventEngine::start_with_source(listener, ctx, 1, fake).unwrap();

        let client = TcpStream::connect(addr).unwrap();
        driver.push(Event {
            token: LISTENER_TOKEN,
            readable: true,
            writable: false,
            closed: false,
        });
        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        for frag in [&b"GET /miss"[..], b"ing HTTP/1.0\r\nHost: x\r", b"\n\r\n"] {
            std::thread::sleep(Duration::from_millis(20));
            writer.write_all(frag).unwrap();
            driver.push(Event {
                token: 1,
                readable: true,
                writable: false,
                closed: false,
            });
        }
        let (status, _) = read_response(&mut reader);
        assert!(status.contains("404"), "{status}");
        engine.shutdown();
    }
}
