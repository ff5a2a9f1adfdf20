//! Outgoing peer links and the cluster broadcaster.
//!
//! §4.2: "updates are done asynchronously among the nodes without any
//! global locks" — a node never waits for its notices to be delivered.
//! This module takes that literally: each peer gets a dedicated **writer
//! thread** fed by a bounded queue, and [`Broadcaster::broadcast`] is a
//! non-blocking enqueue of one shared pre-encoded buffer. The request
//! path therefore pays O(peers) pointer pushes per broadcast — never a
//! connect, a syscall, or a retransmit — regardless of how many peers
//! are slow, dead, or blackholed.
//!
//! # Pacing
//!
//! A link is **self-pacing**. A notice that finds the link idle (its
//! writer parked) wakes the writer and goes out at once, so an idle
//! cluster sees no added delay. Having sent, the writer *holds* the link:
//! enqueues during a hold only push under the queue lock — they issue
//! **no wake-up**, because the writer is not parked — and when the hold
//! ends everything queued leaves as one [`Message::Batch`] frame (cut
//! only by the wire's frame limit). An empty queue at the end of a hold
//! parks the writer again.
//!
//! The hold follows the link's load. The first hold after an idle link
//! sends is [`NOTICE_PACE`]; each hold that ends with notices queued
//! doubles the next, up to [`NOTICE_PACE_MAX`]; a hold that ends on an
//! empty queue parks the writer, and the next notice again goes out at
//! once followed by a [`NOTICE_PACE`] hold. The contract: *a notice
//! handed to a connected link reaches the socket within
//! [`NOTICE_PACE`] if the link parked within its last hold, and within
//! [`NOTICE_PACE_MAX`] otherwise* (plus the scheduler's timer slack);
//! nothing else about §4.2's false-hit / false-miss window changes. A
//! loaded node thus pays one writer wake-up, one `write` and one
//! peer-side wake-up per hold instead of per insert. [`PeerLink::flush`]
//! and shutdown cut a hold short.
//!
//! The rule, the queue and the counters live in `LinkState`, with no
//! lock, thread, socket or clock in it. The writer thread asks it for
//! the next step — send, hold until an instant, park, or stop — waits
//! out holds on the link's [`Clock`] ([`BroadcastConfig::clock`]), writes
//! with the lock released and reports back; tests drive it directly.
//!
//! The contract is checkable: every queued notice carries its enqueue
//! `Instant`, the writer records enqueue→socket delay into the
//! [`notice_delay`](Broadcaster::notice_delay) histogram, and
//! [`LinkStats`] carries the link's current hold and counts frames,
//! notices sent at once vs after a hold, and wake-ups issued.
//!
//! Backpressure is **drop-oldest**: when a queue is full the oldest
//! notice is discarded and counted in the link's `dropped` counter. The
//! weak-consistency protocol tolerates lost notices by design — the
//! worst case is a false miss or false hit — so shedding load beats
//! blocking the request path. Reconnection happens on the writer thread
//! with exponential backoff, off the request path entirely.

use crate::message::{encode_batch, Message};
use crate::wire::{write_frame, ProtoError, MAX_FRAME};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swala_cache::{Clock, NodeId, Waiter};
use swala_obs::{Histogram, MetricsRegistry};

/// How long a writer holds its link after an idle link's send: the base
/// of the ramp, and all the delay a lightly loaded link ever adds.
///
/// A constant, not a knob: it bounds how stale a peer's directory may be
/// beyond §4.2's own window, and DESIGN.md §5 records the sweep
/// (125/250/500/1000 µs) that picked it.
pub const NOTICE_PACE: Duration = Duration::from_micros(500);

/// The longest hold: where the doubling stops on a link whose every hold
/// ends with notices queued. DESIGN.md §5 records the sweep
/// (0.5/1/2/4/8 ms at 30 k inserts/s per node) that picked it.
pub const NOTICE_PACE_MAX: Duration = Duration::from_millis(4);

/// Notices a link queues before it drops the oldest.
///
/// A constant, not a knob: with a [`NOTICE_PACE_MAX`] hold a link sheds
/// only above ≈ 256 k notices/s, four times `miss-insert`'s rate, and a
/// dropped notice costs no more than §4.2's weak consistency already
/// absorbs (a false miss or a false hit).
pub const NOTICE_QUEUE_DEPTH: usize = 1024;

/// First reconnect backoff; doubles per failure up to [`BACKOFF_MAX`].
const BACKOFF_MIN: Duration = Duration::from_millis(25);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How a writer thread opens a TCP connection. The target peer's
/// [`NodeId`] is passed first so fault rules can match by destination.
/// Injectable so tests can simulate blackholed peers (connects that
/// hang, then fail) without depending on unroutable addresses.
pub type Connector =
    Arc<dyn Fn(NodeId, SocketAddr, Duration) -> io::Result<TcpStream> + Send + Sync>;

/// Tuning for the asynchronous broadcast pipeline.
#[derive(Clone)]
pub struct BroadcastConfig {
    /// Bounded queue depth per link; overflow drops the oldest notice.
    /// [`NOTICE_QUEUE_DEPTH`] on every node; tests shrink it to overflow.
    pub queue_depth: usize,
    /// TCP connect timeout for (re)connection attempts.
    pub connect_timeout: Duration,
    /// Connection factory (tests inject failures/delays here).
    pub connector: Connector,
    /// What holds, backoffs and notice delays are measured on.
    pub clock: Clock,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            queue_depth: NOTICE_QUEUE_DEPTH,
            connect_timeout: Duration::from_millis(500),
            connector: Arc::new(|_peer, addr, timeout| TcpStream::connect_timeout(&addr, timeout)),
            clock: Clock::Real,
        }
    }
}

impl std::fmt::Debug for BroadcastConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastConfig")
            .field("queue_depth", &self.queue_depth)
            .field("connect_timeout", &self.connect_timeout)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

/// Observable state of one link: its registry series (see
/// [`Broadcaster::register_into`]) and tests read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    pub peer: NodeId,
    pub addr: SocketAddr,
    /// Notices written to the socket.
    pub sent: u64,
    /// Payload bytes of delivered notices (framing overhead excluded) —
    /// what the directory bench measures as "directory wire bytes".
    pub sent_bytes: u64,
    /// Wire frames those notices travelled in.
    pub frames: u64,
    /// The hold that follows this link's latest send: [`NOTICE_PACE`] on
    /// a link that has parked since, up to [`NOTICE_PACE_MAX`] on one
    /// whose holds keep ending with notices queued.
    pub hold: Duration,
    /// Notices that found the link idle and went out at once.
    pub sent_immediate: u64,
    /// Notices that waited out a hold (or a reconnect backoff) first;
    /// `sent == sent_immediate + sent_after_hold`.
    pub sent_after_hold: u64,
    /// Writer wake-ups issued by enqueues: one per idle→busy transition,
    /// never one per notice on a loaded link.
    pub wakeups: u64,
    /// Notices dropped: queue overflow, failed delivery, or shutdown.
    pub dropped: u64,
    /// Notices currently queued.
    pub queued: usize,
    /// Whether the writer's latest delivery left it a live connection.
    pub connected: bool,
}

impl LinkStats {
    /// Notices per wire frame: the coalescing factor pacing buys.
    pub fn notices_per_frame(&self) -> f64 {
        self.sent as f64 / self.frames.max(1) as f64
    }
}

/// A notice waiting for the writer, stamped when it was handed over.
pub(crate) struct Queued {
    at: Instant,
    frame: Arc<[u8]>,
}

impl AsRef<[u8]> for Queued {
    fn as_ref(&self) -> &[u8] {
        &self.frame
    }
}

/// The writer's next step, as [`LinkState::next`] rules it.
pub(crate) enum Step {
    /// Write these notices and report with [`LinkState::sent`] or
    /// [`LinkState::failed`]; `held`: they sat out a hold or backoff.
    Send(Vec<Queued>, bool),
    /// Sit out a hold or backoff until this instant, then ask again. A
    /// flush, shutdown or clock advance wakes the writer; enqueues do not.
    Hold(Instant),
    /// Nothing queued: wait for the enqueue that wakes the writer.
    Park,
    /// Shutting down with nothing left to send: the writer exits.
    Stop,
}

/// One link's pacing rule, queue and counters. [`PeerLink`]'s writer
/// keeps it under the queue mutex and does what [`next`](Self::next) says.
pub(crate) struct LinkState {
    buf: VecDeque<Queued>,
    depth: usize,
    /// Every counter, the current hold and the connection flag;
    /// `queued` is filled in from `buf` on copy.
    stats: LinkStats,
    /// When the writer drained the queue for a batch it has not reported
    /// yet. The next hold runs from here, so a notice enqueued right
    /// behind that batch waits one hold, not one hold plus its write.
    taken: Option<Instant>,
    /// When the latest hold or backoff ends: `None` on a fresh link and
    /// after a park. A send is `held` exactly when this is `Some`.
    hold_until: Option<Instant>,
    /// The writer waits for an enqueue — the one state in which an
    /// enqueue must wake it. Cleared by the enqueue that does.
    parked: bool,
    /// The next reconnect backoff.
    backoff: Duration,
    shutting_down: bool,
    /// `flush` callers waiting for the link to quiesce; while any wait, a
    /// hold with notices queued ends at once.
    flushers: usize,
}

impl LinkState {
    pub(crate) fn new(peer: NodeId, addr: SocketAddr, depth: usize) -> Self {
        LinkState {
            buf: VecDeque::new(),
            depth,
            stats: LinkStats {
                peer,
                addr,
                sent: 0,
                sent_bytes: 0,
                frames: 0,
                hold: NOTICE_PACE,
                sent_immediate: 0,
                sent_after_hold: 0,
                wakeups: 0,
                dropped: 0,
                queued: 0,
                connected: false,
            },
            taken: None,
            hold_until: None,
            parked: false,
            backoff: BACKOFF_MIN,
            shutting_down: false,
            flushers: 0,
        }
    }

    /// Queue `frames` stamped `at`, dropping the oldest past the depth.
    /// `None` after shutdown, with every frame counted as dropped;
    /// otherwise whether the writer is parked and must be woken — once
    /// per idle→busy transition, never on a held link.
    pub(crate) fn enqueue(
        &mut self,
        at: Instant,
        frames: impl IntoIterator<Item = Arc<[u8]>>,
    ) -> Option<bool> {
        if self.shutting_down {
            self.stats.dropped += frames.into_iter().count() as u64;
            return None;
        }
        for frame in frames {
            if self.buf.len() >= self.depth {
                self.buf.pop_front();
                self.stats.dropped += 1;
            }
            self.buf.push_back(Queued { at, frame });
        }
        let wake = self.parked && !self.buf.is_empty();
        if wake {
            self.parked = false;
            self.stats.wakeups += 1;
        }
        Some(wake)
    }

    /// The writer's next step at `now`: sit out a pending hold unless a
    /// flush or shutdown cuts it, then send everything queued, or park
    /// (stop, when shutting down) on an empty queue.
    pub(crate) fn next(&mut self, now: Instant) -> Step {
        if let Some(until) = self.hold_until {
            let cut = self.shutting_down || (self.flushers > 0 && !self.buf.is_empty());
            if now < until && !cut {
                return Step::Hold(until);
            }
        }
        if self.buf.is_empty() {
            if self.shutting_down {
                return Step::Stop;
            }
            // Nothing queued when the hold ended (or no hold at all): the
            // link is idle, the next notice goes out at once, and the ramp
            // starts over.
            self.hold_until = None;
            self.parked = true;
            self.stats.hold = NOTICE_PACE;
            return Step::Park;
        }
        self.parked = false;
        self.taken = Some(now);
        Step::Send(self.buf.drain(..).collect(), self.hold_until.is_some())
    }

    /// The writer wrote the `batch` [`next`](Self::next) gave it, `held`
    /// as given, in `frames` wire frames: count it and start the next
    /// hold, doubled after a held batch and reset after an immediate one.
    pub(crate) fn sent(&mut self, batch: &[Queued], held: bool, frames: u64) {
        let taken_at = self.taken.take().expect("sent reports a taken batch");
        let n = batch.len() as u64;
        let st = &mut self.stats;
        st.sent += n;
        st.sent_bytes += batch.iter().map(|q| q.frame.len() as u64).sum::<u64>();
        st.frames += frames;
        if held {
            st.sent_after_hold += n;
        } else {
            st.sent_immediate += n;
        }
        st.connected = true;
        // Notices queued through the whole of the last hold: the link is
        // loaded, and a frame costs the pair of nodes far more than a
        // notice does, so the next hold is longer.
        st.hold = if held {
            (2 * st.hold).min(NOTICE_PACE_MAX)
        } else {
            NOTICE_PACE
        };
        self.backoff = BACKOFF_MIN;
        self.hold_until = Some(taken_at + st.hold);
    }

    /// The writer failed to deliver a batch of `n` notices at `now`: drop
    /// them and back off, as a hold — or, during shutdown, drop the rest
    /// too rather than time out batch by batch (bounded-effort drain).
    pub(crate) fn failed(&mut self, n: usize, now: Instant) {
        self.taken = None;
        self.stats.dropped += n as u64;
        self.stats.connected = false;
        if self.shutting_down {
            self.stats.dropped += self.buf.len() as u64;
            self.buf.clear();
            return;
        }
        self.hold_until = Some(now + self.backoff);
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }

    /// Everything handed to the link has been sent or dropped.
    fn quiet(&self) -> bool {
        self.buf.is_empty() && self.taken.is_none()
    }
}

struct LinkShared {
    addr: SocketAddr,
    peer: NodeId,
    local: NodeId,
    cfg: BroadcastConfig,
    state: Mutex<LinkState>,
    /// Writer waits here: parked (woken by an enqueue), or sitting out a
    /// hold (woken only by `flush`, shutdown, and a manual clock's
    /// advance).
    ready: Condvar,
    /// Signaled when the link quiesces; `flush` waits here.
    idle: Condvar,
    /// Enqueue→socket delay of every delivered notice, microseconds.
    delay: Arc<Histogram>,
}

impl LinkShared {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now(&self) -> Instant {
        self.cfg.clock.now()
    }

    fn stats(&self) -> LinkStats {
        let st = self.lock();
        let queued = st.buf.len();
        LinkStats {
            queued,
            ..st.stats.clone()
        }
    }
}

/// A manual clock's advance ends the writer's hold or backoff wait.
impl Waiter for LinkShared {
    fn wake(&self) {
        let _state = self.lock();
        self.ready.notify_all();
    }
}

/// Persistent notice link to one peer, serviced by its own writer thread.
pub struct PeerLink {
    shared: Arc<LinkShared>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl PeerLink {
    /// Create a link with default tuning (connection happens on the
    /// writer thread, on first delivery).
    pub fn new(local: NodeId, peer: NodeId, addr: SocketAddr) -> Self {
        Self::with_config(local, peer, addr, BroadcastConfig::default())
    }

    /// Create a link with explicit tuning.
    pub fn with_config(
        local: NodeId,
        peer: NodeId,
        addr: SocketAddr,
        cfg: BroadcastConfig,
    ) -> Self {
        Self::with_delay_histogram(local, peer, addr, cfg, Arc::new(Histogram::new()))
    }

    /// A link recording its notice delays into `delay` (a broadcaster's
    /// links share one histogram).
    fn with_delay_histogram(
        local: NodeId,
        peer: NodeId,
        addr: SocketAddr,
        cfg: BroadcastConfig,
        delay: Arc<Histogram>,
    ) -> Self {
        let shared = Arc::new(LinkShared {
            addr,
            peer,
            local,
            state: Mutex::new(LinkState::new(peer, addr, cfg.queue_depth)),
            cfg,
            ready: Condvar::new(),
            idle: Condvar::new(),
            delay,
        });
        let waiter: Weak<dyn Waiter> = Arc::downgrade(&shared) as Weak<LinkShared>;
        shared.cfg.clock.wake_on_advance(waiter);
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("swala-notice-writer".into())
                .spawn(move || writer_loop(&shared))
                .expect("spawn notice writer")
        };
        PeerLink {
            shared,
            writer: Mutex::new(Some(writer)),
        }
    }

    /// Peer node id.
    pub fn peer(&self) -> NodeId {
        self.shared.peer
    }

    /// Peer address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Notices written / dropped so far.
    pub fn counters(&self) -> (u64, u64) {
        let st = self.shared.lock();
        (st.stats.sent, st.stats.dropped)
    }

    /// Wire frames written so far.
    pub fn frames(&self) -> u64 {
        self.shared.lock().stats.frames
    }

    /// Enqueue→socket delay of this link's delivered notices.
    pub fn notice_delay(&self) -> &Arc<Histogram> {
        &self.shared.delay
    }

    /// Whether the writer is parked (idle link: the next notice wakes it
    /// and goes out at once).
    #[cfg(test)]
    fn parked(&self) -> bool {
        self.shared.lock().parked
    }

    /// Whether the writer has sent everything it took and queued nothing
    /// since: it is sitting out a hold, or parked.
    #[cfg(test)]
    fn settled(&self) -> bool {
        self.shared.lock().quiet()
    }

    /// Snapshot of this link's observable state.
    pub fn stats(&self) -> LinkStats {
        self.shared.stats()
    }

    /// Queue a notice for delivery. Returns immediately: `Ok` means the
    /// notice was accepted (enqueued), not that it was delivered —
    /// delivery is asynchronous and best-effort. `Err` only after
    /// shutdown.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        if self.enqueue_frame(msg.encode().into()) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer link shut down",
            ))
        }
    }

    /// Queue a pre-encoded frame payload (the broadcast fast path: one
    /// encode shared across every link). Drop-oldest on overflow.
    pub fn enqueue_frame(&self, frame: Arc<[u8]>) -> bool {
        self.enqueue_frames([frame])
    }

    /// Queue several pre-encoded frame payloads in order under one
    /// queue lock. The writer is woken only if it is parked — on a held
    /// link this is a push and nothing else. `false` (everything counted
    /// as dropped) only after shutdown.
    pub fn enqueue_frames(&self, frames: impl IntoIterator<Item = Arc<[u8]>>) -> bool {
        let mut frames = frames.into_iter().peekable();
        if frames.peek().is_none() {
            return true;
        }
        let at = self.shared.now();
        let queued = self.shared.lock().enqueue(at, frames);
        if queued == Some(true) {
            self.shared.ready.notify_one();
        }
        queued.is_some()
    }

    /// Wait until every queued notice has been handed to the socket (or
    /// dropped), cutting short any hold the writer is sitting out.
    /// `false` on timeout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        if st.quiet() {
            return true;
        }
        st.flushers += 1;
        self.shared.ready.notify_all();
        let mut quiesced = true;
        while !st.quiet() {
            let now = Instant::now();
            if now >= deadline {
                quiesced = false;
                break;
            }
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        st.flushers -= 1;
        quiesced
    }

    /// Signal shutdown, drain what can still be delivered, and join the
    /// writer thread. Idempotent.
    pub fn shutdown(&self) {
        self.signal_shutdown();
        self.join_writer();
    }

    fn signal_shutdown(&self) {
        self.shared.lock().shutting_down = true;
        self.shared.ready.notify_all();
    }

    fn join_writer(&self) {
        let handle = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writer thread: do what the link's [`LinkState`] says — wait out a hold
/// on the clock or a park on the condvar, or write a batch unlocked and
/// report back, waking `flush` callers once the link is quiet.
fn writer_loop(shared: &LinkShared) {
    let (clock, delay) = (&shared.cfg.clock, &shared.delay);
    let mut stream: Option<TcpStream> = None;
    loop {
        let mut st = shared.lock();
        let (batch, held) = loop {
            let now = shared.now();
            st = match st.next(now) {
                Step::Send(batch, held) => break (batch, held),
                Step::Hold(until) => clock.wait_timeout(&shared.ready, st, until - now),
                Step::Park => shared.ready.wait(st).unwrap_or_else(|e| e.into_inner()),
                Step::Stop => return,
            };
        };
        drop(st);
        let delivered = deliver(shared, &mut stream, &batch);
        let now = shared.now();
        if delivered.is_ok() {
            for q in &batch {
                delay.record_duration(now.saturating_duration_since(q.at));
            }
        } else {
            stream = None;
        }
        // Declared after `batch`, so dropped before it: the batch's frames
        // are freed with the lock released.
        let mut st = shared.lock();
        match delivered {
            Ok(frames) => st.sent(&batch, held, frames),
            Err(_) => st.failed(batch.len(), now),
        }
        if st.flushers > 0 && st.quiet() {
            shared.idle.notify_all();
        }
    }
}

/// Write one batch, (re)connecting as needed; returns the number of wire
/// frames it took. A single message goes out as its own frame; several
/// are coalesced into `Batch` frames (split if a combined payload would
/// exceed the frame limit). On a write error the writer reconnects once
/// and retries the whole batch — notices are idempotent, so a duplicate
/// after a partial delivery is harmless.
fn deliver(
    shared: &LinkShared,
    stream: &mut Option<TcpStream>,
    batch: &[Queued],
) -> io::Result<u64> {
    if stream.is_none() {
        *stream = Some(connect(shared)?);
    }
    let s = stream.as_mut().expect("just connected");
    match write_batch(s, batch) {
        Ok(frames) => Ok(frames),
        Err(_) => {
            // The common failure is a peer restart having closed the old
            // connection: reconnect once and retry.
            let mut s = connect(shared)?;
            let frames = write_batch(&mut s, batch).map_err(to_io)?;
            *stream = Some(s);
            Ok(frames)
        }
    }
}

fn write_batch<W: io::Write>(out: &mut W, batch: &[Queued]) -> Result<u64, ProtoError> {
    // Split so no coalesced frame exceeds the limit (notices are tiny,
    // so in practice this is one frame per call).
    let budget = MAX_FRAME / 2;
    let mut frames = 0;
    let mut start = 0;
    while start < batch.len() {
        let mut end = start;
        let mut size = 0usize;
        while end < batch.len() && (end == start || size + batch[end].frame.len() + 4 <= budget) {
            size += batch[end].frame.len() + 4;
            end += 1;
        }
        if end - start == 1 {
            write_frame(out, &batch[start].frame)?;
        } else {
            write_frame(out, &encode_batch(&batch[start..end]))?;
        }
        frames += 1;
        start = end;
    }
    Ok(frames)
}

fn connect(shared: &LinkShared) -> io::Result<TcpStream> {
    let mut stream = (shared.cfg.connector)(shared.peer, shared.addr, shared.cfg.connect_timeout)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &Message::Hello { node: shared.local }.encode()).map_err(to_io)?;
    Ok(stream)
}

fn to_io(e: ProtoError) -> io::Error {
    match e {
        ProtoError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// All of a node's outgoing links; fan-out lives here.
pub struct Broadcaster {
    links: Vec<PeerLink>,
    /// Enqueue→socket delay of every notice any link delivered.
    delay: Arc<Histogram>,
}

impl Broadcaster {
    /// Build links from `local` to every `(peer, addr)` pair with default
    /// tuning.
    pub fn new(local: NodeId, peers: impl IntoIterator<Item = (NodeId, SocketAddr)>) -> Self {
        Self::with_config(local, peers, BroadcastConfig::default())
    }

    /// Build links with explicit tuning.
    pub fn with_config(
        local: NodeId,
        peers: impl IntoIterator<Item = (NodeId, SocketAddr)>,
        cfg: BroadcastConfig,
    ) -> Self {
        let delay = Arc::new(Histogram::new());
        Broadcaster {
            links: peers
                .into_iter()
                .map(|(peer, addr)| {
                    PeerLink::with_delay_histogram(
                        local,
                        peer,
                        addr,
                        cfg.clone(),
                        Arc::clone(&delay),
                    )
                })
                .collect(),
            delay,
        }
    }

    /// A broadcaster with no peers (single-node operation).
    pub fn solo() -> Self {
        Self::new(NodeId(0), [])
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.links.len()
    }

    /// Queue `msg` to every peer; returns how many links accepted it.
    ///
    /// The message is encoded exactly once; every link queues the same
    /// shared buffer. This never blocks on the network — delivery,
    /// reconnection and failure handling all happen on the writer
    /// threads, and drops are recorded in the per-link counters
    /// (asynchronous weak consistency, §4.2).
    ///
    /// Zero-recipient fast path: with no links (single-node cluster) the
    /// call returns before encoding anything.
    pub fn broadcast(&self, msg: &Message) -> usize {
        if self.links.is_empty() {
            return 0;
        }
        let frame: Arc<[u8]> = msg.encode().into();
        self.links
            .iter()
            .filter(|l| l.enqueue_frame(Arc::clone(&frame)))
            .count()
    }

    /// Queue several encoded notices at once, each addressed to the
    /// nodes it names — the linked peers among them; a node this
    /// broadcaster has no link to (itself, or an out-of-cluster id) gets
    /// nothing. Every link shares each frame, and each link's queue is
    /// locked once (its writer woken only if parked) for everything that
    /// link receives. Order within a link is the notices' order. An
    /// insert and the evictions it caused go out this way.
    pub fn enqueue<'a>(
        &self,
        notices: impl IntoIterator<Item = &'a (&'a [NodeId], Arc<[u8]>), IntoIter: Clone>,
    ) {
        let notices = notices.into_iter();
        for link in &self.links {
            link.enqueue_frames(
                notices
                    .clone()
                    .filter(|(to, _)| to.contains(&link.peer()))
                    .map(|(_, frame)| Arc::clone(frame)),
            );
        }
    }

    /// Aggregate (sent, dropped) counters across links.
    pub fn counters(&self) -> (u64, u64) {
        self.links.iter().fold((0, 0), |(s, d), l| {
            let (ls, ld) = l.counters();
            (s + ls, d + ld)
        })
    }

    /// Wire frames written across links (`sent / frames` notices each).
    pub fn frames(&self) -> u64 {
        self.links.iter().map(PeerLink::frames).sum()
    }

    /// Enqueue→socket delay of delivered notices, microseconds: the
    /// pacing contract's histogram (max ≈ [`NOTICE_PACE_MAX`] on a
    /// connected link, ≈ [`NOTICE_PACE`] on one that parks between
    /// notices).
    pub fn notice_delay(&self) -> &Arc<Histogram> {
        &self.delay
    }

    /// Register the notice plane on `reg`: totals over the links, the
    /// delay histogram, the longest hold, and every link's [`LinkStats`]
    /// as `swala_broadcast_link_*{peer="N"}`. Each series reads the
    /// link's state when scraped.
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        let b = Arc::clone(self);
        let help = "Cache notices written to peer sockets";
        reg.register_counter("swala_broadcast_sent", help, move || b.counters().0);
        let b = Arc::clone(self);
        let help = "Cache notices dropped: queue overflow, failed delivery or shutdown";
        reg.register_counter("swala_broadcast_dropped", help, move || b.counters().1);
        let b = Arc::clone(self);
        let help = "Wire frames the delivered cache notices travelled in";
        reg.register_counter("swala_broadcast_frames", help, move || b.frames());
        reg.register_histogram(
            "swala_notice_delay_microseconds",
            "Delay from a cache notice's enqueue to its write to the peer socket",
            Arc::clone(&self.delay),
        );
        let b = Arc::clone(self);
        reg.register_gauge_fn(
            "swala_notice_hold_microseconds",
            "Longest current hold over this node's notice links (500 = idle, 4000 = saturated)",
            move || b.max_hold().as_micros() as i64,
        );
        type Count = fn(&LinkStats) -> u64;
        let counters: [(&str, &str, Count); 6] = [
            ("sent", "Notices this link wrote to the socket", |l| l.sent),
            (
                "sent_bytes",
                "Payload bytes of this link's delivered notices",
                |l| l.sent_bytes,
            ),
            ("frames", "Wire frames this link wrote", |l| l.frames),
            (
                "sent_immediate",
                "Notices that found this link idle and went out at once",
                |l| l.sent_immediate,
            ),
            (
                "sent_after_hold",
                "Notices that waited out a hold on this link",
                |l| l.sent_after_hold,
            ),
            ("dropped", "Notices this link dropped", |l| l.dropped),
        ];
        type Level = fn(&LinkStats) -> i64;
        let gauges: [(&str, &str, Level); 3] = [
            ("queued", "Notices queued on this link", |l| l.queued as i64),
            (
                "hold_microseconds",
                "The hold after this link's latest send",
                |l| l.hold.as_micros() as i64,
            ),
            (
                "connected",
                "1 while this link's writer holds a live connection",
                |l| l.connected as i64,
            ),
        ];
        for link in &self.links {
            let peer = link.peer().0.to_string();
            for (field, help, read) in counters {
                let shared = Arc::clone(&link.shared);
                let name = format!("swala_broadcast_link_{field}");
                reg.register_counter_labeled(&name, help, "peer", &peer, move || {
                    read(&shared.stats())
                });
            }
            for (field, help, read) in gauges {
                let shared = Arc::clone(&link.shared);
                let name = format!("swala_broadcast_link_{field}");
                reg.register_gauge_fn_labeled(&name, help, "peer", &peer, move || {
                    read(&shared.stats())
                });
            }
        }
    }

    /// The longest current hold over all links ([`LinkStats::hold`]):
    /// where the most loaded link stands on the ramp.
    pub fn max_hold(&self) -> Duration {
        self.links
            .iter()
            .map(|l| l.shared.lock().stats.hold)
            .max()
            .unwrap_or_default()
    }

    /// Wait until every link's queue has quiesced. `false` on timeout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.links.iter().all(|l| {
            let now = Instant::now();
            l.flush(deadline.saturating_duration_since(now))
        })
    }

    /// Drain queued notices to live peers, then stop and join every
    /// writer thread. Links drain concurrently (shutdown is signaled to
    /// all links before any join).
    pub fn shutdown(&self) {
        for l in &self.links {
            l.signal_shutdown();
        }
        for l in &self.links {
            l.join_writer();
        }
    }
}

impl Drop for Broadcaster {
    fn drop(&mut self) {
        // Signal everything first so links drain in parallel; each
        // PeerLink's own Drop then joins its writer.
        for l in &self.links {
            l.signal_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;
    use proptest::prelude::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use swala_cache::ManualClock;

    /// Accept `n` connections, collecting every message until each peer
    /// disconnects; returns all messages received (batches flattened,
    /// with a count of batch frames seen).
    fn collecting_listener(
        n: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<(Vec<Message>, usize)>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut all = Vec::new();
            let mut batches = 0;
            for _ in 0..n {
                let (mut s, _) = listener.accept().unwrap();
                while let Ok(Some(frame)) = read_frame(&mut s) {
                    match Message::decode(&frame).unwrap() {
                        Message::Batch(msgs) => {
                            batches += 1;
                            all.extend(msgs);
                        }
                        m => all.push(m),
                    }
                }
            }
            (all, batches)
        });
        (addr, handle)
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn link_sends_hello_then_notices() {
        let (addr, handle) = collecting_listener(1);
        let link = PeerLink::new(NodeId(0), NodeId(1), addr);
        link.send(&numbered(1)).unwrap();
        link.send(&numbered(2)).unwrap();
        assert!(link.flush(Duration::from_secs(5)));
        assert_eq!(link.counters(), (2, 0));
        drop(link); // joins the writer, closing the stream
        let (msgs, _) = handle.join().unwrap();
        assert_eq!(msgs[0], Message::Hello { node: NodeId(0) });
        assert_eq!(&msgs[1..], &[numbered(1), numbered(2)]);
    }

    #[test]
    fn unreachable_peer_counts_drops_off_the_send_path() {
        // Port 1 on localhost: connection refused immediately. The send
        // itself still succeeds — it is an enqueue — and the failure is
        // recorded asynchronously by the writer.
        let link = PeerLink::new(NodeId(0), NodeId(1), "127.0.0.1:1".parse().unwrap());
        link.send(&numbered(1)).unwrap();
        wait_until("drop counted", || link.counters() == (0, 1));
    }

    #[test]
    fn send_returns_before_any_connect_attempt() {
        // Blackholed peer: the writer hangs in `connect` until released,
        // then fails (nothing listens on port 1).
        let (cfg, gate) = gated_config();
        let link = PeerLink::with_config(NodeId(0), NodeId(1), "127.0.0.1:1".parse().unwrap(), cfg);
        let t0 = Instant::now();
        for _ in 0..100 {
            link.send(&numbered(1)).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "100 sends took {elapsed:?} against a blackholed peer"
        );
        gate.wait_entered();
        // Shut down while the connect hangs, so its failure drops the
        // whole queue rather than backing off into a second connect.
        link.signal_shutdown();
        gate.release();
        link.shutdown();
        let (sent, dropped) = link.counters();
        assert_eq!(sent, 0);
        assert_eq!(dropped, 100);
    }

    #[test]
    fn queue_overflow_drops_oldest() {
        // The writer is held in `connect` with the first notice in hand,
        // so the other 19 meet a queue of 4: the 15 oldest are dropped,
        // and the newest 4 follow the first once the connect goes through.
        let (addr, handle) = collecting_listener(1);
        let (cfg, gate) = gated_config();
        let cfg = BroadcastConfig {
            queue_depth: 4,
            ..cfg
        };
        let link = PeerLink::with_config(NodeId(0), NodeId(1), addr, cfg);
        link.send(&numbered(1)).unwrap();
        gate.wait_entered();
        for i in 2..=20 {
            link.send(&numbered(i)).unwrap();
        }
        let stats = link.stats();
        assert_eq!((stats.queued, stats.dropped), (4, 15));
        gate.release();
        assert!(link.flush(Duration::from_secs(5)));
        drop(link);
        let (msgs, _) = handle.join().unwrap();
        assert_eq!(msgs, [0, 1, 17, 18, 19, 20].map(numbered));
    }

    /// A connector that parks the writer inside `connect` until released,
    /// so a test can enqueue against a link that is provably busy (not
    /// parked) without racing a 500 µs hold.
    struct Gate {
        entered: std::sync::mpsc::Receiver<()>,
        release: std::sync::mpsc::Sender<()>,
    }

    fn gated_config() -> (BroadcastConfig, Gate) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let cfg = BroadcastConfig {
            connector: Arc::new(move |_peer, addr, timeout| {
                let _ = entered_tx.send(());
                // Bounded, so a failed assertion unwinds (joining this
                // writer) instead of hanging the test.
                let _ = release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                TcpStream::connect_timeout(&addr, timeout)
            }),
            ..Default::default()
        };
        (cfg, Gate { entered, release })
    }

    impl Gate {
        /// Block until the writer has taken a batch and is connecting.
        fn wait_entered(&self) {
            self.entered
                .recv_timeout(Duration::from_secs(5))
                .expect("writer reached connect");
        }

        fn release(&self) {
            self.release.send(()).unwrap();
        }
    }

    fn numbered(i: u16) -> Message {
        Message::Hello { node: NodeId(i) }
    }

    /// A link whose holds and backoffs run on a clock the test moves.
    fn manual_link(addr: SocketAddr, cfg: BroadcastConfig) -> (PeerLink, Arc<ManualClock>) {
        let time = ManualClock::new();
        let cfg = BroadcastConfig {
            clock: time.clock(),
            ..cfg
        };
        (PeerLink::with_config(NodeId(0), NodeId(1), addr, cfg), time)
    }

    /// Let the writer sit out its hold with nothing queued, so it parks.
    fn park(link: &PeerLink, time: &ManualClock) {
        wait_until("writer settled", || link.settled());
        time.advance(link.stats().hold);
        wait_until("writer parked", || link.parked());
    }

    /// A burst handed to a busy link: no wake-up, one `Batch` frame, order
    /// kept — for broadcast notices and for notices addressed to chosen
    /// peers alike, since both ride the same link.
    fn burst_on_busy_link(send: fn(&Broadcaster, Message)) {
        const N: u16 = 40;
        let (addr, handle) = collecting_listener(1);
        let (cfg, gate) = gated_config();
        let b = Broadcaster::with_config(NodeId(0), [(NodeId(1), addr)], cfg);
        wait_until("writer parked", || b.links[0].parked());
        send(&b, numbered(0)); // finds the link idle: the one wake-up
        gate.wait_entered(); // writer took it and is busy, not parked
        for i in 1..=N {
            send(&b, numbered(i));
        }
        let st = &b.links[0].stats();
        assert_eq!((st.wakeups, st.queued), (1, N as usize), "pushes only");
        gate.release();
        assert!(b.flush(Duration::from_secs(5)));
        let st = &b.links[0].stats();
        assert_eq!((st.sent, st.frames, st.wakeups), (N as u64 + 1, 2, 1));
        assert_eq!((st.sent_immediate, st.sent_after_hold), (1, N as u64));
        assert_eq!(b.frames(), 2);
        assert_eq!(b.notice_delay().snapshot().count, N as u64 + 1);
        drop(b);
        let (msgs, batches) = handle.join().unwrap();
        assert_eq!(batches, 1, "the burst left as one Batch frame");
        let expected: Vec<Message> = std::iter::once(Message::Hello { node: NodeId(0) })
            .chain((0..=N).map(numbered))
            .collect();
        assert_eq!(msgs, expected);
    }

    #[test]
    fn burst_on_busy_link_is_one_batch_and_no_wakeup() {
        burst_on_busy_link(|b, m| {
            assert_eq!(b.broadcast(&m), 1);
        });
    }

    #[test]
    fn addressed_notices_are_paced_identically() {
        burst_on_busy_link(|b, m| b.enqueue(&[(&[NodeId(1)][..], m.encode().into())]));
    }

    /// Drive a connected, parked link up its hold ramp on a manual clock:
    /// one notice at once, then one per hold, each queued the moment the
    /// previous frame left and sent the moment its hold ends. Returns the
    /// hold each frame's notice sat out and the next unused number.
    fn ramp(link: &PeerLink, time: &ManualClock, from: u16, frames: u16) -> (Vec<Duration>, u16) {
        wait_until("writer parked", || link.parked());
        link.send(&numbered(from)).unwrap();
        let mut holds = Vec::new();
        for i in from + 1..from + frames {
            wait_until("writer settled", || link.settled());
            let hold = link.stats().hold;
            link.send(&numbered(i)).unwrap();
            time.advance(hold);
            holds.push(hold);
        }
        wait_until("writer settled", || link.settled());
        (holds, from + frames)
    }

    #[test]
    fn loaded_link_ramps_to_one_frame_per_max_hold_and_back() {
        let (addr, handle) = collecting_listener(1);
        let (link, time) = manual_link(addr, BroadcastConfig::default());
        // Connect first, so the ramp below meets a connected, idle link.
        link.send(&numbered(0)).unwrap();
        park(&link, &time);
        let before = link.stats();
        assert_eq!(before.hold, NOTICE_PACE);

        let (holds, next) = ramp(&link, &time, 1, 8);
        let ms = Duration::from_millis;
        assert_eq!(
            holds,
            [NOTICE_PACE, ms(1), ms(2), ms(4), ms(4), ms(4), ms(4)],
            "each hold that ends with notices queued doubles the next, up to the maximum"
        );
        let st = link.stats();
        assert_eq!(st.hold, NOTICE_PACE_MAX, "the ramp reached its top");
        assert_eq!((st.sent, st.dropped), (next as u64, 0));
        assert_eq!(
            st.frames - before.frames,
            8,
            "one frame at once, then one per hold"
        );
        assert_eq!(st.wakeups - before.wakeups, 1, "a held link is never woken");
        // The contract, in virtual time: a notice waits out at most the
        // hold it was queued into, never more than the maximum.
        let delay = link.notice_delay().snapshot();
        assert_eq!(delay.count, 9, "the connecting notice and the ramp's eight");
        assert_eq!(delay.max, NOTICE_PACE_MAX.as_micros() as u64);
        let waited: Duration = holds.iter().sum();
        assert_eq!(delay.sum, waited.as_micros() as u64);

        // A hold that ends on an empty queue parks the writer, and the
        // ramp starts over.
        park(&link, &time);
        assert_eq!(link.stats().hold, NOTICE_PACE);
        link.send(&numbered(next)).unwrap();
        assert!(link.flush(Duration::from_secs(5)));
        let after = link.stats();
        assert_eq!(after.sent_immediate, st.sent_immediate + 1);
        assert_eq!(after.hold, NOTICE_PACE);
        drop(link);
        let (msgs, _) = handle.join().unwrap();
        assert_eq!(
            &msgs[1..],
            &(0..=next).map(numbered).collect::<Vec<_>>()[..],
            "every notice, in order"
        );
    }

    /// A flush, then shutdown, each end a maximum hold with the clock
    /// standing still: the wake-ups the writer's hold wait must answer.
    #[test]
    fn flush_and_shutdown_cut_a_maximum_hold() {
        let (addr, handle) = collecting_listener(1);
        let (link, time) = manual_link(addr, BroadcastConfig::default());
        let (_, next) = ramp(&link, &time, 0, 6);
        assert_eq!(link.stats().hold, NOTICE_PACE_MAX);
        let at = time.now();
        link.send(&numbered(next)).unwrap();
        assert!(link.flush(Duration::from_secs(5)));
        for i in 1..=20 {
            link.send(&numbered(next + i)).unwrap();
        }
        link.shutdown();
        assert_eq!(time.now(), at, "no hold was waited out");
        assert_eq!(link.counters(), (next as u64 + 21, 0));
        let (msgs, _) = handle.join().unwrap();
        assert_eq!(
            &msgs[1..],
            &(0..next + 21).map(numbered).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn reconnect_backoff_is_a_hold() {
        const N: u16 = 30;
        let (addr, handle) = collecting_listener(1);
        let attempts = Arc::new(AtomicU64::new(0));
        let cfg = BroadcastConfig {
            connector: {
                let attempts = Arc::clone(&attempts);
                Arc::new(move |_peer, addr, timeout| {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "scripted"));
                    }
                    TcpStream::connect_timeout(&addr, timeout)
                })
            },
            ..Default::default()
        };
        let (link, time) = manual_link(addr, cfg);
        wait_until("writer parked", || link.parked());
        link.send(&numbered(0)).unwrap(); // the one wake-up; its connect fails
        wait_until("failed delivery counted", || link.counters().1 == 1);
        // The writer now sits out its backoff: these only queue.
        for i in 1..=N {
            link.send(&numbered(i)).unwrap();
        }
        let st = link.stats();
        assert_eq!((st.wakeups, st.queued, st.sent), (1, N as usize, 0));
        // Short of the backoff nothing is retried; at its end the backlog
        // goes out, having waited exactly the backoff.
        time.advance(BACKOFF_MIN - Duration::from_micros(1));
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        time.advance(Duration::from_micros(1));
        wait_until("backlog sent", || link.counters().0 == N as u64);
        let st = link.stats();
        assert_eq!(
            (st.sent, st.frames, st.wakeups, st.dropped),
            (N as u64, 1, 1, 1)
        );
        assert_eq!((st.sent_immediate, st.sent_after_hold), (0, N as u64));
        let delay = link.notice_delay().snapshot();
        let backoff = BACKOFF_MIN.as_micros() as u64;
        assert_eq!(
            (delay.count, delay.max, delay.sum),
            (N as u64, backoff, N as u64 * backoff)
        );
        drop(link);
        let (msgs, batches) = handle.join().unwrap();
        assert_eq!(batches, 1, "the backlog left as one Batch frame");
        assert_eq!(&msgs[1..], &(1..=N).map(numbered).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn link_reconnects_after_peer_restart() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let link = PeerLink::new(NodeId(0), NodeId(1), addr);

        // First connection: accept, read hello+ping, then drop (restart).
        let reconnected = Arc::new(AtomicBool::new(false));
        let t = {
            let reconnected = Arc::clone(&reconnected);
            std::thread::spawn(move || {
                {
                    let (mut s, _) = listener.accept().unwrap();
                    let _ = read_frame(&mut s).unwrap(); // hello
                    let _ = read_frame(&mut s).unwrap(); // ping
                                                         // connection dropped here
                }
                // "Restarted" peer accepts again and reads everything.
                let (mut s, _) = listener.accept().unwrap();
                reconnected.store(true, Ordering::SeqCst);
                let mut msgs = Vec::new();
                while let Ok(Some(f)) = read_frame(&mut s) {
                    match Message::decode(&f).unwrap() {
                        Message::Batch(inner) => msgs.extend(inner),
                        m => msgs.push(m),
                    }
                }
                msgs
            })
        };

        link.send(&numbered(1)).unwrap();
        assert!(link.flush(Duration::from_secs(5)));
        // Keep sending until a write actually fails over to the restarted
        // peer (buffered writes to the half-closed socket can succeed
        // until the RST comes back).
        wait_until("reconnect to restarted peer", || {
            link.send(&numbered(2)).unwrap();
            link.flush(Duration::from_secs(1));
            reconnected.load(Ordering::SeqCst)
        });
        drop(link);
        let msgs = t.join().unwrap();
        assert!(
            msgs.contains(&Message::Hello { node: NodeId(0) }),
            "re-hello on reconnect"
        );
    }

    #[test]
    fn broadcaster_fans_out_one_encode() {
        let (addr_a, ha) = collecting_listener(1);
        let (addr_b, hb) = collecting_listener(1);
        let b = Broadcaster::new(NodeId(0), [(NodeId(1), addr_a), (NodeId(2), addr_b)]);
        assert_eq!(b.peer_count(), 2);
        assert_eq!(b.broadcast(&numbered(1)), 2);
        assert!(b.flush(Duration::from_secs(5)));
        assert_eq!(b.counters().0, 2);
        drop(b);
        for h in [ha, hb] {
            let (msgs, _) = h.join().unwrap();
            assert_eq!(msgs.len(), 2); // hello + notice
            assert_eq!(msgs[1], numbered(1));
        }
    }

    #[test]
    fn broadcast_partial_failure_counts_drops() {
        let (addr_ok, h) = collecting_listener(1);
        let b = Broadcaster::new(
            NodeId(0),
            [
                (NodeId(1), addr_ok),
                (NodeId(2), "127.0.0.1:1".parse().unwrap()),
            ],
        );
        // Both links accept the enqueue; the dead peer's failure shows up
        // asynchronously in the counters.
        assert_eq!(b.broadcast(&numbered(1)), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.counters() != (1, 1) {
            assert!(Instant::now() < deadline, "counters {:?}", b.counters());
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats: Vec<LinkStats> = b.links.iter().map(PeerLink::stats).collect();
        assert_eq!((stats[0].sent, stats[0].dropped), (1, 0));
        assert_eq!((stats[1].sent, stats[1].dropped), (0, 1));
        drop(b);
        h.join().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_notices_to_live_peers() {
        let (addr, handle) = collecting_listener(1);
        let b = Broadcaster::new(NodeId(0), [(NodeId(1), addr)]);
        for i in 0..50u16 {
            b.broadcast(&Message::Hello { node: NodeId(i) });
        }
        // No flush: shutdown itself must deliver everything queued.
        b.shutdown();
        assert_eq!(b.counters(), (50, 0));
        drop(b);
        let (msgs, _) = handle.join().unwrap();
        assert_eq!(msgs.len(), 51, "connection hello + 50 notices");
    }

    #[test]
    fn sends_after_shutdown_fail() {
        let link = PeerLink::new(NodeId(0), NodeId(1), "127.0.0.1:1".parse().unwrap());
        link.shutdown();
        assert!(link.send(&numbered(1)).is_err());
        link.shutdown(); // idempotent
    }

    #[test]
    fn enqueue_reaches_exactly_the_named_peers() {
        // Peer 1 must stay silent, so its listener expects zero
        // connections (links dial lazily, on first delivery).
        let (addr_a, ha) = collecting_listener(0);
        let (addr_b, hb) = collecting_listener(1);
        let b = Broadcaster::new(NodeId(0), [(NodeId(1), addr_a), (NodeId(2), addr_b)]);
        // Nodes without a link (the local node, an out-of-cluster id)
        // get nothing.
        b.enqueue(&[
            (
                &[NodeId(0), NodeId(2), NodeId(9)][..],
                numbered(1).encode().into(),
            ),
            (&[NodeId(0)][..], numbered(2).encode().into()),
        ]);
        assert!(b.flush(Duration::from_secs(5)));
        let stats: Vec<LinkStats> = b.links.iter().map(PeerLink::stats).collect();
        assert_eq!(stats[0].sent, 0, "peer 1 heard nothing");
        assert_eq!(stats[1].sent, 1, "peer 2 got the message");
        assert_eq!(
            stats[1].sent_bytes,
            numbered(1).encode().len() as u64,
            "payload bytes accounted on the delivering link"
        );
        drop(b);
        let (msgs_a, _) = ha.join().unwrap();
        let (msgs_b, _) = hb.join().unwrap();
        assert!(msgs_a.is_empty());
        assert_eq!(
            msgs_b,
            vec![Message::Hello { node: NodeId(0) }, numbered(1)]
        );
    }

    #[test]
    fn solo_broadcaster_is_a_noop() {
        let b = Broadcaster::solo();
        assert_eq!(b.peer_count(), 0);
        assert_eq!(b.broadcast(&numbered(1)), 0);
        assert!(b.flush(Duration::from_millis(10)));
        b.shutdown();
    }

    // The pacing rule alone: `LinkState` driven with explicit instants.

    fn state(depth: usize) -> LinkState {
        LinkState::new(NodeId(1), "127.0.0.1:1".parse().unwrap(), depth)
    }

    fn notice(i: u16) -> Arc<[u8]> {
        numbered(i).encode().into()
    }

    /// What the writer does at `now` on a network that takes every batch
    /// at once in one frame: send what `next` hands it until it must
    /// hold, park or stop. Returns each batch (decoded) with its `held`
    /// flag, and the step it ended on.
    fn settle(st: &mut LinkState, now: Instant) -> (Vec<(Vec<Message>, bool)>, Step) {
        let mut sends = Vec::new();
        loop {
            match st.next(now) {
                Step::Send(batch, held) => {
                    st.sent(&batch, held, 1);
                    let msgs = batch.iter().map(|q| Message::decode(&q.frame).unwrap());
                    sends.push((msgs.collect(), held));
                }
                step => return (sends, step),
            }
        }
    }

    #[test]
    fn spaced_enqueues_all_go_out_at_once() {
        let mut st = state(NOTICE_QUEUE_DEPTH);
        let mut now = Instant::now();
        for i in 0..10 {
            // Each notice finds the writer parked: it wakes it and goes out
            // at once, and the hold after an idle link's send is the base
            // pace, whatever came before.
            assert!(matches!(settle(&mut st, now).1, Step::Park));
            assert_eq!(st.enqueue(now, [notice(i)]), Some(true));
            let (sends, step) = settle(&mut st, now);
            assert_eq!(sends, [(vec![numbered(i)], false)]);
            assert!(matches!(step, Step::Hold(until) if until == now + NOTICE_PACE));
            now += NOTICE_PACE + Duration::from_millis(3);
        }
        let s = &st.stats;
        assert_eq!(s.hold, NOTICE_PACE);
        assert_eq!((s.sent, s.sent_immediate, s.sent_after_hold), (10, 10, 0));
        assert_eq!(
            (s.frames, s.wakeups),
            (10, 10),
            "one frame, one wake-up each"
        );
    }

    #[test]
    fn burst_inside_a_hold_coalesces() {
        const N: u16 = 50;
        let mut st = state(NOTICE_QUEUE_DEPTH);
        let t0 = Instant::now();
        settle(&mut st, t0);
        assert_eq!(st.enqueue(t0, [notice(0)]), Some(true));
        let (sends, step) = settle(&mut st, t0);
        assert_eq!(sends, [(vec![numbered(0)], false)]);
        let Step::Hold(until) = step else {
            panic!("a send is followed by a hold")
        };
        assert_eq!(until, t0 + NOTICE_PACE, "the hold runs from the drain");
        // The burst lands inside the hold: pushes only — no wake-up, and
        // nothing leaves before the hold ends.
        for i in 1..=N {
            let at = t0 + NOTICE_PACE * u32::from(i) / (u32::from(N) + 1);
            assert_eq!(st.enqueue(at, [notice(i)]), Some(false));
            assert!(settle(&mut st, at).0.is_empty());
        }
        let (sends, _) = settle(&mut st, until);
        assert_eq!(sends, [((1..=N).map(numbered).collect(), true)]);
        let s = &st.stats;
        assert_eq!((s.sent, s.frames, s.wakeups), (N as u64 + 1, 2, 1));
        assert_eq!((s.sent_immediate, s.sent_after_hold), (1, N as u64));
        assert_eq!(s.hold, 2 * NOTICE_PACE, "a hold that ends busy doubles");
    }

    #[test]
    fn flush_cuts_a_maximum_hold_short() {
        const ROUNDS: u16 = 20;
        let mut st = state(NOTICE_QUEUE_DEPTH);
        let mut now = Instant::now();
        settle(&mut st, now);
        // Up the ramp: one notice queued into each hold, sent as it ends.
        let mut hold_ends = now;
        for i in 0..4 {
            now = hold_ends;
            st.enqueue(now, [notice(i)]);
            let (_, step) = settle(&mut st, now);
            let Step::Hold(until) = step else {
                panic!("a send is followed by a hold")
            };
            hold_ends = until;
        }
        assert_eq!(st.stats.hold, NOTICE_PACE_MAX);
        // The clock stands still from here: only the flush ends each hold,
        // and only while a notice is queued.
        for i in 4..4 + ROUNDS {
            st.enqueue(now, [notice(i)]);
            assert!(matches!(st.next(now), Step::Hold(_)), "round {i}");
            st.flushers += 1;
            let (sends, step) = settle(&mut st, now);
            st.flushers -= 1;
            assert_eq!(sends, [(vec![numbered(i)], true)], "round {i}");
            assert!(matches!(step, Step::Hold(until) if until == now + NOTICE_PACE_MAX));
        }
        let s = &st.stats;
        let total = u64::from(4 + ROUNDS);
        assert_eq!((s.sent, st.buf.len(), s.dropped), (total, 0, 0));
    }

    #[test]
    fn overflow_on_a_busy_link_drops_oldest_and_counts_it() {
        let mut st = state(4);
        let t0 = Instant::now();
        settle(&mut st, t0);
        assert_eq!(st.enqueue(t0, [notice(0)]), Some(true));
        // The writer took notice 0 and is writing it: the link is busy.
        let Step::Send(first, held) = st.next(t0) else {
            panic!("a woken writer sends")
        };
        for i in 1..=20 {
            assert_eq!(st.enqueue(t0, [notice(i)]), Some(false));
        }
        assert_eq!(
            (st.buf.len(), st.stats.dropped, st.stats.wakeups),
            (4, 16, 1)
        );
        st.sent(&first, held, 1);
        let (sends, _) = settle(&mut st, t0 + NOTICE_PACE);
        let kept: Vec<Message> = [17, 18, 19, 20].map(numbered).into();
        assert_eq!(sends, [(kept, true)], "the newest survive, in order");
        assert_eq!((st.stats.sent, st.stats.dropped), (5, 16));
    }

    /// A producer at 15 k notices/s for one second, the rate
    /// `miss-insert` hands each link, with the writer acting at every
    /// instant the feed reaches. The link coalesces four times what a
    /// constant 500 µs hold did at this rate (8.65 notices/frame), sends
    /// at most one frame per maximum hold plus the ramp — each wake-up
    /// sends at once and after 0.5, 1 and 2 ms before holds reach the
    /// maximum, and the closing flush cuts one hold short — is never woken
    /// per notice, and drops nothing.
    #[test]
    fn loaded_link_coalesces_a_15k_per_second_feed() {
        const NOTICES: u16 = 15_000;
        let gap = Duration::from_micros(1_000_000 / NOTICES as u64);
        let mut st = state(NOTICE_QUEUE_DEPTH);
        let t0 = Instant::now();
        let mut now = t0;
        for i in 0..NOTICES {
            now += gap;
            settle(&mut st, now);
            st.enqueue(now, [notice(i)]);
            settle(&mut st, now);
        }
        st.flushers += 1;
        settle(&mut st, now);
        let s = &st.stats;
        assert_eq!(
            (s.sent, s.dropped, st.buf.len()),
            (NOTICES as u64, 0, 0),
            "{s:?}"
        );
        assert!(
            s.sent >= 32 * s.frames,
            "a loaded link must coalesce: {s:?}"
        );
        let elapsed = (now - t0).as_micros() / NOTICE_PACE_MAX.as_micros();
        let allowed = elapsed as u64 + 4 * s.wakeups + 1;
        assert!(
            s.frames <= allowed,
            "{} frames, more than the hold ramp allows ({allowed}): {s:?}",
            s.frames
        );
        assert!(s.wakeups <= s.frames, "woken per notice: {s:?}");
    }

    /// One input to a link's state in a generated schedule.
    #[derive(Debug, Clone)]
    enum Op {
        /// Hand the link a burst of this many notices.
        Enqueue(u16),
        Advance(Duration),
        /// The writer asks for its next step (not while it is writing).
        Next,
        /// The batch being written went out in this many frames.
        Sent(u64),
        /// The batch being written failed.
        Failed,
        /// A flush caller starts (`true`) or stops waiting.
        Flush(bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (1u16..=12).prop_map(Op::Enqueue),
            4 => (0u64..=5_000).prop_map(|us| Op::Advance(Duration::from_micros(us))),
            6 => Just(Op::Next),
            3 => (1u64..=3).prop_map(Op::Sent),
            1 => Just(Op::Failed),
            1 => any::<bool>().prop_map(Op::Flush),
        ]
    }

    fn id(q: &Queued) -> u64 {
        u64::from_le_bytes(q.frame[..].try_into().unwrap())
    }

    /// A writer's view of one `LinkState` under a generated schedule, with
    /// a model of what the state must do.
    struct Run {
        st: LinkState,
        now: Instant,
        /// Notices handed over so far; each frame is its own number.
        enqueued: u64,
        /// What drop-oldest must leave queued, oldest first.
        model: VecDeque<u64>,
        /// The batch being written, with its `held` flag and drain instant.
        writing: Option<(Vec<Queued>, bool, Instant)>,
        /// No send since the writer parked (or ever).
        idle: bool,
        /// The latest hold or backoff may end no later than this.
        bound: Option<Instant>,
        /// The exact end a hold must have: the drain plus the new hold.
        exact: Option<Instant>,
    }

    impl Run {
        fn new() -> Self {
            Run {
                st: state(8),
                now: Instant::now(),
                enqueued: 0,
                model: VecDeque::new(),
                writing: None,
                idle: true,
                bound: None,
                exact: None,
            }
        }

        fn apply(&mut self, op: &Op) -> Result<(), &'static str> {
            let st = &mut self.st;
            match *op {
                Op::Enqueue(n) => {
                    let ids = self.enqueued..self.enqueued + u64::from(n);
                    self.enqueued = ids.end;
                    let frames = ids.clone().map(|i| Arc::from(i.to_le_bytes()));
                    let dropped = st.stats.dropped;
                    match st.enqueue(self.now, frames) {
                        None if st.shutting_down => {
                            check(
                                st.stats.dropped == dropped + u64::from(n),
                                "refused, not dropped",
                            )?;
                        }
                        None => return Err("refused before shutdown"),
                        Some(_) if st.shutting_down => return Err("accepted after shutdown"),
                        Some(_) => {
                            for i in ids {
                                if self.model.len() == 8 {
                                    self.model.pop_front();
                                }
                                self.model.push_back(i);
                            }
                        }
                    }
                }
                Op::Advance(d) => self.now += d,
                Op::Next if self.writing.is_some() => {}
                Op::Next => {
                    let cut = st.shutting_down || (st.flushers > 0 && !st.buf.is_empty());
                    match st.next(self.now) {
                        Step::Send(batch, held) => {
                            let ids: Vec<u64> = batch.iter().map(id).collect();
                            check(
                                ids == self.model.drain(..).collect::<Vec<_>>(),
                                "not drop-oldest FIFO",
                            )?;
                            check(!ids.is_empty(), "an empty batch")?;
                            check(
                                held != self.idle,
                                "held after a park, or immediate after a send",
                            )?;
                            self.idle = false;
                            self.writing = Some((batch, held, self.now));
                        }
                        Step::Hold(until) => {
                            check(!cut, "a hold a flush or shutdown should cut")?;
                            check(until > self.now, "a hold already over")?;
                            check(
                                self.bound.is_some_and(|b| until <= b),
                                "a hold past its bound",
                            )?;
                            check(
                                self.exact.is_none_or(|e| until == e),
                                "a hold not from the drain",
                            )?;
                        }
                        Step::Park => {
                            check(
                                !st.shutting_down && st.buf.is_empty(),
                                "a park with work left",
                            )?;
                            check(st.stats.hold == NOTICE_PACE, "a park keeps the ramp")?;
                            self.idle = true;
                        }
                        Step::Stop => {
                            check(
                                st.shutting_down && st.buf.is_empty(),
                                "a stop with work left",
                            )?;
                        }
                    }
                }
                Op::Sent(frames) => {
                    if let Some((batch, held, taken_at)) = self.writing.take() {
                        st.sent(&batch, held, frames);
                        self.bound = Some(taken_at + NOTICE_PACE_MAX);
                        self.exact = Some(taken_at + st.stats.hold);
                    }
                }
                Op::Failed => {
                    if let Some((batch, _, _)) = self.writing.take() {
                        st.failed(batch.len(), self.now);
                        self.bound = Some(self.now + BACKOFF_MAX);
                        self.exact = None;
                        if st.shutting_down {
                            self.model.clear();
                        }
                    }
                }
                Op::Flush(on) => st.flushers = usize::from(on),
            }
            self.invariants()
        }

        fn invariants(&self) -> Result<(), &'static str> {
            let (st, s) = (&self.st, &self.st.stats);
            let writing = self.writing.as_ref().map_or(0, |(b, _, _)| b.len() as u64);
            let accounted = s.sent + s.dropped + st.buf.len() as u64 + writing;
            check(self.enqueued == accounted, "a notice unaccounted for")?;
            check(s.sent == s.sent_immediate + s.sent_after_hold, "sent split")?;
            let ms = Duration::from_micros;
            check(
                [500, 1000, 2000, 4000].map(ms).contains(&s.hold),
                "a hold off the ramp",
            )?;
            check(st.buf.len() <= 8, "the queue past its depth")
        }
    }

    fn check(ok: bool, what: &'static str) -> Result<(), &'static str> {
        ok.then_some(()).ok_or(what)
    }

    proptest! {
        /// Any schedule of bursts, clock steps, writer steps, outcomes,
        /// flushes and a shutdown keeps the link's invariants, and
        /// shutdown then drains the link to a stop.
        #[test]
        fn any_schedule_keeps_the_link_invariants(
            ops in proptest::collection::vec(op(), 1..300),
            shutdown_at in proptest::option::of(0usize..300),
        ) {
            let mut run = Run::new();
            for (i, op) in ops.iter().enumerate() {
                if shutdown_at == Some(i) {
                    run.st.shutting_down = true;
                }
                if let Err(e) = run.apply(op) {
                    prop_assert!(false, "op {i} {op:?}: {e}");
                }
            }
            // Shutdown drains: the writer delivers what is left, then stops.
            run.st.shutting_down = true;
            for _ in 0..4 {
                for op in [Op::Sent(1), Op::Next] {
                    if let Err(e) = run.apply(&op) {
                        prop_assert!(false, "drain {op:?}: {e}");
                    }
                }
            }
            prop_assert!(matches!(run.st.next(run.now), Step::Stop));
            let s = &run.st.stats;
            prop_assert_eq!(run.enqueued, s.sent + s.dropped);
        }
    }
}
