//! Per-request tracing: typed span events, node-unique trace ids, and a
//! bounded ring of completed traces.
//!
//! A [`Trace`] is created at accept time and threaded by `&mut` through
//! the request path; each instrumented stage calls
//! [`Trace::start_span`] / [`Trace::end_span`] around its work — one
//! `Instant` pair per stage, nothing else, and one `Instant` for two
//! adjacent stages ([`Trace::end_span`] returns the instant the next
//! stage starts at). When tracing is disabled the handle is a `None` and
//! every call is a no-op that never reads the clock, which is what makes
//! the `obs off` bench comparison honest.
//!
//! A live trace allocates nothing in steady state: its target is the
//! request's shared key text, and its span list is the one a trace
//! evicted from the ring gave back ([`recycle_spans`]).
//!
//! Trace ids are `node_id << 48 | per-node counter`: unique per node
//! without coordination, and the owning node of a remote fetch adopts
//! the requester's id (it rides the wire in `FetchRequest`), so one
//! user request yields correlated spans on both machines.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The instrumented stages of a request, in rough path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading + parsing the HTTP request off the socket.
    Parse,
    /// Routing to the dynamic path and cacheability rule evaluation
    /// (from the end of the parse).
    Rules,
    /// Replicated-directory classification.
    DirLookup,
    /// Memory-tier probe (hit or miss).
    MemTier,
    /// Disk-store body read.
    StoreRead,
    /// Remote fetch from the owning node, including retries/backoff.
    RemoteFetch,
    /// Blocked on another request's in-flight execution of the same key
    /// (single-flight coalescing).
    CoalesceWait,
    /// CGI program execution.
    CgiExec,
    /// Enqueueing cache notices onto the broadcast pipeline.
    BroadcastEnqueue,
    /// Writing the response to the client socket.
    ResponseWrite,
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Rules => "rules",
            Stage::DirLookup => "dir-lookup",
            Stage::MemTier => "mem-tier",
            Stage::StoreRead => "store-read",
            Stage::RemoteFetch => "remote-fetch",
            Stage::CoalesceWait => "coalesce-wait",
            Stage::CgiExec => "cgi-exec",
            Stage::BroadcastEnqueue => "broadcast-enqueue",
            Stage::ResponseWrite => "response-write",
        }
    }
}

/// Where the response body ultimately came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Cache hit served from the in-memory body tier.
    LocalMem,
    /// Cache hit served from the local disk store.
    LocalDisk,
    /// Cache hit fetched from the owning peer.
    Remote,
    /// Cacheable miss — executed locally.
    Miss,
    /// Not cacheable (rules, method, caching disabled, static file error).
    Uncacheable,
    /// Static file.
    Static,
    /// Owner side of a peer's remote fetch (cache-daemon serve).
    OwnerServe,
    /// Everything else (admin endpoints, errors).
    Other,
}

impl Outcome {
    /// Every outcome, in exposition order.
    pub const ALL: [Outcome; 8] = [
        Outcome::LocalMem,
        Outcome::LocalDisk,
        Outcome::Remote,
        Outcome::Miss,
        Outcome::Uncacheable,
        Outcome::Static,
        Outcome::OwnerServe,
        Outcome::Other,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::LocalMem => "local-mem",
            Outcome::LocalDisk => "local-disk",
            Outcome::Remote => "remote",
            Outcome::Miss => "miss",
            Outcome::Uncacheable => "uncacheable",
            Outcome::Static => "static",
            Outcome::OwnerServe => "owner-serve",
            Outcome::Other => "other",
        }
    }
}

/// One completed span: offset from trace start plus duration, in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub stage: Stage,
    pub start_us: u64,
    pub duration_us: u64,
}

/// A finished trace, as stored in the ring and dumped by `/swala-traces`.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    pub id: u64,
    /// Node that recorded this trace (requester and owner record separately).
    pub node: u16,
    pub outcome: Outcome,
    /// Owning node of the entry, when the request touched a remote owner.
    pub owner: Option<u16>,
    pub target: Arc<str>,
    pub total_us: u64,
    /// Fetch attempts spent on the remote-fetch stage (0 = no fetch).
    pub remote_attempts: u32,
    pub spans: Vec<SpanRecord>,
}

impl CompletedTrace {
    /// One JSON object, no external deps (matches the bench reports'
    /// handwritten-JSON convention).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"id\":\"{:016x}\",\"node\":{},\"outcome\":\"{}\",\"owner\":",
            self.id,
            self.node,
            self.outcome.as_str()
        );
        match self.owner {
            Some(o) => {
                let _ = write!(s, "{o}");
            }
            None => s.push_str("null"),
        }
        let _ = write!(
            s,
            ",\"target\":\"{}\",\"total_us\":{},\"remote_attempts\":{},\"spans\":[",
            json_escape(&self.target),
            self.total_us,
            self.remote_attempts
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":\"{}\",\"start_us\":{},\"duration_us\":{}}}",
                sp.stage.as_str(),
                sp.start_us,
                sp.duration_us
            );
        }
        s.push_str("]}");
        s
    }

    /// Compact `stage:micros` list for the enriched access-log line.
    pub fn stage_summary(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", sp.stage.as_str(), sp.duration_us);
        }
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Spans a trace starts with room for: a hit records five.
const SPAN_ROOM: usize = 8;

thread_local! {
    /// A span list given back by a finished trace, for the next trace
    /// this thread begins.
    static SPARE_SPANS: Cell<Vec<SpanRecord>> = const { Cell::new(Vec::new()) };
}

/// Give a finished trace's span list back for reuse by the next trace
/// this thread begins.
pub(crate) fn recycle_spans(mut spans: Vec<SpanRecord>) {
    spans.clear();
    SPARE_SPANS.with(|spare| {
        let kept = spare.take();
        spare.set(if kept.capacity() >= spans.capacity() {
            kept
        } else {
            spans
        });
    });
}

struct ActiveTrace {
    id: u64,
    node: u16,
    start: Instant,
    outcome: Outcome,
    owner: Option<u16>,
    target: Arc<str>,
    remote_attempts: u32,
    spans: Vec<SpanRecord>,
    /// When the latest span ended.
    last_end: Option<Instant>,
    /// When the response write ended: the request's last stage, so its
    /// end is the trace's end.
    written: Option<Instant>,
}

impl ActiveTrace {
    fn push(&mut self, stage: Stage, started: Instant, ended: Instant) {
        self.last_end = Some(ended);
        self.spans.push(SpanRecord {
            stage,
            start_us: started.saturating_duration_since(self.start).as_micros() as u64,
            duration_us: ended.saturating_duration_since(started).as_micros() as u64,
        });
    }
}

/// A per-request trace handle. Disabled handles (`Trace::disabled()`)
/// are a `None`, and every method is a branch-and-return.
pub struct Trace(Option<ActiveTrace>);

impl Trace {
    /// The always-no-op handle used when telemetry is off.
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// A live handle; `start` anchors span offsets (pass the accept /
    /// first-read instant when available so the parse span lands at 0).
    /// `target` is shared, not copied, when it is an `Arc<str>` already.
    pub fn active(id: u64, node: u16, target: impl Into<Arc<str>>, start: Instant) -> Trace {
        let mut spans = SPARE_SPANS.take();
        spans.reserve(SPAN_ROOM);
        Trace(Some(ActiveTrace {
            id,
            node,
            start,
            outcome: Outcome::Other,
            owner: None,
            target: target.into(),
            remote_attempts: 0,
            spans,
            last_end: None,
            written: None,
        }))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|t| t.id)
    }

    /// Start a span: reads the clock only when tracing is live.
    #[inline]
    pub fn start_span(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Start a span where the latest one ended, for a stage that follows
    /// it: no clock read unless this is the trace's first span.
    #[inline]
    pub fn resume_span(&self) -> Option<Instant> {
        let t = self.0.as_ref()?;
        Some(t.last_end.unwrap_or_else(Instant::now))
    }

    /// Close a span opened by [`start_span`](Self::start_span), or by the
    /// previous `end_span`: the instant returned is this span's end, for
    /// a stage that follows at once to start at without a clock read of
    /// its own.
    #[inline]
    pub fn end_span(&mut self, stage: Stage, started: Option<Instant>) -> Option<Instant> {
        let (Some(t), Some(t0)) = (self.0.as_mut(), started) else {
            return None;
        };
        let now = Instant::now();
        t.push(stage, t0, now);
        if stage == Stage::ResponseWrite {
            t.written = Some(now);
        }
        Some(now)
    }

    /// Record a span with an explicit pair of instants (used when the
    /// measurement was taken before the trace existed, e.g. parse).
    pub fn record_span(&mut self, stage: Stage, started: Instant, ended: Instant) {
        if let Some(t) = self.0.as_mut() {
            t.push(stage, started, ended);
        }
    }

    pub fn set_outcome(&mut self, outcome: Outcome) {
        if let Some(t) = self.0.as_mut() {
            t.outcome = outcome;
        }
    }

    pub fn set_owner(&mut self, node: u16) {
        if let Some(t) = self.0.as_mut() {
            t.owner = Some(node);
        }
    }

    pub fn add_remote_attempts(&mut self, attempts: u32) {
        if let Some(t) = self.0.as_mut() {
            t.remote_attempts += attempts;
        }
    }

    /// Close the trace into a [`CompletedTrace`]; `None` when disabled.
    /// It ends where its response write ended, or now if it has none.
    pub fn finish(self) -> Option<CompletedTrace> {
        let t = self.0?;
        let end = t.written.unwrap_or_else(Instant::now);
        Some(CompletedTrace {
            id: t.id,
            node: t.node,
            outcome: t.outcome,
            owner: t.owner,
            target: t.target,
            total_us: end.saturating_duration_since(t.start).as_micros() as u64,
            remote_attempts: t.remote_attempts,
            spans: t.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let mut t = Trace::disabled();
        assert!(!t.is_enabled());
        assert!(t.id().is_none());
        let s = t.start_span();
        assert!(s.is_none());
        t.end_span(Stage::Parse, s);
        t.set_outcome(Outcome::Miss);
        t.set_owner(3);
        t.add_remote_attempts(2);
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_accumulate_in_order() {
        let start = Instant::now();
        let mut t = Trace::active(0x0001_0000_0000_002a, 1, "/cgi-bin/adl?id=1", start);
        assert_eq!(t.id(), Some(0x0001_0000_0000_002a));
        let s = t.start_span();
        assert!(s.is_some());
        t.end_span(Stage::Rules, s);
        let s = t.start_span();
        t.end_span(Stage::DirLookup, s);
        t.set_outcome(Outcome::LocalMem);
        let done = t.finish().unwrap();
        assert_eq!(done.node, 1);
        assert_eq!(done.outcome, Outcome::LocalMem);
        assert_eq!(done.spans.len(), 2);
        assert_eq!(done.spans[0].stage, Stage::Rules);
        assert_eq!(done.spans[1].stage, Stage::DirLookup);
        assert!(done.spans[1].start_us >= done.spans[0].start_us);
    }

    #[test]
    fn adjacent_spans_share_an_instant_and_spans_are_recycled() {
        let start = Instant::now();
        let target: Arc<str> = Arc::from("/k");
        let mut t = Trace::active(1, 0, Arc::clone(&target), start);
        let t0 = t.start_span();
        let t1 = t.end_span(Stage::Rules, t0);
        assert!(t1 >= t0);
        assert_eq!(t.resume_span(), t1, "a resumed span starts at the last end");
        let t2 = t.end_span(Stage::DirLookup, t1);
        assert!(t2 >= t1);
        let done = t.finish().unwrap();
        assert!(Arc::ptr_eq(&done.target, &target), "the target is shared");
        let stages: Vec<Stage> = done.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, [Stage::Rules, Stage::DirLookup]);
        // The next trace on this thread starts with the list given back.
        let spans = done.spans;
        let buffer = spans.as_ptr();
        recycle_spans(spans);
        let mut next = Trace::active(2, 0, "/k2", start);
        next.record_span(Stage::Parse, start, start);
        assert_eq!(next.finish().unwrap().spans.as_ptr(), buffer);
    }

    #[test]
    fn a_trace_ends_where_its_response_write_ends() {
        let start = Instant::now();
        let mut t = Trace::active(1, 0, "/k", start);
        let t0 = t.start_span();
        let written = t.end_span(Stage::ResponseWrite, t0).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let done = t.finish().unwrap();
        assert_eq!(done.total_us, (written - start).as_micros() as u64);
        // Without a write, now.
        let t = Trace::active(2, 0, "/k", start);
        assert!(t.finish().unwrap().total_us >= 3_000);
    }

    #[test]
    fn json_shape_is_parseable_by_eye() {
        let done = CompletedTrace {
            id: 0xabc,
            node: 0,
            outcome: Outcome::Remote,
            owner: Some(1),
            target: Arc::from("/x\"y"),
            total_us: 120,
            remote_attempts: 2,
            spans: vec![SpanRecord {
                stage: Stage::RemoteFetch,
                start_us: 5,
                duration_us: 100,
            }],
        };
        let j = done.to_json();
        assert!(j.contains("\"id\":\"0000000000000abc\""));
        assert!(j.contains("\"outcome\":\"remote\""));
        assert!(j.contains("\"owner\":1"));
        assert!(j.contains("\\\"y"));
        assert!(j.contains("\"stage\":\"remote-fetch\""));
        assert_eq!(done.stage_summary(), "remote-fetch:100");
    }

    #[test]
    fn every_stage_and_outcome_has_a_distinct_name() {
        let stages = [
            Stage::Parse,
            Stage::Rules,
            Stage::DirLookup,
            Stage::MemTier,
            Stage::StoreRead,
            Stage::RemoteFetch,
            Stage::CoalesceWait,
            Stage::CgiExec,
            Stage::BroadcastEnqueue,
            Stage::ResponseWrite,
        ];
        let mut names: Vec<&str> = stages.iter().map(|s| s.as_str()).collect();
        names.extend(Outcome::ALL.iter().map(|o| o.as_str()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
