//! The per-node telemetry bundle: one [`MetricsRegistry`], one bounded
//! trace ring, a trace-id generator, and the per-outcome request
//! latency histograms — everything a Swala node shares between its
//! request pool, cache daemons and admin endpoints.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::registry::MetricsRegistry;
use crate::trace::{CompletedTrace, Outcome, Trace};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Completed traces the recency ring keeps (`/swala-traces`).
///
/// A constant, not a knob: the ring answers "what happened lately" for
/// the last few hundred requests in bounded memory; the per-outcome
/// histograms and the slow set keep what matters from before that.
pub const TRACE_RING: usize = 256;

/// Slowest completed traces kept per outcome class
/// (`/swala-traces?slow=1`).
///
/// A constant, not a knob: eight exemplars per class show the tail's
/// shape without growing the one mutex hold per finished trace.
pub const SLOW_TRACES: usize = 8;

/// Bounded ring of completed traces, newest last.
struct TraceRing {
    capacity: usize,
    traces: Mutex<VecDeque<CompletedTrace>>,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            traces: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    fn push(&self, trace: CompletedTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut traces = self.traces.lock();
        if traces.len() == self.capacity {
            traces.pop_front();
        }
        traces.push_back(trace);
    }

    fn last(&self, n: usize) -> Vec<CompletedTrace> {
        let traces = self.traces.lock();
        traces.iter().rev().take(n).rev().cloned().collect()
    }
}

/// Slowest-K completed traces per outcome class, kept separately from
/// the recency ring so a burst of fast hits cannot evict the
/// interesting tail. One short mutex hold per finished trace; the
/// common case (faster than the current K-th) is a compare-and-return.
struct SlowSet {
    capacity: usize,
    /// Indexed by position in `Outcome::ALL`; each sorted by
    /// `total_us` descending, at most `capacity` long.
    per_outcome: Mutex<Vec<Vec<CompletedTrace>>>,
}

impl SlowSet {
    fn new(capacity: usize) -> SlowSet {
        SlowSet {
            capacity,
            per_outcome: Mutex::new(vec![Vec::new(); Outcome::ALL.len()]),
        }
    }

    fn offer(&self, idx: usize, trace: &CompletedTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut sets = self.per_outcome.lock();
        let set = &mut sets[idx];
        if set.len() == self.capacity && trace.total_us <= set[set.len() - 1].total_us {
            return;
        }
        let pos = set.partition_point(|t| t.total_us > trace.total_us);
        set.insert(pos, trace.clone());
        set.truncate(self.capacity);
    }

    /// All retained exemplars, grouped by outcome order, slowest first
    /// within each group.
    fn dump(&self) -> Vec<CompletedTrace> {
        self.per_outcome.lock().iter().flatten().cloned().collect()
    }
}

/// Summary of a finished trace, for the enriched access-log line.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub id: u64,
    pub outcome: Outcome,
    pub owner: Option<u16>,
    pub total_us: u64,
    /// Preformatted `stage:micros,...` list.
    pub stages: String,
}

/// Per-node telemetry: registry + trace ring + request histograms.
pub struct Telemetry {
    enabled: bool,
    node: u16,
    registry: MetricsRegistry,
    ring: TraceRing,
    slow: SlowSet,
    next_trace: AtomicU64,
    traces_dropped: Arc<AtomicU64>,
    /// One histogram per [`Outcome`], indexed by position in `Outcome::ALL`.
    request_hists: Vec<Arc<Histogram>>,
}

impl Telemetry {
    /// A live telemetry bundle for `node`, keeping the last
    /// [`TRACE_RING`] completed traces and [`SLOW_TRACES`] slow-trace
    /// exemplars per outcome.
    pub fn new(node: u16) -> Arc<Telemetry> {
        Arc::new(Telemetry::build(node, TRACE_RING, SLOW_TRACES, true))
    }

    /// A disabled bundle: traces are no-ops and histograms never record,
    /// but the registry still works so counters stay scrapeable.
    pub fn disabled(node: u16) -> Arc<Telemetry> {
        Arc::new(Telemetry::build(node, 0, 0, false))
    }

    fn build(node: u16, trace_ring: usize, slow_traces: usize, enabled: bool) -> Telemetry {
        let registry = MetricsRegistry::new();
        let request_hists = Outcome::ALL
            .iter()
            .map(|o| {
                registry.histogram_labeled(
                    "swala_request_duration_microseconds",
                    "End-to-end request latency by cache outcome",
                    "outcome",
                    o.as_str(),
                )
            })
            .collect();
        let traces_dropped = Arc::new(AtomicU64::new(0));
        let dropped = Arc::clone(&traces_dropped);
        registry.register_counter(
            "swala_traces_dropped",
            "Traces discarded before completion (connection died mid-request)",
            move || dropped.load(Ordering::Relaxed),
        );
        Telemetry {
            enabled,
            node,
            registry,
            ring: TraceRing::new(trace_ring),
            slow: SlowSet::new(slow_traces),
            next_trace: AtomicU64::new(1),
            traces_dropped,
            request_hists,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn node(&self) -> u16 {
        self.node
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mint a node-unique trace id: node in the top 16 bits, a per-node
    /// counter below — unique across the cluster without coordination.
    fn next_id(&self) -> u64 {
        let seq = self.next_trace.fetch_add(1, Ordering::Relaxed) & 0x0000_FFFF_FFFF_FFFF;
        ((self.node as u64) << 48) | seq
    }

    /// Begin a trace for a locally accepted request. `start` anchors
    /// span offsets (pass the first-read instant so parse lands at 0).
    pub fn begin_trace(&self, target: &str, start: Instant) -> Trace {
        if !self.enabled {
            return Trace::disabled();
        }
        Trace::active(self.next_id(), self.node, target, start)
    }

    /// Begin a trace that adopts a peer's id (owner side of a remote
    /// fetch) so both nodes' dumps correlate on the same id.
    pub fn begin_trace_with_id(&self, id: u64, target: &str) -> Trace {
        if !self.enabled {
            return Trace::disabled();
        }
        Trace::active(id, self.node, target, Instant::now())
    }

    /// Finish a trace: record its total into the per-outcome histogram
    /// and park it in the ring.
    pub fn record(&self, trace: Trace) {
        self.complete(trace, false);
    }

    /// [`record`](Self::record), returning the access-log summary — for
    /// callers that write one; formatting it is not free.
    pub fn finish(&self, trace: Trace) -> Option<TraceSummary> {
        self.complete(trace, true)
    }

    fn complete(&self, trace: Trace, summarize: bool) -> Option<TraceSummary> {
        let done = trace.finish()?;
        let idx = Outcome::ALL
            .iter()
            .position(|o| *o == done.outcome)
            .expect("outcome in ALL");
        self.request_hists[idx].record(done.total_us);
        let summary = summarize.then(|| TraceSummary {
            id: done.id,
            outcome: done.outcome,
            owner: done.owner,
            total_us: done.total_us,
            stages: done.stage_summary(),
        });
        self.slow.offer(idx, &done);
        self.ring.push(done);
        summary
    }

    /// Drop a trace without recording it (e.g. unparseable request).
    pub fn discard(&self, trace: Trace) {
        if trace.finish().is_some() {
            self.traces_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The last `n` completed traces, oldest first.
    pub fn last_traces(&self, n: usize) -> Vec<CompletedTrace> {
        self.ring.last(n)
    }

    /// The last `n` completed traces as a JSON array.
    pub fn traces_json(&self, n: usize) -> String {
        let traces = self.ring.last(n);
        let mut out = String::from("[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push(']');
        out
    }

    /// The retained slow-trace exemplars, grouped by outcome class
    /// (order of [`Outcome::ALL`]), slowest first within each class.
    pub fn slow_traces(&self) -> Vec<CompletedTrace> {
        self.slow.dump()
    }

    /// The slow-trace exemplars as a JSON array (`/swala-traces?slow=1`).
    pub fn slow_traces_json(&self) -> String {
        let traces = self.slow.dump();
        let mut out = String::from("[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push(']');
        out
    }

    /// Snapshot of the request-latency histogram for one outcome.
    pub fn outcome_snapshot(&self, outcome: Outcome) -> HistogramSnapshot {
        let idx = Outcome::ALL
            .iter()
            .position(|o| *o == outcome)
            .expect("outcome in ALL");
        self.request_hists[idx].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stage;

    #[test]
    fn ids_are_node_scoped_and_unique() {
        let t = Telemetry::new(3);
        let a = t.begin_trace("/a", Instant::now()).id().unwrap();
        let b = t.begin_trace("/b", Instant::now()).id().unwrap();
        assert_ne!(a, b);
        assert_eq!(a >> 48, 3);
        assert_eq!(b >> 48, 3);
    }

    #[test]
    fn finish_lands_in_ring_and_histogram() {
        let tel = Telemetry::new(0);
        for i in 0..6 {
            let mut tr = tel.begin_trace(&format!("/t{i}"), Instant::now());
            tr.set_outcome(Outcome::Miss);
            let s = tr.start_span();
            tr.end_span(Stage::CgiExec, s);
            let summary = tel.finish(tr).unwrap();
            assert_eq!(summary.outcome, Outcome::Miss);
            assert!(summary.stages.starts_with("cgi-exec:"));
        }
        let last = tel.last_traces(10);
        assert_eq!(last.len(), 6);
        assert_eq!(last[5].target, "/t5");
        assert_eq!(tel.last_traces(2).len(), 2);
        assert_eq!(tel.outcome_snapshot(Outcome::Miss).count, 6);
        assert_eq!(tel.outcome_snapshot(Outcome::Remote).count, 0);
        let json = tel.traces_json(3);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"outcome\":\"miss\""));
    }

    #[test]
    fn disabled_bundle_produces_no_traces() {
        let tel = Telemetry::disabled(0);
        assert!(!tel.enabled());
        let tr = tel.begin_trace("/x", Instant::now());
        assert!(!tr.is_enabled());
        assert!(tel.finish(tr).is_none());
        assert!(tel.last_traces(10).is_empty());
        assert_eq!(tel.traces_json(10), "[]");
        // The registry still renders (counters remain scrapeable).
        assert!(tel
            .registry()
            .render()
            .contains("swala_request_duration_microseconds"));
    }

    #[test]
    fn adopted_ids_pass_through_verbatim() {
        let tel = Telemetry::new(1);
        let mut tr = tel.begin_trace_with_id(0xdead_beef, "/k");
        tr.set_outcome(Outcome::OwnerServe);
        let summary = tel.finish(tr).unwrap();
        assert_eq!(summary.id, 0xdead_beef);
        assert_eq!(tel.last_traces(1)[0].id, 0xdead_beef);
    }

    #[test]
    fn trace_ring_is_bounded_and_keeps_the_newest() {
        let ring = TraceRing::new(4);
        for us in 0..6 {
            ring.push(fake_trace(Outcome::Miss, us));
        }
        let last = ring.last(10);
        assert_eq!(last.len(), 4);
        assert_eq!(last[0].target, "/t2");
        assert_eq!(last[3].target, "/t5");
        let none = TraceRing::new(0);
        none.push(fake_trace(Outcome::Miss, 1));
        assert!(none.last(10).is_empty(), "0 keeps none (obs off)");
    }

    fn fake_trace(outcome: Outcome, total_us: u64) -> CompletedTrace {
        CompletedTrace {
            id: total_us,
            node: 0,
            outcome,
            owner: None,
            target: format!("/t{total_us}"),
            total_us,
            remote_attempts: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn slow_set_keeps_the_slowest_k_per_outcome() {
        let slow = SlowSet::new(3);
        let miss_idx = Outcome::ALL
            .iter()
            .position(|o| *o == Outcome::Miss)
            .unwrap();
        let mem_idx = Outcome::ALL
            .iter()
            .position(|o| *o == Outcome::LocalMem)
            .unwrap();
        // A burst of fast hits must not evict the slow misses.
        for us in [900, 50, 700, 10, 800, 20, 30] {
            slow.offer(miss_idx, &fake_trace(Outcome::Miss, us));
        }
        for us in 1..=100 {
            slow.offer(mem_idx, &fake_trace(Outcome::LocalMem, us));
        }
        let dump = slow.dump();
        let misses: Vec<u64> = dump
            .iter()
            .filter(|t| t.outcome == Outcome::Miss)
            .map(|t| t.total_us)
            .collect();
        assert_eq!(misses, vec![900, 800, 700], "slowest first, fast dropped");
        let mems: Vec<u64> = dump
            .iter()
            .filter(|t| t.outcome == Outcome::LocalMem)
            .map(|t| t.total_us)
            .collect();
        assert_eq!(mems, vec![100, 99, 98]);
    }

    #[test]
    fn slow_exemplars_survive_ring_churn() {
        let tel = Telemetry::new(0);
        // One slow(ish) miss, then enough fast hits to wrap the ring.
        let mut tr = tel.begin_trace("/slow", Instant::now());
        tr.set_outcome(Outcome::Miss);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tel.finish(tr).unwrap();
        for i in 0..TRACE_RING + 8 {
            let mut tr = tel.begin_trace(&format!("/fast{i}"), Instant::now());
            tr.set_outcome(Outcome::LocalMem);
            tel.finish(tr).unwrap();
        }
        // The recency ring has long forgotten the miss...
        assert!(tel
            .last_traces(TRACE_RING)
            .iter()
            .all(|t| t.target != "/slow"));
        // ...but the slow set still holds it.
        let slow = tel.slow_traces();
        assert!(slow.iter().any(|t| t.target == "/slow"), "{slow:?}");
        let json = tel.slow_traces_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"target\":\"/slow\""));
    }

    #[test]
    fn registry_exposition_is_parseable() {
        let tel = Telemetry::new(0);
        let mut tr = tel.begin_trace("/x", Instant::now());
        tr.set_outcome(Outcome::LocalMem);
        tel.finish(tr);
        let text = tel.registry().render();
        let samples = crate::registry::parse_exposition(&text).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "swala_request_duration_microseconds_count"
                && s.labels == vec![("outcome".to_string(), "local-mem".to_string())]
                && s.value == 1.0));
    }
}
