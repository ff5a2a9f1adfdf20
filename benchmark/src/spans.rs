//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the harness's own calls into each
//! layer's public functions, kept in memory, and written to
//! `out/<workload>.spans.jsonl` once the run has ended. A span's parent
//! is whatever span was open when it began, so a `Store` wrapper handed
//! to the cache manager nests its `store.*` spans under the
//! `cache.insert` or `cache.lookup` call that caused them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// Request the span belongs to, 0 for set-up work.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; give it back to [`Recorder::exit`].
#[must_use]
pub struct Open {
    id: u32,
    parent: u32,
    start: Instant,
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost open span (the parent of the next one to open).
    scope: AtomicU32,
    /// Request id stamped on new spans.
    req: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            scope: AtomicU32::new(0),
            req: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_request(&self, req: u32) {
        self.req.store(req, Ordering::Relaxed);
    }

    // The probe is single-threaded; Relaxed atomics only make the
    // recorder `Sync` so a `Store` wrapper may hold it.
    pub fn enter(&self) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.scope.swap(id, Ordering::Relaxed);
        Open {
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Close `open` under `name` (chosen now, so a lookup span can be
    /// named after how it turned out).
    pub fn exit(&self, open: Open, name: &'static str) {
        let end = Instant::now();
        self.scope.store(open.parent, Ordering::Relaxed);
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: self.req.load(Ordering::Relaxed),
            name,
            start_ns: (open.start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span list poisoned: a probe thread panicked")
            .push(span);
    }

    /// Time one call as a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter();
        let out = f();
        self.exit(open, name);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span list poisoned: a probe thread panicked")
    }
}

/// Self time of every span — its duration minus the part its child spans
/// cover — grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_time: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_insert(0) += s.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let children = child_time.get(&s.id).copied().unwrap_or(0);
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns().saturating_sub(children));
    }
    by_name
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "request", 0, 1000),
            span(2, 1, "cache.insert", 100, 700),
            span(3, 2, "store.put", 200, 500),
            span(4, 2, "store.delete", 500, 600),
            span(5, 1, "http.write", 700, 900),
        ];
        let st = self_times(&spans);
        assert_eq!(st["request"], vec![1000 - 600 - 200]);
        assert_eq!(st["cache.insert"], vec![600 - 300 - 100]);
        assert_eq!(st["store.put"], vec![300]);
        assert_eq!(st["http.write"], vec![200]);
    }

    #[test]
    fn recorder_nests_by_open_scope() {
        let rec = Recorder::new();
        rec.set_request(7);
        rec.span("outer", || {
            rec.span("inner", || ());
            rec.span("inner", || ());
        });
        rec.span("sibling", || ());
        let spans = rec.into_spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id && s.req == 7));
        assert_eq!(
            spans.iter().find(|s| s.name == "sibling").unwrap().parent,
            0
        );
        let st = self_times(&spans);
        let inner: u64 = st["inner"].iter().sum();
        assert_eq!(st["outer"][0], outer.duration_ns() - inner);
    }
}
