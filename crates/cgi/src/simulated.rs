//! Simulated CGI programs with controllable cost and output.
//!
//! The real ADL programs (spatial queries, multi-resolution image
//! extraction) are proprietary; the properties that matter to every
//! experiment in the paper are (a) service time, (b) output size and
//! (c) determinism. `SimulatedProgram` controls all three exactly.
//!
//! Two built-in parameter conventions make trace-driven workloads easy:
//!
//! * `nullcgi` — "does no work and produces less than a hundred bytes of
//!   output" (§5.1, Figure 3);
//! * `adl` — reads `ms` (service time in milliseconds) and `id` (identity)
//!   from the query string, so a synthesized trace fully determines cost
//!   and cache identity.

use crate::output::CgiOutput;
use crate::program::{CgiRequest, Program};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// How simulated service time is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Busy-spin on the CPU. Faithful to the paper's CPU-bound workload:
    /// concurrent requests on one node contend for cores, so response time
    /// grows with load, which Figures 3–4 depend on.
    Spin,
    /// Sleep. The request occupies a handler thread but no core — useful
    /// for I/O-bound modelling and for cheap large-scale tests.
    Sleep,
}

/// A deterministic CGI program with configurable cost.
pub struct SimulatedProgram {
    name: String,
    /// Fixed service time; may be overridden per-request by the `ms`
    /// query parameter when `trace_driven` is set.
    base_cost: Duration,
    work: WorkKind,
    /// Fixed output size in bytes (payload is deterministic filler).
    output_bytes: usize,
    /// Honor `ms=` / `bytes=` query overrides (trace-driven workloads).
    trace_driven: bool,
}

impl SimulatedProgram {
    /// Program with a fixed cost and output size.
    pub fn fixed(name: &str, cost: Duration, work: WorkKind, output_bytes: usize) -> Self {
        SimulatedProgram {
            name: name.to_string(),
            base_cost: cost,
            work,
            output_bytes,
            trace_driven: false,
        }
    }

    /// Program whose cost/size come from `ms=`/`bytes=` query parameters.
    ///
    /// This is the workhorse for synthesized ADL traces: the trace decides
    /// each request's cost, and distinct `id=` values give distinct cache
    /// keys automatically (the key is path+query).
    pub fn trace_driven(name: &str, work: WorkKind) -> Self {
        SimulatedProgram {
            name: name.to_string(),
            base_cost: Duration::ZERO,
            work,
            output_bytes: 1024,
            trace_driven: true,
        }
    }

    fn cost_for(&self, req: &CgiRequest) -> Duration {
        if self.trace_driven {
            if let Some(ms) = req.param_u64("ms") {
                return Duration::from_millis(ms);
            }
        }
        self.base_cost
    }

    fn output_bytes_for(&self, req: &CgiRequest) -> usize {
        if self.trace_driven {
            if let Some(b) = req.param_u64("bytes") {
                return b as usize;
            }
        }
        self.output_bytes
    }
}

impl Program for SimulatedProgram {
    fn run(&self, req: &CgiRequest) -> io::Result<CgiOutput> {
        let cost = self.cost_for(req);
        match self.work {
            WorkKind::Sleep => {
                if !cost.is_zero() {
                    std::thread::sleep(cost);
                }
            }
            WorkKind::Spin => spin_for(cost),
        }
        let size = self.output_bytes_for(req);
        Ok(CgiOutput::html(render_body(&self.name, req, size)))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Burn CPU for `d`, resistant to compiler elision.
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    while start.elapsed() < d {
        // A short batch of arithmetic between clock checks keeps the
        // Instant::now() overhead negligible at millisecond costs.
        for i in 0..512u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        black_box(acc);
    }
}

/// Length of one filler line, newline included.
const FILLER_LINE: usize = 64;

/// Deterministic HTML body: identity line + filler up to `size` bytes.
///
/// The body is a pure function of (program, script, query), which is what
/// makes cached results verifiable in tests: re-execution must reproduce
/// the cached bytes exactly.
fn render_body(program: &str, req: &CgiRequest, size: usize) -> Vec<u8> {
    let header = format!(
        "<html><body><p>program={program} script={} query={}</p>\n",
        req.script_name, req.query_string
    );
    let footer = "</body></html>\n";
    let mut body = Vec::with_capacity(size.max(header.len() + footer.len()));
    body.extend_from_slice(header.as_bytes());
    // Deterministic filler derived from the query, so different requests
    // produce different payloads (useful for corruption detection): every
    // line is the alphabet rotated to start at the query's letter, cut to
    // length and newline-terminated. It is the workload's stand-in, so it
    // is copied a line at a time rather than computed a byte at a time.
    let seed = req
        .query_string
        .bytes()
        .fold(17u8, |a, b| a.wrapping_mul(31).wrapping_add(b));
    let line: [u8; FILLER_LINE] = std::array::from_fn(|i| b'a' + ((seed as usize + i) % 26) as u8);
    while body.len() + footer.len() < size {
        let line_len = (size - footer.len() - body.len()).min(FILLER_LINE);
        body.extend_from_slice(&line[..line_len - 1]);
        body.push(b'\n');
    }
    body.extend_from_slice(footer.as_bytes());
    body
}

/// The paper's `nullcgi`: no work, under a hundred bytes of output (§5.1).
pub fn null_cgi() -> SimulatedProgram {
    SimulatedProgram::fixed("nullcgi", Duration::ZERO, WorkKind::Spin, 80)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_http::Request;

    fn cgi(target: &str) -> CgiRequest {
        CgiRequest::from_http(&Request::get(target).unwrap(), "c:1", "n", 80)
    }

    #[test]
    fn nullcgi_is_fast_and_small() {
        let p = null_cgi();
        let start = Instant::now();
        let out = p.run(&cgi("/cgi-bin/nullcgi")).unwrap();
        assert!(start.elapsed() < Duration::from_millis(50));
        assert!(
            out.body.len() <= 100,
            "nullcgi output is {} bytes",
            out.body.len()
        );
        assert_eq!(out.status, swala_http::StatusCode::OK);
    }

    #[test]
    fn deterministic_output() {
        let p = SimulatedProgram::trace_driven("adl", WorkKind::Spin);
        let a = p.run(&cgi("/cgi-bin/adl?id=7&ms=0")).unwrap();
        let b = p.run(&cgi("/cgi-bin/adl?id=7&ms=0")).unwrap();
        assert_eq!(a, b);
        let c = p.run(&cgi("/cgi-bin/adl?id=8&ms=0")).unwrap();
        assert_ne!(a.body, c.body);
    }

    #[test]
    fn trace_driven_cost_is_respected() {
        let p = SimulatedProgram::trace_driven("adl", WorkKind::Spin);
        let start = Instant::now();
        p.run(&cgi("/cgi-bin/adl?id=1&ms=30")).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(500), "{elapsed:?}");
    }

    #[test]
    fn sleep_kind_also_waits() {
        let p = SimulatedProgram::trace_driven("adl", WorkKind::Sleep);
        let start = Instant::now();
        p.run(&cgi("/cgi-bin/adl?ms=20")).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn output_size_controllable() {
        let p = SimulatedProgram::trace_driven("adl", WorkKind::Spin);
        let out = p.run(&cgi("/cgi-bin/adl?id=1&ms=0&bytes=4096")).unwrap();
        // Exact to within one filler line.
        assert!(
            out.body.len() >= 4096 && out.body.len() < 4096 + 80,
            "{}",
            out.body.len()
        );
    }

    #[test]
    fn fixed_ignores_query_overrides() {
        let p = SimulatedProgram::fixed("f", Duration::ZERO, WorkKind::Spin, 200);
        let out = p.run(&cgi("/cgi-bin/f?ms=5000&bytes=1")).unwrap();
        assert!(
            out.body.len() >= 190,
            "fixed size should win: {}",
            out.body.len()
        );
    }

    /// The byte-at-a-time filler `render_body` replaced, kept as the
    /// reference its output is pinned to.
    fn render_body_bytewise(program: &str, req: &CgiRequest, size: usize) -> Vec<u8> {
        let header = format!(
            "<html><body><p>program={program} script={} query={}</p>\n",
            req.script_name, req.query_string
        );
        let footer = "</body></html>\n";
        let mut body = Vec::new();
        body.extend_from_slice(header.as_bytes());
        let seed = req
            .query_string
            .bytes()
            .fold(17u8, |a, b| a.wrapping_mul(31).wrapping_add(b));
        while body.len() + footer.len() < size {
            let line_len = (size - footer.len() - body.len()).min(64);
            for i in 0..line_len.saturating_sub(1) {
                body.push(b'a' + ((seed as usize + i) % 26) as u8);
            }
            body.push(b'\n');
        }
        body.extend_from_slice(footer.as_bytes());
        body
    }

    #[test]
    fn filler_is_byte_identical_to_the_bytewise_reference() {
        let queries = [
            "",
            "id=1",
            "id=7&ms=0&bytes=4096",
            "id=z16383&ms=2&bytes=65536",
            "x=%20y&z=~",
        ];
        for query in queries {
            let req = cgi(&format!("/cgi-bin/adl?{query}"));
            for size in (0..=200).chain([1024, 4096, 65_536]) {
                assert_eq!(
                    render_body("adl", &req, size),
                    render_body_bytewise("adl", &req, size),
                    "query {query:?}, size {size}"
                );
            }
        }
    }

    #[test]
    fn tiny_output_still_wellformed() {
        let p = SimulatedProgram::fixed("t", Duration::ZERO, WorkKind::Spin, 1);
        let out = p.run(&cgi("/cgi-bin/t")).unwrap();
        let s = String::from_utf8(out.body).unwrap();
        assert!(s.starts_with("<html>"));
        assert!(s.ends_with("</html>\n"));
    }
}
