//! Load generation against a live cluster: set-up, the closed-loop
//! timed window, and the open-loop diagnostic window.
//!
//! Discipline: one process, two caller threads, one keep-alive
//! connection each, caller *i* ↔ node *i*; a caller sends its next
//! request only after the previous reply is fully read and verified.

use crate::client::{CacheTag, Conn, Failure, Marks, Verifier};
use crate::cluster::{interrupted, pin_current_thread, settle_disk, Cluster, WorkDir, NODES};
use crate::expo::Counters;
use crate::gen::{Catalog, Req, Rng, Stream, Workload, CALLERS};
use crate::spans::Span;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use swala_obs::{bucket_upper, Histogram, HistogramSnapshot};

/// Client spans kept per caller in a traced window (the histograms
/// still cover every request).
const CLIENT_SPAN_REQUESTS: usize = 5_000;

/// Where the node binary is and where outputs and scratch space go.
pub struct Env {
    pub swala_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// A running cluster, warmed up for one workload, with the callers'
/// connections open.
pub struct Session {
    // Field order is drop order: connections close, nodes die, then the
    // directory they wrote into goes.
    callers: Vec<Caller>,
    pub cluster: Cluster,
    work: WorkDir,
    pub catalog: Arc<Catalog>,
    /// First node spawn → ready for the first timed request.
    pub setup_s: f64,
    /// Set-up requests sent / failed (they count towards the run's totals).
    pub setup_attempted: u64,
    pub setup_failed: u64,
    /// Body bytes the set-up requests inserted.
    pub setup_bytes: u64,
}

struct Caller {
    conn: Conn,
    addr: SocketAddr,
    verifier: Verifier,
}

/// What one caller saw in one window.
struct CallerStats {
    attempted: u64,
    failures: [u64; Failure::ALL.len()],
    tags: [u64; CacheTag::COUNT],
    /// Body bytes of replies tagged `miss` (each one was inserted).
    miss_bytes: u64,
    /// Reply latency in ns.
    lat: HistogramSnapshot,
    elapsed_s: f64,
    phases: Option<Phases>,
}

/// Client-side phase times of a traced window, ns.
pub struct Phases {
    pub send: HistogramSnapshot,
    pub wait: HistogramSnapshot,
    pub recv: HistogramSnapshot,
    pub verify: HistogramSnapshot,
    pub spans: Vec<Span>,
}

/// One closed-loop timed window, both callers merged.
pub struct Window {
    pub attempted: u64,
    pub failures: [u64; Failure::ALL.len()],
    pub tags: [u64; CacheTag::COUNT],
    pub miss_bytes: u64,
    pub lat: HistogramSnapshot,
    /// Σ over callers of verified-OK replies ÷ that caller's elapsed time.
    pub throughput_rps: f64,
    /// CPU seconds both node processes used during the window.
    pub cpu_s: f64,
    /// Server counter deltas across the window, both nodes summed.
    pub counters: Counters,
    pub phases: Option<Phases>,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed()
    }
}

/// One open-loop window: latency from the *intended* send time.
pub struct OpenWindow {
    pub attempted: u64,
    pub failed: u64,
    pub lat: HistogramSnapshot,
    /// How late the generator actually sent, ns.
    pub lag: HistogramSnapshot,
}

impl Session {
    /// Spawn a fresh cluster and bring it to the workload's starting
    /// state: warm-up requests executed, both directories converged.
    pub fn start(env: &Env, workload: Workload, seed: u64) -> io::Result<Session> {
        let work = WorkDir::create(&env.out_dir)?;
        let catalog = Arc::new(Catalog::new(workload, seed));
        settle_disk();
        let t0 = Instant::now();
        let cluster = start_cluster(&env.swala_bin, work.path(), workload)?;
        let expect = catalog.expected_cache_header().map(CacheTag::from_name);
        let mut callers = Vec::new();
        for i in 0..CALLERS {
            let addr = cluster.http_addr(i);
            callers.push(Caller {
                conn: Conn::connect(addr)?,
                addr,
                verifier: Verifier::new(catalog.slots(), expect),
            });
        }
        let mut session = Session {
            callers,
            cluster,
            work,
            catalog,
            setup_s: 0.0,
            setup_attempted: 0,
            setup_failed: 0,
            setup_bytes: 0,
        };
        session.warm_up()?;
        session.setup_s = t0.elapsed().as_secs_f64();
        Ok(session)
    }

    /// Each caller executes its share of the warm-up on its own node
    /// (which makes that node the owner), then both directories must
    /// list everything the other node owns.
    fn warm_up(&mut self) -> io::Result<()> {
        let catalog = Arc::clone(&self.catalog);
        let results = self.on_each_caller(|i, caller| {
            let reqs = catalog.warmup(i);
            let mut failed = 0u64;
            for req in &reqs {
                if interrupted() {
                    break;
                }
                if caller.exchange(req, false, false).0.is_err() {
                    failed += 1;
                }
            }
            let bytes: u64 = reqs.iter().map(|r| r.body_len as u64).sum();
            (reqs.len() as u64, failed, bytes)
        });
        for (attempted, failed, bytes) in results {
            self.setup_attempted += attempted;
            self.setup_failed += failed;
            self.setup_bytes += bytes;
        }
        self.cluster.wait_until("directory convergence", |scrapes| {
            let gauge = |node: usize, name: &str| {
                scrapes[node]
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(-1.0, |s| s.value)
            };
            (0..NODES).all(|i| {
                let other = (i + 1) % NODES;
                gauge(i, "swala_cache_dir_entries_remote")
                    == gauge(other, "swala_cache_dir_entries_owned")
            })
        })
    }

    /// Stop the cluster but keep its directory (docroot included) for
    /// the in-process probes, which then have the cores to themselves.
    pub fn into_work(self) -> WorkDir {
        let Session {
            callers,
            cluster,
            work,
            ..
        } = self;
        drop(callers);
        drop(cluster);
        work
    }

    /// Run `f` for every caller at once, each on its own thread pinned
    /// to its node's CPU, and collect the results in caller order.
    fn on_each_caller<T: Send>(&mut self, f: impl Fn(usize, &mut Caller) -> T + Sync) -> Vec<T> {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .enumerate()
                .map(|(i, caller)| {
                    s.spawn(move || {
                        pin_current_thread(i);
                        f(i, caller)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        })
    }

    fn counters(&self) -> io::Result<Counters> {
        Ok(Counters::sum_of(&self.cluster.scrape_all()?))
    }

    /// Run both callers closed-loop for `secs`. Scrapes happen before
    /// and after, never inside, the window. With `traced`, each round
    /// trip also records its client-side phase times.
    pub fn closed_loop(&mut self, rep: u32, secs: f64, traced: bool) -> io::Result<Window> {
        let before = self.counters()?;
        let cpu0 = self.cluster.cpu_seconds()?;
        let barrier = Barrier::new(CALLERS);
        let catalog = Arc::clone(&self.catalog);
        let stats = self.on_each_caller(|i, caller| {
            caller.run_closed(catalog.stream(rep, i), secs, traced, i, &barrier)
        });
        let cpu_s = self.cluster.cpu_seconds()? - cpu0;
        let counters = self.counters()?.since(&before);

        let mut w = Window {
            attempted: 0,
            failures: [0; Failure::ALL.len()],
            tags: [0; CacheTag::COUNT],
            miss_bytes: 0,
            lat: HistogramSnapshot::empty(),
            throughput_rps: 0.0,
            cpu_s,
            counters,
            phases: None,
        };
        for st in stats {
            let failed: u64 = st.failures.iter().sum();
            w.attempted += st.attempted;
            w.throughput_rps += (st.attempted - failed) as f64 / st.elapsed_s;
            for (a, b) in w.failures.iter_mut().zip(st.failures) {
                *a += b;
            }
            for (a, b) in w.tags.iter_mut().zip(st.tags) {
                *a += b;
            }
            w.miss_bytes += st.miss_bytes;
            w.lat.merge(&st.lat);
            if let Some(p) = st.phases {
                match &mut w.phases {
                    None => w.phases = Some(p),
                    Some(all) => {
                        all.send.merge(&p.send);
                        all.wait.merge(&p.wait);
                        all.recv.merge(&p.recv);
                        all.verify.merge(&p.verify);
                        all.spans.extend(p.spans);
                    }
                }
            }
        }
        Ok(w)
    }

    /// Poisson arrivals at `rate_rps` in total (split evenly over the
    /// callers' two connections), each request timed from when it was
    /// due. A request due while the previous one is still in flight
    /// waits its turn, and that wait is part of its latency.
    pub fn open_loop(&mut self, rep: u32, secs: f64, rate_rps: f64) -> OpenWindow {
        let catalog = Arc::clone(&self.catalog);
        let seed = rate_rps.to_bits();
        let per_caller = (rate_rps / CALLERS as f64).max(1.0);
        let parts = self.on_each_caller(|i, caller| {
            let gaps = Rng::for_caller(seed, rep, i);
            caller.run_open(catalog.stream(rep, i), gaps, secs, per_caller)
        });
        let mut all = OpenWindow {
            attempted: 0,
            failed: 0,
            lat: HistogramSnapshot::empty(),
            lag: HistogramSnapshot::empty(),
        };
        for p in parts {
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.lat.merge(&p.lat);
            all.lag.merge(&p.lag);
        }
        all
    }
}

/// A released port can be taken before the node binds it; retry the
/// whole start a couple of times before giving up.
fn start_cluster(bin: &Path, work: &Path, workload: Workload) -> io::Result<Cluster> {
    let mut last = None;
    for _ in 0..3 {
        match Cluster::start(bin, work, workload) {
            Ok(c) => return Ok(c),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
            Err(e) => last = Some(e),
        }
        if interrupted() {
            break;
        }
    }
    Err(last.expect("loop ran at least once"))
}

impl Caller {
    /// One request → verified reply. On an I/O error the connection is
    /// replaced so one dead socket fails one request, not the rest.
    fn exchange(
        &mut self,
        req: &Req,
        timed_window: bool,
        marks: bool,
    ) -> (Result<CacheTag, Failure>, Option<Marks>) {
        match self.conn.roundtrip(&req.wire, marks) {
            Ok(reply) => {
                let checked = self.verifier.check(req, &reply, timed_window);
                (checked.map(|()| reply.cache), reply.marks)
            }
            Err(_) => {
                match Conn::connect(self.addr) {
                    Ok(conn) => self.conn = conn,
                    // Node gone: do not spin on a refused connect.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
                (Err(Failure::Io), None)
            }
        }
    }

    fn run_closed(
        &mut self,
        mut stream: Stream,
        secs: f64,
        traced: bool,
        index: usize,
        barrier: &Barrier,
    ) -> CallerStats {
        let lat = Histogram::new();
        let phase_hists = traced.then(|| [(); 4].map(|()| Histogram::new()));
        let mut spans = Vec::new();
        let mut st = CallerStats {
            attempted: 0,
            failures: [0; Failure::ALL.len()],
            tags: [0; CacheTag::COUNT],
            miss_bytes: 0,
            lat: HistogramSnapshot::empty(),
            elapsed_s: 0.0,
            phases: None,
        };
        barrier.wait();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let mut now = t0;
        while now < deadline && !interrupted() {
            let req = stream.next_req();
            let start = now;
            let (result, marks) = self.exchange(&req, true, traced);
            now = Instant::now();
            st.attempted += 1;
            match result {
                Ok(tag) => {
                    lat.record((now - start).as_nanos() as u64);
                    st.tags[tag as usize] += 1;
                    if tag == CacheTag::Miss {
                        st.miss_bytes += req.body_len as u64;
                    }
                }
                Err(f) => st.failures[f as usize] += 1,
            }
            if let (Some(h), Some(m)) = (&phase_hists, marks) {
                let cuts = [start, m.sent, m.head, m.done, now];
                for (hist, pair) in h.iter().zip(cuts.windows(2)) {
                    hist.record((pair[1] - pair[0]).as_nanos() as u64);
                }
                if (st.attempted as usize) <= CLIENT_SPAN_REQUESTS {
                    push_client_spans(&mut spans, index, st.attempted as u32, t0, &cuts);
                }
            }
        }
        st.elapsed_s = (now - t0).as_secs_f64();
        st.lat = lat.snapshot();
        st.phases = phase_hists.map(|[send, wait, recv, verify]| Phases {
            send: send.snapshot(),
            wait: wait.snapshot(),
            recv: recv.snapshot(),
            verify: verify.snapshot(),
            spans,
        });
        st
    }

    fn run_open(&mut self, mut stream: Stream, mut gaps: Rng, secs: f64, rate: f64) -> OpenWindow {
        let (lat, lag) = (Histogram::new(), Histogram::new());
        let mut out = OpenWindow {
            attempted: 0,
            failed: 0,
            lat: HistogramSnapshot::empty(),
            lag: HistogramSnapshot::empty(),
        };
        let mean_gap_ns = 1e9 / rate;
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut due = t0;
        loop {
            due += Duration::from_nanos(gaps.exponential(mean_gap_ns) as u64);
            if due >= end || interrupted() {
                break;
            }
            wait_until(due);
            let sent_at = Instant::now();
            let req = stream.next_req();
            let (result, _) = self.exchange(&req, true, false);
            out.attempted += 1;
            match result {
                Ok(_) => {
                    lat.record((Instant::now() - due).as_nanos() as u64);
                    lag.record(sent_at.saturating_duration_since(due).as_nanos() as u64);
                }
                Err(_) => out.failed += 1,
            }
        }
        out.lat = lat.snapshot();
        out.lag = lag.snapshot();
        out
    }
}

/// Sleep most of the way to `due`, spin the rest (a sleep alone
/// overshoots by the timer slack, which would read as generator lag).
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn push_client_spans(
    out: &mut Vec<Span>,
    caller: usize,
    seq: u32,
    t0: Instant,
    cuts: &[Instant; 5],
) {
    // Ids are unique within the file: callers interleave.
    let req = seq * CALLERS as u32 + caller as u32;
    let base = req * 8;
    let ns = |t: Instant| (t - t0).as_nanos() as u64;
    out.push(Span {
        id: base,
        parent: 0,
        req,
        name: "client.request",
        start_ns: ns(cuts[0]),
        end_ns: ns(cuts[4]),
    });
    let names = ["client.send", "client.wait", "client.recv", "client.verify"];
    for (i, name) in names.into_iter().enumerate() {
        out.push(Span {
            id: base + 1 + i as u32,
            parent: base,
            req,
            name,
            start_ns: ns(cuts[i]),
            end_ns: ns(cuts[i + 1]),
        });
    }
}

/// Quantile of a snapshot with linear interpolation inside the bucket.
/// `HistogramSnapshot::quantile` reports the bucket's upper bound, which
/// moves in 12.5 % steps; a benchmark bound of 10 % needs finer.
pub fn quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c as f64 >= rank {
            let lower = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
            let upper = bucket_upper(i).min(h.max).max(lower);
            let within = (rank - seen) / c as f64;
            return lower as f64 + (upper - lower) as f64 * within;
        }
        seen += c as f64;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_moves_smoothly() {
        let h = Histogram::new();
        for v in 10_000..=20_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = quantile(&snap, 0.5);
        assert!((14_800.0..15_200.0).contains(&p50), "{p50}");
        let p99 = quantile(&snap, 0.99);
        assert!((19_700.0..20_000.0).contains(&p99), "{p99}");
        // The stock read-out is the bucket ceiling.
        assert!(snap.quantile(0.5) as f64 >= p50);
        assert_eq!(quantile(&HistogramSnapshot::empty(), 0.5), 0.0);
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
    }
}
