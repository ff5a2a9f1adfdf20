//! The event engine's bounded worker pool.
//!
//! The loop thread must never block, but CGI execution and remote cache
//! fetches do. Parsed requests are queued here; `pool_size` workers run
//! [`handle_request`] — the same Figure 2 control flow the threaded pool
//! uses — and post completions back, waking the loop. The queue is
//! unbounded in memory but bounded in concurrency; its depth is exported
//! as `swala_engine_worker_queue_depth`.

use super::source::WakeupHandle;
use crate::handler::{handle_request, NodeContext};
use crate::stats::EngineStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use swala_http::{Request, Response};
use swala_obs::{Stage, Trace};

/// One parsed request awaiting a worker.
pub struct Job {
    pub token: u64,
    pub req: Request,
    pub peer: String,
    /// First byte of the request (trace attempt start).
    pub started: Instant,
    /// When parsing completed (end of the Parse span).
    pub parse_end: Instant,
}

/// A handled request on its way back to the loop.
pub struct Completion {
    pub token: u64,
    pub req: Request,
    pub resp: Response,
    pub keep: bool,
    pub trace: Trace,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stopping: AtomicBool,
}

/// `size` worker threads around one job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    pub fn start(
        size: usize,
        ctx: Arc<NodeContext>,
        completions: Arc<Mutex<Vec<Completion>>>,
        waker: WakeupHandle,
        stats: Arc<EngineStats>,
    ) -> std::io::Result<WorkerPool> {
        assert!(size > 0, "worker pool must have at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let shared = Arc::clone(&shared);
            let ctx = Arc::clone(&ctx);
            let completions = Arc::clone(&completions);
            let waker = waker.clone();
            let stats = Arc::clone(&stats);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("swala-worker-{i}"))
                    .spawn(move || worker_thread(&shared, &ctx, &completions, &waker, &stats))?,
            );
        }
        Ok(WorkerPool { shared, handles })
    }

    pub fn submit(&self, job: Job, stats: &EngineStats) {
        stats.worker_queue_depth.add(1);
        self.shared.queue.lock().unwrap().push_back(job);
        self.shared.available.notify_one();
    }

    /// Stop after the queue drains: every accepted request still gets a
    /// response during shutdown, mirroring the threaded pool finishing
    /// its in-flight connections.
    pub fn stop(mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_thread(
    shared: &Shared,
    ctx: &NodeContext,
    completions: &Mutex<Vec<Completion>>,
    waker: &WakeupHandle,
    stats: &EngineStats,
) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        stats.worker_queue_depth.sub(1);
        let keep = job.req.keep_alive();
        // Identical per-request telemetry to the threaded pool: trace
        // begins at the request's first byte, Parse span covers the wire
        // parse, handler spans land via `handle_request`.
        let target = job.req.target.cache_key_string();
        let mut trace = ctx.telemetry.begin_trace(&target, job.started);
        trace.record_span(Stage::Parse, job.started, job.parse_end);
        let mut resp = handle_request(ctx, &job.req, &target, &job.peer, &mut trace);
        resp.version = job.req.version;
        resp.set_keep_alive(keep);
        completions.lock().unwrap().push(Completion {
            token: job.token,
            req: job.req,
            resp,
            keep,
            trace,
        });
        waker.wake();
    }
}
