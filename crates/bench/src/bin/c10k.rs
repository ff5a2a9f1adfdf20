//! C10K smoke: prove the request pool, on default options, holds ten
//! thousand idle keep-alive connections parked on its epoll while a live
//! request still completes fast.
//!
//! ```text
//! c10k                 # 10k idle conns (capped by RLIMIT_NOFILE), 250 ms bound
//! ```
//!
//! Environment:
//! * `SWALA_C10K_CONNS`    — idle connections to park (default 10000)
//! * `SWALA_C10K_BOUND_MS` — worst acceptable live-request latency (default 250)
//!
//! Both ends of every parked connection live in this process, so the
//! usable count is `(RLIMIT_NOFILE - headroom) / 2`; the limit is raised
//! to its hard cap first and any trimming is reported. Exits nonzero if
//! a connection fails, the live request fails, or the bound is missed.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ProgramRegistry, ServerOptions, SwalaServer};
use swala_cgi::null_cgi;
use swala_http::StatusCode;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nofile = swala::raise_nofile_limit().expect("raise RLIMIT_NOFILE");
    let requested: usize = env_or("SWALA_C10K_CONNS", 10_000);
    let bound_ms: f64 = env_or("SWALA_C10K_BOUND_MS", 250.0);
    let usable = (nofile.saturating_sub(1000) / 2) as usize;
    let conns = requested.min(usable);
    if conns < requested {
        println!(
            "c10k: RLIMIT_NOFILE {nofile} caps the sweep at {conns} conns ({requested} requested)"
        );
    }

    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(null_cgi()));
    let server =
        SwalaServer::start_single(ServerOptions::default(), registry).expect("start server");
    let addr = server.http_addr();

    let t0 = Instant::now();
    let mut parked: Vec<TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(addr) {
            Ok(s) => parked.push(s),
            Err(e) => {
                eprintln!("c10k: connect {i}/{conns} failed: {e}");
                std::process::exit(1);
            }
        }
        // Yield well inside the accept backlog so a single-CPU machine
        // never drops SYNs (a dropped SYN costs a ~1 s retransmit).
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let park_secs = t0.elapsed().as_secs_f64();

    // The herd is connected client-side; give the pool a bounded moment
    // to drain the accept backlog before holding it to the count.
    for _ in 0..200 {
        if server.engine_stats().open_connections.get() >= conns as i64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // The live request, measured while the whole herd sits parked.
    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(10));
    let t1 = Instant::now();
    let resp = client.get("/cgi-bin/nullcgi").expect("live request");
    let live_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resp.status, StatusCode::OK);

    let stats = server.engine_stats();
    let open = stats.open_connections.get();
    let parks = stats.parks();
    println!(
        "c10k: parked {conns} idle conns in {park_secs:.1} s (server sees {open} open, \
         {parks} parks); live request {live_ms:.2} ms (bound {bound_ms} ms)"
    );
    if open < conns as i64 {
        eprintln!("c10k: server holds {open} connections, expected at least {conns}");
        std::process::exit(1);
    }
    if live_ms > bound_ms {
        eprintln!("c10k: live request took {live_ms:.2} ms, bound {bound_ms} ms");
        std::process::exit(1);
    }
    drop(parked);
    server.shutdown();
    println!("c10k: ok");
}
