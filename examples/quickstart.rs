//! Quickstart: one Swala node, a few dynamic requests, and the cache in
//! action.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ProgramRegistry, ServerOptions, SimulatedProgram, SwalaServer, WorkKind};

fn main() -> std::io::Result<()> {
    // 1. Register a dynamic-content program. `trace_driven` programs
    //    read their cost from the query string (`ms=`), so one program
    //    models any CGI of the Alexandria Digital Library variety.
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "search",
        WorkKind::Spin,
    )));

    // 2. Start a single node on an ephemeral port.
    let server = SwalaServer::start_single(ServerOptions::default(), registry)?;
    println!("swala listening on http://{}", server.http_addr());

    // 3. The first request executes the program (a ~80 ms "spatial query").
    let mut client = HttpClient::new(server.http_addr());
    let target = "/cgi-bin/search?region=santa-barbara&layer=3&ms=80";

    let t0 = Instant::now();
    let first = client.get(target).expect("first request");
    let miss_time = t0.elapsed();
    println!(
        "miss : {} in {:>7.1?}  [X-Swala-Cache: {}]",
        first.status,
        miss_time,
        first.headers.get("X-Swala-Cache").unwrap_or("-")
    );

    // 4. The second request is served from the result cache.
    let t1 = Instant::now();
    let second = client.get(target).expect("second request");
    let hit_time = t1.elapsed();
    println!(
        "hit  : {} in {:>7.1?}  [X-Swala-Cache: {}]",
        second.status,
        hit_time,
        second.headers.get("X-Swala-Cache").unwrap_or("-")
    );
    assert_eq!(first.body, second.body, "cached result is byte-identical");
    assert!(hit_time < miss_time);

    // 5. Statistics mirror what happened. The metrics registry holds
    // every one of them, as `/swala-metrics` and `/swala-status` show.
    println!("cache: {}", server.cache_stats());
    let metrics = server.telemetry().registry().snapshot();
    for series in ["swala_http_requests", "swala_http_executions"] {
        let value = swala_obs::lookup(&metrics, series, None).unwrap_or(0);
        println!("http : {series} {value}");
    }
    assert!(hit_time < Duration::from_millis(80));

    server.shutdown();
    println!(
        "ok: cache hit was {:.0}x faster than execution",
        miss_time.as_secs_f64() / hit_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}
