//! Per-layer benches of the request path a warm local hit takes: the
//! HTTP parse, the response-head write, a warm `CacheManager::lookup`,
//! and the whole hit driven in-process through `pool::respond` — parse,
//! key, trace, lookup, response, write into a `Vec`, trace end — with
//! no socket, so what is left is Swala's own user-space work.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{ServerOptions, SwalaServer};
use swala_cache::{
    CacheKey, CacheManager, CacheManagerConfig, CacheRules, LookupResult, MemStore, NodeId,
};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::{try_parse_request, ParseStatus, Response};

/// What the benchmark's keep-alive clients send.
const HIT: &[u8] =
    b"GET /cgi-bin/adl?id=1&ms=0 HTTP/1.1\r\nHost: swala\r\nConnection: keep-alive\r\n\r\n";

fn bench_parse(c: &mut Criterion) {
    c.bench_function("http/try_parse_request", |b| {
        b.iter(|| match try_parse_request(black_box(HIT)) {
            ParseStatus::Complete { request, .. } => {
                black_box(request.keep_alive());
                request.recycle();
            }
            other => panic!("{other:?}"),
        })
    });
}

fn bench_head_write(c: &mut Criterion) {
    let body: Arc<[u8]> = Arc::from(vec![b'x'; 4096]);
    let mut out = Vec::with_capacity(8192);
    c.bench_function("http/response_write_4k", |b| {
        b.iter(|| {
            let mut resp = Response::ok("text/html", Arc::clone(&body));
            resp.headers.set("X-Swala-Cache", "local-hit");
            resp.set_server("Swala/0.1");
            resp.set_date_now();
            resp.set_keep_alive(true);
            out.clear();
            resp.write_to(&mut out, true).unwrap();
            black_box(out.len())
        })
    });
}

fn bench_warm_lookup(c: &mut Criterion) {
    let config = CacheManagerConfig {
        num_nodes: 1,
        local: NodeId(0),
        rules: CacheRules::allow_all(),
        ..Default::default()
    };
    let manager = CacheManager::new(config, Box::new(MemStore::new()));
    let key = CacheKey::new("/cgi-bin/adl?id=1&ms=0");
    let LookupResult::Miss { decision, .. } = manager.lookup(&key, key.as_str()) else {
        panic!("a cold key misses");
    };
    manager
        .complete_execution(
            &key,
            &[b'x'; 4096],
            "text/html",
            Duration::from_millis(2),
            &decision,
        )
        .unwrap();
    // Promote the body to the memory tier.
    manager.lookup(&key, key.as_str());
    c.bench_function("cache/lookup_warm_local_hit", |b| {
        b.iter(|| match manager.lookup(&key, key.as_str()) {
            LookupResult::LocalHit { body, .. } => black_box(body.len()),
            other => panic!("{other:?}"),
        })
    });
}

fn bench_in_process_hit(c: &mut Criterion) {
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    let options = ServerOptions {
        pool_size: 2,
        ..Default::default()
    };
    let server = SwalaServer::start_single(options, registry).unwrap();
    let ctx = server.context();
    let mut out = Vec::with_capacity(8192);
    let hit = |out: &mut Vec<u8>| {
        let started = Instant::now();
        let ParseStatus::Complete { request, .. } = try_parse_request(HIT) else {
            panic!("a whole request");
        };
        out.clear();
        assert!(swala::pool::respond(
            ctx,
            &request,
            started,
            "127.0.0.1:1",
            out
        ));
        request.recycle();
    };
    for _ in 0..10_000 {
        hit(&mut out);
    }
    assert!(out.windows(9).any(|w| w == b"local-hit"), "warm");
    c.bench_function("core/in_process_warm_local_hit", |b| {
        b.iter(|| {
            hit(&mut out);
            black_box(out.len())
        })
    });
    server.shutdown();
}

criterion_group! {
    name = request_path;
    config = Criterion::default().measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench_parse, bench_head_write, bench_warm_lookup, bench_in_process_hit,
}
criterion_main!(request_path);
