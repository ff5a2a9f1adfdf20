//! Warm-restart and access-log end-to-end tests.

use std::sync::Arc;
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{CacheKey, NodeId, SegmentStore, Store};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_obs::lookup;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

#[test]
fn warm_restart_recovers_cached_results() {
    let dir = std::env::temp_dir().join(format!("swala-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || ServerOptions {
        cache_dir: Some(dir.clone()),
        pool_size: 2,
        ..Default::default()
    };

    // First life: cache three results, then shut down.
    let bodies: Vec<Vec<u8>> = {
        let server = SwalaServer::start_single(options(), registry()).unwrap();
        assert_eq!(server.manager().bodies().metrics().kind, "segment");
        let mut client = HttpClient::new(server.http_addr());
        let bodies = (0..3)
            .map(|i| {
                client
                    .get(&format!("/cgi-bin/adl?id={i}&ms=1"))
                    .unwrap()
                    .body
                    .into_vec()
            })
            .collect();
        assert_eq!(server.manager().directory().len(NodeId(0)), 3);
        server.shutdown();
        bodies
    };

    // Second life: the directory is rebuilt from the data file before
    // the first request, so all three are immediate local hits with
    // identical bytes.
    let server = SwalaServer::start_single(options(), registry()).unwrap();
    assert_eq!(
        server.manager().directory().len(NodeId(0)),
        3,
        "directory recovered from the data file"
    );
    let mut client = HttpClient::new(server.http_addr());
    for (i, expected) in bodies.iter().enumerate() {
        let r = client.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
        assert_eq!(r.headers.get("X-Swala-Cache"), Some("local-hit"), "id={i}");
        assert_eq!(&r.body, expected, "recovered bytes identical, id={i}");
    }
    let metrics = server.telemetry().registry().snapshot();
    let executions = lookup(&metrics, "swala_http_executions", None);
    assert_eq!(executions, Some(0), "nothing re-executed");
    // The recovery pass pre-warmed the memory tier, so those hits never
    // touched the body store: the warm hit path matches pre-crash state.
    assert_eq!(
        server.manager().stats().snapshot().mem_hits,
        3,
        "post-restart hits served from the pre-warmed memory tier"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// The live cost of the body store is a scrape: every put, get and
/// delete the manager issues is timed where it runs, and the store's
/// space accounting rides along.
#[test]
fn store_ops_are_timed_in_situ_and_exported() {
    let dir = std::env::temp_dir().join(format!("swala-store-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = SwalaServer::start_single(
        ServerOptions {
            cache_dir: Some(dir.clone()),
            pool_size: 2,
            capacity: 2,
            // No memory tier: every local hit is a store get.
            mem_cache_bytes: 0,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    for i in 0..3 {
        client.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
    }
    let hit = client.get("/cgi-bin/adl?id=2&ms=1").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));

    let text = String::from_utf8(client.get("/swala-metrics").unwrap().body.into_vec()).unwrap();
    swala_obs::parse_exposition(&text).unwrap();
    let ops = "swala_store_op_duration_microseconds";
    assert!(
        text.contains(&format!("{ops}_count{{op=\"put\"}} 3\n")),
        "{text}"
    );
    let metrics = server.telemetry().registry().snapshot();
    assert_eq!(lookup(&metrics, ops, Some("put")), Some(3), "three inserts");
    assert_eq!(
        lookup(&metrics, ops, Some("get")),
        Some(1),
        "one store-served hit"
    );
    assert_eq!(
        lookup(&metrics, ops, Some("delete")),
        Some(1),
        "one eviction"
    );
    let [file, live, free, fsyncs] = ["file_bytes", "live_bytes", "free_bytes", "fsyncs"]
        .map(|field| lookup(&metrics, &format!("swala_store_{field}"), None).unwrap());
    assert!(live > 0);
    assert_eq!(file, live + free);
    assert!(fsyncs >= 4, "fsync is on");
    assert_eq!(
        lookup(&metrics, "swala_store_info", Some("segment")),
        Some(1)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn recovery_respects_capacity() {
    let dir = std::env::temp_dir().join(format!("swala-cap-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = |capacity| ServerOptions {
        cache_dir: Some(dir.clone()),
        capacity,
        pool_size: 2,
        ..Default::default()
    };
    let keys: Vec<CacheKey> = (0..8)
        .map(|i| CacheKey::new(format!("/cgi-bin/adl?id={i}&ms=1")))
        .collect();
    {
        let server = SwalaServer::start_single(options(10), registry()).unwrap();
        let mut client = HttpClient::new(server.http_addr());
        for key in &keys {
            client.get(key.as_str()).unwrap();
        }
        assert_eq!(server.manager().bodies().stored(), 8);
        server.shutdown();
    }
    // Restart with a smaller capacity: recovery must evict down to 4,
    // deleting the surplus bodies, so the store holds exactly the table.
    let server = SwalaServer::start_single(options(4), registry()).unwrap();
    assert_eq!(server.manager().directory().len(NodeId(0)), 4);
    assert_eq!(server.manager().bodies().stored(), 4);
    let kept: Vec<CacheKey> = server
        .manager()
        .local_snapshot()
        .into_iter()
        .map(|meta| meta.key)
        .collect();
    server.shutdown();
    let store = SegmentStore::open(&dir).unwrap();
    for key in &keys {
        assert_eq!(
            store.contains(key),
            kept.contains(key),
            "{key:?}: an evicted body is gone, a kept one stays"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn access_log_records_requests_in_clf() {
    let log_path = std::env::temp_dir().join(format!("swala-access-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let server = SwalaServer::start_single(
        ServerOptions {
            access_log: Some(log_path.clone()),
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    client.get("/missing.html").unwrap();
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(
        lines[0].contains("\"GET /cgi-bin/adl?id=1&ms=1 HTTP/1.0\" 200"),
        "{}",
        lines[0]
    );
    assert!(lines[2].contains("\" 404 "), "{}", lines[2]);
    // CLF timestamp bracket present.
    assert!(lines[0].contains(" - - ["));
    let _ = std::fs::remove_file(log_path);
}
