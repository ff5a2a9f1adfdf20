//! Warm-restart and access-log end-to-end tests.

use std::sync::Arc;
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{NodeId, StoreKind};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};

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
    for store in StoreKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "swala-restart-{}-{}",
            store.as_str(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = || ServerOptions {
            cache_dir: Some(dir.clone()),
            pool_size: 2,
            store,
            ..Default::default()
        };

        // First life: cache three results, then shut down.
        let bodies: Vec<Vec<u8>> = {
            let server = SwalaServer::start_single(options(), registry()).unwrap();
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

        // Second life: the directory is rebuilt from disk before the
        // first request, so all three are immediate local hits with
        // identical bytes.
        let server = SwalaServer::start_single(options(), registry()).unwrap();
        assert_eq!(
            server.manager().directory().len(NodeId(0)),
            3,
            "directory recovered ({store:?})"
        );
        let mut client = HttpClient::new(server.http_addr());
        for (i, expected) in bodies.iter().enumerate() {
            let r = client.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
            assert_eq!(
                r.headers.get("X-Swala-Cache"),
                Some("local-hit"),
                "{store:?} id={i}"
            );
            assert_eq!(
                &r.body, expected,
                "recovered bytes identical, {store:?} id={i}"
            );
        }
        assert_eq!(server.request_stats().executions, 0, "nothing re-executed");
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn warm_restart_with_segment_store() {
    let dir = std::env::temp_dir().join(format!("swala-seg-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let bodies: Vec<Vec<u8>> = {
        let server = SwalaServer::start_single(
            ServerOptions {
                cache_dir: Some(dir.clone()),
                pool_size: 2,
                store: StoreKind::Segment,
                ..Default::default()
            },
            registry(),
        )
        .unwrap();
        assert_eq!(server.manager().store_metrics().kind, "segment");
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
        server.shutdown();
        bodies
    };

    let server = SwalaServer::start_single(
        ServerOptions {
            cache_dir: Some(dir.clone()),
            pool_size: 2,
            store: StoreKind::Segment,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
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
    assert_eq!(server.request_stats().executions, 0, "nothing re-executed");
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
            store: StoreKind::Segment,
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
    let samples = swala_obs::parse_exposition(&text).unwrap();
    let value = |name: &str, label: Option<(&str, &str)>| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("no sample {name} {label:?}"))
            .value
    };
    let ops = "swala_store_op_duration_microseconds_count";
    assert_eq!(value(ops, Some(("op", "put"))), 3.0, "three inserts");
    assert_eq!(value(ops, Some(("op", "get"))), 1.0, "one store-served hit");
    assert_eq!(value(ops, Some(("op", "delete"))), 1.0, "one eviction");
    assert!(value("swala_store_live_bytes", None) > 0.0);
    assert_eq!(
        value("swala_store_file_bytes", None),
        value("swala_store_live_bytes", None) + value("swala_store_free_bytes", None)
    );
    assert!(value("swala_store_fsyncs", None) >= 4.0, "fsync is on");

    let status = String::from_utf8(client.get("/swala-status").unwrap().body.into_vec()).unwrap();
    assert!(status.contains("store=segment"), "{status}");
    for op in ["put", "get", "delete"] {
        assert!(
            status.contains(&format!("{op}: count=")) && status.contains("p99_us="),
            "{status}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn recover_cache_off_starts_cold() {
    for store in StoreKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "swala-cold-{}-{}",
            store.as_str(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = |recover_cache| ServerOptions {
            cache_dir: Some(dir.clone()),
            recover_cache,
            pool_size: 2,
            store,
            ..Default::default()
        };
        {
            let server = SwalaServer::start_single(options(true), registry()).unwrap();
            HttpClient::new(server.http_addr())
                .get("/cgi-bin/adl?id=0&ms=1")
                .unwrap();
            server.shutdown();
        }
        let server = SwalaServer::start_single(options(false), registry()).unwrap();
        assert_eq!(
            server.manager().directory().len(NodeId(0)),
            0,
            "cold start ({store:?})"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn recovery_respects_capacity() {
    let dir = std::env::temp_dir().join(format!("swala-cap-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let server = SwalaServer::start_single(
            ServerOptions {
                cache_dir: Some(dir.clone()),
                capacity: 10,
                pool_size: 2,
                // Pinned: this test counts per-entry .swc files, which
                // only the files store produces.
                store: StoreKind::Files,
                ..Default::default()
            },
            registry(),
        )
        .unwrap();
        let mut client = HttpClient::new(server.http_addr());
        for i in 0..8 {
            client.get(&format!("/cgi-bin/adl?id={i}&ms=1")).unwrap();
        }
        server.shutdown();
    }
    // Restart with a smaller capacity: recovery must evict down to 4,
    // deleting the surplus files.
    let server = SwalaServer::start_single(
        ServerOptions {
            cache_dir: Some(dir.clone()),
            capacity: 4,
            pool_size: 2,
            store: StoreKind::Files,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    assert_eq!(server.manager().directory().len(NodeId(0)), 4);
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "swc")
        })
        .count();
    assert_eq!(files, 4, "evicted entries' files deleted");
    server.shutdown();
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
