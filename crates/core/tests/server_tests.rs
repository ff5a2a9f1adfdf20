//! End-to-end tests for a Swala node over real sockets: static files,
//! CGI execution, caching (local and cooperative), the Figure 2 edges,
//! and the diagnostic `X-Swala-Cache` header.

use std::sync::Arc;
use std::time::Duration;
use swala::handler::cache_header;
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{CacheRules, DirectoryKind, NodeId, PolicyKind};
use swala_cgi::{null_cgi, ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::{Method, Request, StatusCode};

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(null_cgi()));
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Spin,
    )));
    r
}

fn single(mut options: ServerOptions) -> SwalaServer {
    options.pool_size = 4;
    SwalaServer::start_single(options, registry()).unwrap()
}

fn cache_tag(resp: &swala_http::Response) -> &str {
    resp.headers.get(cache_header::NAME).unwrap_or("<none>")
}

#[test]
fn serves_nullcgi() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    let resp = client.get("/cgi-bin/nullcgi").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(resp.body.len() < 100);
    assert!(resp.headers.get("Server").unwrap().starts_with("Swala"));
    assert!(resp.headers.get("Date").unwrap().ends_with("GMT"));
    server.shutdown();
}

#[test]
fn unknown_program_is_404_and_static_without_docroot_is_404() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    assert_eq!(
        client.get("/cgi-bin/ghost").unwrap().status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(
        client.get("/static.html").unwrap().status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(server.request_stats().client_errors, 2);
    server.shutdown();
}

#[test]
fn serves_static_files_from_docroot() {
    let root = std::env::temp_dir().join(format!("swala-e2e-docroot-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("hello.html"), "<h1>static hello</h1>").unwrap();
    let server = single(ServerOptions {
        docroot: Some(root.clone()),
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    let resp = client.get("/hello.html").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.body, b"<h1>static hello</h1>");
    assert_eq!(resp.headers.get("Content-Type"), Some("text/html"));
    assert_eq!(server.request_stats().static_files, 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn miss_then_local_hit_with_identical_bytes() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());

    let first = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    assert_eq!(cache_tag(&first), cache_header::MISS);

    let second = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    assert_eq!(cache_tag(&second), cache_header::LOCAL_HIT);
    assert_eq!(
        first.body, second.body,
        "cached bytes identical to executed bytes"
    );

    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.local_hits, 1);
    assert_eq!(stats.inserts, 1);
    assert_eq!(
        server.request_stats().executions,
        1,
        "second request executed nothing"
    );
    server.shutdown();
}

#[test]
fn different_queries_are_different_entries() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    let a = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    let b = client.get("/cgi-bin/adl?id=2&ms=0").unwrap();
    assert_ne!(a.body, b.body);
    assert_eq!(server.cache_stats().misses, 2);
    server.shutdown();
}

#[test]
fn caching_disabled_mode_never_caches() {
    let server = single(ServerOptions {
        caching_enabled: false,
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    for _ in 0..3 {
        let r = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        assert_eq!(cache_tag(&r), cache_header::DISABLED);
    }
    assert_eq!(server.cache_stats().lookups, 0);
    assert_eq!(server.request_stats().executions, 3);
    server.shutdown();
}

#[test]
fn post_is_never_cached() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    let mut req = Request::new(Method::Post, "/cgi-bin/adl?id=9&ms=0").unwrap();
    req.body = b"payload".to_vec();
    let r = client.request(&req).unwrap();
    assert_eq!(r.status, StatusCode::OK);
    assert_eq!(cache_tag(&r), cache_header::UNCACHEABLE);
    assert_eq!(server.cache_stats().lookups, 0);
    server.shutdown();
}

#[test]
fn rules_threshold_prevents_fast_results_from_caching() {
    let rules = CacheRules::parse("cache * min_ms=10000\n").unwrap();
    let server = single(ServerOptions {
        rules,
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    let again = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    assert_eq!(
        cache_tag(&again),
        cache_header::MISS,
        "fast result was not kept"
    );
    assert_eq!(server.cache_stats().discards, 2);
    server.shutdown();
}

#[test]
fn nocache_rule_bypasses_directory() {
    let rules = CacheRules::parse("nocache /cgi-bin/nullcgi*\ncache *\n").unwrap();
    let server = single(ServerOptions {
        rules,
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    let r = client.get("/cgi-bin/nullcgi").unwrap();
    assert_eq!(cache_tag(&r), cache_header::UNCACHEABLE);
    assert_eq!(server.cache_stats().uncacheable, 1);
    server.shutdown();
}

#[test]
fn head_request_returns_headers_only() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    // Warm the cache so HEAD hits it.
    client.get("/cgi-bin/adl?id=5&ms=0&bytes=2048").unwrap();
    let head = Request::new(Method::Head, "/cgi-bin/adl?id=5&ms=0&bytes=2048").unwrap();
    let r = client.request(&head).unwrap();
    assert_eq!(r.status, StatusCode::OK);
    assert!(r.body.is_empty(), "HEAD carries no body");
    // HEAD is not cacheable, so it executed instead of hitting.
    server.shutdown();
}

#[test]
fn eviction_respects_capacity_over_http() {
    let server = single(ServerOptions {
        capacity: 3,
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    for i in 0..6 {
        client.get(&format!("/cgi-bin/adl?id={i}&ms=0")).unwrap();
    }
    assert_eq!(server.manager().directory().len(NodeId(0)), 3);
    assert_eq!(server.cache_stats().evictions, 3);
    server.shutdown();
}

#[test]
fn disk_store_survives_on_disk() {
    let dir = std::env::temp_dir().join(format!("swala-e2e-diskstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = single(ServerOptions {
        cache_dir: Some(dir.clone()),
        // Pinned: this test asserts the paper's one-file-per-entry
        // layout, which only the files store produces.
        store: swala_cache::StoreKind::Files,
        ..Default::default()
    });
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 1, "one cache file per entry");
    let hit = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(cache_tag(&hit), cache_header::LOCAL_HIT);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

// ---- cooperative (two-node) tests ----

/// Start a wired N-node cluster sharing a program registry shape.
fn cluster(n: usize, caching: bool) -> Vec<SwalaServer> {
    swala::start_cluster(n, |_| {
        let options = ServerOptions {
            pool_size: 4,
            caching_enabled: caching,
            // These tests assert the paper's §4.1/§4.2 broadcast
            // semantics (every peer hears every insert/delete), so they
            // pin the replicated directory. tests/directory_modes.rs
            // covers the behaviour common to both families.
            directory: swala_cache::DirectoryKind::Replicated,
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap()
}

fn wait_until(cond: impl Fn() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timeout waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `start_cluster` wires every node to every other one: each knows its
/// own id, the cluster size and both peers' cache addresses, and a
/// request for another node's entry is served as a remote hit.
#[test]
fn start_cluster_wires_every_node_to_the_others() {
    for directory in DirectoryKind::ALL {
        let servers = swala::start_cluster(3, |_| {
            let options = ServerOptions {
                pool_size: 2,
                directory,
                ..Default::default()
            };
            (options, registry())
        })
        .unwrap();
        for (i, s) in servers.iter().enumerate() {
            assert_eq!(s.node(), NodeId(i as u16));
            assert_eq!(s.manager().directory().num_nodes(), 3);
            let mut peers: Vec<_> = s
                .broadcast_link_stats()
                .iter()
                .map(|l| (l.peer, l.addr))
                .collect();
            peers.sort();
            let others: Vec<_> = servers
                .iter()
                .filter(|o| o.node() != s.node())
                .map(|o| (o.node(), o.cache_addr()))
                .collect();
            assert_eq!(peers, others, "{directory:?} node {i}");
        }

        let target = "/cgi-bin/adl?id=300&ms=0";
        HttpClient::new(servers[0].http_addr()).get(target).unwrap();
        let key = swala_cache::CacheKey::new(target);
        let homes = servers[0].manager().placement().homes(&key).to_vec();
        wait_until(
            || {
                homes
                    .iter()
                    .all(|h| servers[h.index()].manager().directory().len(NodeId(0)) == 1)
            },
            "insert notice at the key's homes",
        );
        let remote = HttpClient::new(servers[1].http_addr()).get(target).unwrap();
        assert_eq!(
            cache_tag(&remote),
            cache_header::REMOTE_HIT,
            "{directory:?}"
        );
        for s in servers {
            s.shutdown();
        }
    }
}

#[test]
fn cooperative_remote_hit() {
    let servers = cluster(2, true);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let mut c1 = HttpClient::new(servers[1].http_addr());

    // Node 0 executes and caches; broadcast reaches node 1.
    let first = c0.get("/cgi-bin/adl?id=100&ms=0").unwrap();
    assert_eq!(cache_tag(&first), cache_header::MISS);
    wait_until(
        || servers[1].manager().directory().len(NodeId(0)) == 1,
        "insert notice at node 1",
    );

    // Node 1 serves the same request by fetching from node 0.
    let remote = c1.get("/cgi-bin/adl?id=100&ms=0").unwrap();
    assert_eq!(cache_tag(&remote), cache_header::REMOTE_HIT);
    assert_eq!(
        remote.body, first.body,
        "remote fetch returns identical bytes"
    );

    assert_eq!(servers[1].cache_stats().remote_hits, 1);
    // The owner recorded the peer's fetch in its metadata (§4.1).
    let key = swala_cache::CacheKey::new("/cgi-bin/adl?id=100&ms=0");
    assert_eq!(
        servers[0]
            .manager()
            .directory()
            .get(NodeId(0), &key)
            .unwrap()
            .hits,
        1
    );
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn false_hit_falls_back_to_local_execution() {
    let servers = cluster(2, true);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let mut c1 = HttpClient::new(servers[1].http_addr());

    c0.get("/cgi-bin/adl?id=200&ms=0").unwrap();
    wait_until(
        || servers[1].manager().directory().len(NodeId(0)) == 1,
        "insert notice at node 1",
    );

    // Node 0 deletes the entry locally, but node 1 is told nothing yet
    // (we reach into the manager directly, bypassing the broadcast —
    // exactly the §4.2 race window).
    let key = swala_cache::CacheKey::new("/cgi-bin/adl?id=200&ms=0");
    servers[0].manager().remove_local(&key).unwrap();

    let resp = c1.get("/cgi-bin/adl?id=200&ms=0").unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(cache_tag(&resp), cache_header::FALSE_HIT);
    assert_eq!(servers[1].cache_stats().false_hits, 1);
    // Node 1 cached its own fallback execution.
    assert_eq!(servers[1].manager().directory().len(NodeId(1)), 1);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn delete_broadcast_prevents_false_hits() {
    let servers = cluster(2, true);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let mut c1 = HttpClient::new(servers[1].http_addr());

    c0.get("/cgi-bin/adl?id=300&ms=0").unwrap();
    wait_until(
        || servers[1].manager().directory().len(NodeId(0)) == 1,
        "insert notice at node 1",
    );

    // Proper deletion path: remove locally and broadcast, as the server
    // daemons do for expiry.
    let key = swala_cache::CacheKey::new("/cgi-bin/adl?id=300&ms=0");
    servers[0].manager().remove_local(&key).unwrap();
    // Simulate the server's broadcast of that deletion.
    let link = swala_proto::PeerLink::new(NodeId(0), NodeId(1), servers[1].cache_addr());
    link.send(&swala_proto::Message::DeleteNotice {
        owner: NodeId(0),
        key: key.clone(),
    })
    .unwrap();
    wait_until(
        || servers[1].manager().directory().len(NodeId(0)) == 0,
        "delete notice at node 1",
    );

    let resp = c1.get("/cgi-bin/adl?id=300&ms=0").unwrap();
    assert_eq!(
        cache_tag(&resp),
        cache_header::MISS,
        "clean miss, not a false hit"
    );
    assert_eq!(servers[1].cache_stats().false_hits, 0);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn no_cache_cluster_never_shares() {
    let servers = cluster(2, false);
    let mut c0 = HttpClient::new(servers[0].http_addr());
    let mut c1 = HttpClient::new(servers[1].http_addr());
    c0.get("/cgi-bin/adl?id=400&ms=0").unwrap();
    c1.get("/cgi-bin/adl?id=400&ms=0").unwrap();
    assert_eq!(servers[0].cache_stats().inserts, 0);
    assert_eq!(servers[1].cache_stats().inserts, 0);
    assert_eq!(servers[0].request_stats().executions, 1);
    assert_eq!(servers[1].request_stats().executions, 1);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn concurrent_clients_on_one_node() {
    let server = single(ServerOptions {
        policy: PolicyKind::GreedyDualSize,
        ..Default::default()
    });
    let addr = server.http_addr();
    let mut handles = Vec::new();
    for t in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::new(addr);
            for i in 0..20 {
                let id = (t * 20 + i) % 10; // overlap across threads
                let r = client.get(&format!("/cgi-bin/adl?id={id}&ms=0")).unwrap();
                assert_eq!(r.status, StatusCode::OK);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.cache_stats();
    assert_eq!(stats.lookups, 160);
    assert!(stats.hits() + stats.misses >= 160 - stats.false_misses);
    assert_eq!(server.request_stats().requests, 160);
    server.shutdown();
}

#[test]
fn keep_alive_and_close_semantics() {
    let server = single(ServerOptions::default());
    let mut client = HttpClient::new(server.http_addr());
    // keep-alive: multiple requests on one connection
    for _ in 0..3 {
        client.get("/cgi-bin/nullcgi").unwrap();
    }
    assert_eq!(server.request_stats().connections, 1);
    // Connection: close tears down after one response
    let mut req = Request::new(Method::Get, "/cgi-bin/nullcgi").unwrap();
    req.headers.set("Connection", "close");
    let resp = client.request(&req).unwrap();
    assert_eq!(resp.headers.get("Connection"), Some("close"));
    client.get("/cgi-bin/nullcgi").unwrap(); // forces reconnect
    assert_eq!(server.request_stats().connections, 2);
    server.shutdown();
}

#[test]
fn malformed_request_gets_400_class_reply() {
    let server = single(ServerOptions::default());
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(server.http_addr()).unwrap();
    s.write_all(b"GARBAGE-METHOD / HTTP/1.0\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.0 501"), "got: {buf}");
    server.shutdown();
}

#[test]
fn fragmented_request_bytes_parse_correctly() {
    use std::io::{Read, Write};
    let server = single(ServerOptions::default());
    let mut s = std::net::TcpStream::connect(server.http_addr()).unwrap();
    // Dribble the request a few bytes at a time, as a slow client would.
    let wire = b"GET /cgi-bin/nullcgi HTTP/1.0\r\nHost: dribble\r\n\r\n";
    for chunk in wire.chunks(7) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
    server.shutdown();
}

#[test]
fn mid_request_stall_does_not_lose_parsed_bytes() {
    // Regression: a client that sends the request line, stalls past the
    // server's read tick, then sends the headers used to have its parse
    // restarted from scratch — the buffered request line was lost and
    // the headers were parsed as a request line. The idle timeout must
    // only apply before the first byte of a request.
    use std::io::{Read, Write};
    let server = single(ServerOptions::default());
    let mut s = std::net::TcpStream::connect(server.http_addr()).unwrap();
    s.write_all(b"GET /cgi-bin/nullcgi HTTP/1.0\r\n").unwrap();
    s.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    s.write_all(b"Host: slowpoke\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
    server.shutdown();
}

#[test]
fn mid_request_stall_past_idle_limit_gets_408() {
    // A client that starts a request and then goes silent for longer
    // than the keep-alive idle limit is answered 408 and disconnected —
    // not silently dropped (that's for never-started requests), and not
    // given a corrupted parse.
    use std::io::{Read, Write};
    let server = single(ServerOptions::default());
    let mut s = std::net::TcpStream::connect(server.http_addr()).unwrap();
    s.write_all(b"GET /cgi-bin/nullcgi HTTP/1.1\r\nHost: wed")
        .unwrap();
    s.flush().unwrap();
    // No more bytes: the server must give up after KEEP_ALIVE_IDLE (5s).
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    // The request never parsed, so the response uses the default wire
    // version (as the other pre-parse error replies do).
    assert!(out.starts_with("HTTP/1.0 408"), "{out}");
    assert!(out.contains("Request Timeout"), "{out}");
    server.shutdown();
}

#[test]
fn oversized_body_rejected_with_413() {
    use std::io::{Read, Write};
    let server = single(ServerOptions::default());
    let mut s = std::net::TcpStream::connect(server.http_addr()).unwrap();
    // Claim a body far beyond MAX_BODY; the server must refuse without
    // reading it.
    s.write_all(
        format!(
            "POST /cgi-bin/nullcgi HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            swala_http::MAX_BODY + 1
        )
        .as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 413"), "{out}");
    server.shutdown();
}

#[test]
fn hundreds_of_sequential_connections_do_not_exhaust_the_pool() {
    // Connection-per-request clients (Connection: close) must never wedge
    // the accept loop.
    let server = single(ServerOptions::default());
    for i in 0..150 {
        let mut req = Request::new(Method::Get, "/cgi-bin/adl?id=1&ms=0").unwrap();
        req.headers.set("Connection", "close");
        let mut c = HttpClient::new(server.http_addr());
        let r = c.request(&req).unwrap();
        assert!(r.status.is_success(), "request {i}");
    }
    assert_eq!(server.request_stats().requests, 150);
    assert_eq!(server.request_stats().connections, 150);
    server.shutdown();
}
