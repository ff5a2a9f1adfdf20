//! End-to-end tests for the zero-copy hit path: the in-memory body
//! tier (warm local hits without store reads), the persistent fetch
//! pool (a burst of remote hits over few connections), and the
//! counters both expose on the status page.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::{CacheKey, DirectoryKind, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;
use swala_proto::DEFAULT_POOL_SIZE;

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

/// The keys the two-node tests warm on node 0 are homed at node 1 on the
/// partitioned ring, so under either directory node 1 hears of them.
fn two_node_cluster(directory: DirectoryKind) -> Vec<SwalaServer> {
    swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 4,
            directory,
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap()
}

fn wait_for_remote_entry(server: &SwalaServer, owner: NodeId, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.manager().directory().len(owner) < n {
        assert!(Instant::now() < deadline, "directory never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn warm_local_hits_never_touch_the_store() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());

    let miss = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(miss.headers.get("X-Swala-Cache"), Some("miss"));
    let after_insert = server.cache_stats();
    assert_eq!(
        server.manager().bodies().mem_bytes(),
        0,
        "an insert holds no memory"
    );

    // The first hit reads the store once and promotes the body.
    let first = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(first.headers.get("X-Swala-Cache"), Some("local-hit"));
    let after_first = server.cache_stats();
    assert_eq!(after_first.store_reads, after_insert.store_reads + 1);
    assert_eq!(after_first.mem_hits, 0);
    assert!(
        server.manager().bodies().mem_bytes() > 0,
        "tier holds the cached body"
    );

    let second = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    let third = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(second.headers.get("X-Swala-Cache"), Some("local-hit"));
    assert_eq!(third.headers.get("X-Swala-Cache"), Some("local-hit"));
    assert_eq!(first.body, second.body);
    assert_eq!(second.body, third.body);

    let warm = server.cache_stats();
    assert_eq!(
        warm.mem_hits, 2,
        "both warm hits served from the memory tier"
    );
    assert_eq!(
        warm.store_reads, after_first.store_reads,
        "warm hits must not read the store"
    );
}

#[test]
fn disabled_mem_tier_still_serves_local_hits() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            mem_cache_bytes: 0,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    let hit = client.get("/cgi-bin/adl?id=7&ms=0").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));
    let stats = server.cache_stats();
    assert_eq!(stats.mem_hits, 0);
    assert_eq!(server.manager().bodies().mem_bytes(), 0);
    assert!(stats.store_reads >= 1, "every hit reads the store");
}

#[test]
fn remote_hit_burst_reuses_pooled_connections() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);

        let mut client = HttpClient::new(nodes[1].http_addr());
        for _ in 0..12 {
            let r = client.get("/cgi-bin/adl?id=31&ms=0").unwrap();
            assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
        }
        let pool = nodes[1].fetch_pool().stats();
        assert!(
            pool.connects_opened <= DEFAULT_POOL_SIZE as u64,
            "burst over one client must reuse, opened {}",
            pool.connects_opened
        );
        assert!(
            pool.reuses >= 10,
            "most fetches ride warm connections, reused {}",
            pool.reuses
        );
        for n in nodes {
            n.shutdown();
        }
    }
}

/// The cache port's `swala_engine_parks` staying flat: back-to-back
/// remote hits ride a warm fetch connection its owner's thread lingers
/// on, so the owner's cache port parks nothing.
#[test]
fn back_to_back_remote_hits_never_park_on_the_owners_cache_port() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=31&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);

        let mut client = HttpClient::new(nodes[1].http_addr());
        for _ in 0..1000 {
            let r = client.get("/cgi-bin/adl?id=31&ms=0").unwrap();
            assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
        }
        assert_eq!(nodes[0].cache_port_stats().parks(), 0, "{directory:?}");
        for n in nodes {
            n.shutdown();
        }
    }
}

/// Sixteen clients of remote hits on a pair, four times the fetch
/// connections the requester may open to its peer: the burst queues for
/// those connections instead of dialing more, and the owner's cache port,
/// sized for them, parks nothing.
#[test]
fn a_live_burst_of_remote_hits_stays_inside_the_fetch_set() {
    const CLIENTS: usize = 16;
    const KEYS_EACH: usize = 4;
    for directory in DirectoryKind::ALL {
        let nodes = swala::start_cluster(2, |_| {
            let options = ServerOptions {
                directory,
                ..Default::default()
            };
            (options, registry())
        })
        .unwrap();
        let targets: Vec<String> = (0..CLIENTS * KEYS_EACH)
            .map(|i| format!("/cgi-bin/adl?id=b{i}&ms=0"))
            .collect();
        let mut warm = HttpClient::new(nodes[0].http_addr());
        for t in &targets {
            warm.get(t).unwrap();
        }
        // Node 1 hears of the keys it is a home of and asks node 0, their
        // home, about the rest.
        let placement = nodes[1].manager().placement();
        let heard = targets
            .iter()
            .filter(|t| {
                placement
                    .homes(&CacheKey::new(t.as_str()))
                    .contains(&NodeId(1))
            })
            .count();
        wait_for_remote_entry(&nodes[1], NodeId(0), heard);

        let addr = nodes[1].http_addr();
        let clients: Vec<_> = targets
            .chunks(KEYS_EACH)
            .map(|mine| {
                // Keys of its own, so no two clients share a flight.
                let mine = mine.to_vec();
                std::thread::spawn(move || {
                    let mut client = HttpClient::new(addr);
                    for i in 0..100 {
                        let r = client.get(&mine[i % KEYS_EACH]).unwrap();
                        assert_eq!(r.headers.get("X-Swala-Cache"), Some("remote-hit"));
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let pool = nodes[1].fetch_pool().stats();
        assert!(
            pool.connects_opened <= DEFAULT_POOL_SIZE as u64,
            "{directory:?}: {pool}"
        );
        assert!(pool.waits > 0, "{directory:?}: {pool}");
        assert_eq!(nodes[0].cache_port_stats().parks(), 0, "{directory:?}");
        for n in nodes {
            n.shutdown();
        }
    }
}

#[test]
fn status_page_shows_hot_path_counters() {
    for directory in DirectoryKind::ALL {
        let nodes = two_node_cluster(directory);
        let mut warm = HttpClient::new(nodes[0].http_addr());
        warm.get("/cgi-bin/adl?id=5&ms=0").unwrap();
        warm.get("/cgi-bin/adl?id=5&ms=0").unwrap();
        wait_for_remote_entry(&nodes[1], NodeId(0), 1);
        let mut client = HttpClient::new(nodes[1].http_addr());
        client.get("/cgi-bin/adl?id=5&ms=0").unwrap();

        let page = client.get("/swala-status").unwrap();
        assert_eq!(page.status, StatusCode::OK);
        let html = String::from_utf8(page.body.into_vec()).unwrap();
        assert!(html.contains("Fetch pool"), "{html}");
        assert!(html.contains("connects=1"), "{html}");
        assert!(html.contains("waits=0"), "{html}");

        // Node 0 served one local hit, which read the store and promoted
        // the body, then node 1's fetch from the memory tier.
        let page = warm.get("/swala-status").unwrap();
        let html = String::from_utf8(page.body.into_vec()).unwrap();
        assert!(html.contains("mem_hits=1 "), "{html}");
        assert!(html.contains("store_reads=1 "), "{html}");
        for n in nodes {
            n.shutdown();
        }
    }
}

#[test]
fn responses_carry_a_cached_date_header() {
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry(),
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let r = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    let date = r.headers.get("Date").expect("Date header present");
    assert!(date.ends_with(" GMT"), "RFC 1123 format: {date}");
}

/// A stand-in owner that takes fetch requests and trickles each reply a
/// byte at a time, so every exchange stays alive (no read waits long
/// enough to time out) and holds its connection until `stop`. Any other
/// frame (the notice link's) is read and ignored.
fn trickling_owner(stop: Arc<std::sync::atomic::AtomicBool>) -> std::net::SocketAddr {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    use swala_proto::{read_frame, write_frame, Message};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while let Ok(Some(frame)) = read_frame(&mut conn) {
                    if !matches!(Message::decode(&frame), Ok(Message::FetchRequest { .. })) {
                        continue;
                    }
                    let reply = Message::FetchHit {
                        content_type: "text/html".into(),
                        body: b"stalled".to_vec(),
                    };
                    let mut wire = Vec::new();
                    write_frame(&mut wire, &reply.encode()).unwrap();
                    for byte in wire {
                        if stop.load(Ordering::SeqCst) || conn.write_all(&[byte]).is_err() {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(300));
                    }
                }
            });
        }
    });
    addr
}

/// Busy fetch slots are this node's load, not evidence against the
/// owner: with every one of the `DEFAULT_POOL_SIZE` connections held by
/// a stalled exchange, a further remote hit runs the CGI itself once its
/// one wait for a slot runs out — not after a retry per attempt — and
/// records no failure against the owner.
#[test]
fn a_remote_hit_that_finds_every_slot_busy_falls_back_at_once() {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let owner = trickling_owner(Arc::clone(&stop));
    let options = ServerOptions {
        num_nodes: 2,
        pool_size: 2 * DEFAULT_POOL_SIZE,
        ..Default::default()
    };
    let server = swala::BoundSwala::bind(options, registry())
        .unwrap()
        .start(vec![None, Some(owner)])
        .unwrap();
    let target = |i: usize| format!("/cgi-bin/adl?id={i}&ms=0");
    for i in 0..=DEFAULT_POOL_SIZE {
        let key = CacheKey::new(target(i));
        let meta = swala_cache::EntryMeta::new(key, NodeId(1), 7, "text/html", 1000, None, 1);
        server.manager().apply_remote_insert(meta);
    }
    let addr = server.http_addr();
    let holders: Vec<_> = (0..DEFAULT_POOL_SIZE)
        .map(|i| {
            let target = target(i);
            std::thread::spawn(move || HttpClient::new(addr).get(&target))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.fetch_pool().stats().connects_opened < DEFAULT_POOL_SIZE as u64 {
        assert!(Instant::now() < deadline, "the holders never dialed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    let resp = HttpClient::new(addr)
        .get(&target(DEFAULT_POOL_SIZE))
        .unwrap();
    let took = started.elapsed();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(
        resp.headers.get("X-Swala-Cache"),
        Some("remote-unreachable-fallback")
    );
    let fetch_timeout = swala::handler::FETCH_TIMEOUT;
    assert!(
        took < fetch_timeout + Duration::from_secs(1),
        "fell back after {took:?}, one wait is {fetch_timeout:?}"
    );
    let failures: u64 = server.peer_health().iter().map(|h| h.total_failures).sum();
    assert_eq!(failures, 0, "{:?}", server.peer_health());
    assert_eq!(server.fetch_pool().stats().waits, 1);

    // Cut the stall: the holders end with their own outcomes.
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for holder in holders {
        assert_eq!(holder.join().unwrap().unwrap().status, StatusCode::OK);
    }
    server.shutdown();
}
