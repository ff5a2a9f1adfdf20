//! Chaos tests: deterministic fault injection against live clusters.
//!
//! Every scenario drives a real multi-node cluster through a seeded
//! [`FaultInjector`] wired into all three transport seams (broadcast
//! connector, fetch/sync dialer, daemon accept path). The §4.2 weak
//! consistency design promises that *no* transport failure ever turns
//! into a client-visible error — the worst case is a local CGI
//! re-execution — and these tests hold the implementation to it.
//!
//! The seed comes from `SWALA_CHAOS_SEED` (default 42) so CI can sweep
//! seeds nightly while the default run stays bit-reproducible.

use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::NodeId;
use swala_cluster::{ClusterConfig, SwalaCluster};
use swala_proto::{
    FaultAction, FaultEvent, FaultInjector, FaultRule, PeerState, FETCH_ATTEMPTS, QUARANTINE_AFTER,
};

/// Series `name` of `node`'s metrics registry, the one labelled `label`.
fn series(node: &SwalaServer, name: &str, label: Option<&str>) -> u64 {
    swala_obs::lookup(&node.telemetry().registry().snapshot(), name, label).unwrap()
}

/// `node`'s view of `peer`: health state, failure streak, quarantines.
fn health(node: &SwalaServer, peer: &str) -> (PeerState, u64, u64) {
    let state = match series(node, "swala_peer_state", Some(peer)) {
        0 => PeerState::Healthy,
        1 => PeerState::Suspect,
        2 => PeerState::Quarantined,
        _ => PeerState::Probing,
    };
    let streak = series(node, "swala_peer_failure_streak", Some(peer));
    (
        state,
        streak,
        series(node, "swala_peer_quarantines", Some(peer)),
    )
}

fn chaos_seed() -> u64 {
    std::env::var("SWALA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Every chaos node's options: faults on every seam, and otherwise the
/// node Swala ships — `FETCH_ATTEMPTS` per fetch, quarantine after
/// `QUARANTINE_AFTER` failed requests, a warm fetch pool. No drill
/// fetches from a quarantined peer, whose entries quarantine evicts.
fn chaos_node(inj: &Arc<FaultInjector>) -> ServerOptions {
    ServerOptions {
        faults: Some(Arc::clone(inj)),
        // These drills script exact broadcast/NodeDown repair sequences
        // of the paper's replicated directory, where every peer hears
        // every notice. Partitioned fault handling is covered by
        // tests/directory_modes.rs.
        directory: swala_cache::DirectoryKind::Replicated,
        ..ClusterConfig::default().node
    }
}

/// Drain every node's broadcast queues. Unlike `SwalaCluster::quiesce`
/// this works under active partitions, where directories legitimately
/// disagree forever (dropped notices are dropped, not retried).
fn settle(cluster: &SwalaCluster) {
    for s in cluster.nodes() {
        s.flush_broadcasts(Duration::from_secs(5));
    }
    std::thread::sleep(Duration::from_millis(20));
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn cache_tag(resp: &swala_http::Response) -> String {
    resp.headers
        .get("X-Swala-Cache")
        .unwrap_or("<none>")
        .to_string()
}

/// A dead peer produces zero request failures: every affected request is
/// served by a local-execution fallback, the corpse is quarantined after
/// `QUARANTINE_AFTER` failed requests, its directory entries are evicted,
/// and — the acceptance criterion — fetch attempts toward it stop
/// entirely.
#[test]
fn dead_peer_causes_zero_failures_and_attempts_stop() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();

    // Warm node 1 and record the correct bodies: a failure streak's worth
    // of keys, and as many again to serve after the quarantine.
    let fallbacks = QUARANTINE_AFTER as usize;
    let targets: Vec<String> = (0..2 * fallbacks)
        .map(|i| format!("/cgi-bin/adl?id=9{i}&ms=0"))
        .collect();
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let bodies: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| c1.get(t).unwrap().body.into_vec())
        .collect();
    assert!(cluster.wait_for_directory_convergence(6, Duration::from_secs(10)));
    settle(&cluster);

    // Node 1 drops dead as far as node 0 can tell.
    inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop));

    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut tags = Vec::new();
    for (t, body) in targets.iter().zip(&bodies) {
        let r = c0.get(t).unwrap();
        assert!(r.status.is_success(), "request failed during outage: {t}");
        assert_eq!(&r.body, body, "fallback body wrong for {t}");
        tags.push(cache_tag(&r));
    }
    // The streak reaches the quarantine threshold; everything after is a
    // clean miss because the corpse's directory entries were evicted.
    assert_eq!(
        tags[..fallbacks],
        ["remote-unreachable-fallback"; QUARANTINE_AFTER as usize]
    );
    assert_eq!(tags[fallbacks..], ["miss"; QUARANTINE_AFTER as usize]);

    let node0 = cluster.node(0);
    let server_errors = series(node0, "swala_http_server_errors", None);
    assert_eq!(server_errors, 0, "dead peer must not cause errors");
    assert_eq!(
        series(node0, "swala_http_quarantine_skips", None),
        0,
        "eviction, not the gate, stops traffic"
    );
    let (state, _, quarantines) = health(node0, "1");
    assert_eq!(state, PeerState::Quarantined);
    assert_eq!(quarantines, 1);
    assert_eq!(
        cluster.node(0).manager().directory().len(NodeId(1)),
        0,
        "corpse's directory entries evicted"
    );
    assert_eq!(
        cluster.node(0).cache_stats().node_evictions,
        targets.len() as u64
    );

    // Acceptance: with the directory repaired, re-serving the same keys
    // makes zero further attempts toward the dead peer.
    settle(&cluster);
    let before = inj.attempt_count(NodeId(0), NodeId(1));
    for (t, body) in targets.iter().zip(&bodies) {
        let r = c0.get(t).unwrap();
        assert_eq!(cache_tag(&r), "local-hit");
        assert_eq!(&r.body, body);
    }
    assert_eq!(
        inj.attempt_count(NodeId(0), NodeId(1)),
        before,
        "fetch attempts to the quarantined peer must drop to zero"
    );
    cluster.shutdown();
}

/// The quarantine declaration propagates: when node 0 declares node 2
/// dead, its `NodeDown` broadcast makes node 1 evict node 2's directory
/// entries too, even though node 1 never saw a failure itself.
#[test]
fn node_down_broadcast_repairs_third_party_directories() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 3,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();

    // A failure streak's worth of keys, and one to ask after it.
    let streak = QUARANTINE_AFTER as usize;
    let targets: Vec<String> = (0..=streak)
        .map(|i| format!("/cgi-bin/adl?id=8{i}&ms=0"))
        .collect();
    let mut c2 = HttpClient::new(cluster.node(2).http_addr());
    for t in &targets {
        c2.get(t).unwrap();
    }
    assert!(cluster.wait_for_directory_convergence(targets.len(), Duration::from_secs(10)));
    settle(&cluster);

    // Only the 0→2 path dies; 0→1 and 1→2 stay healthy.
    inj.add_rule(FaultRule::between(NodeId(0), NodeId(2), FaultAction::Drop));

    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    for t in &targets[..streak] {
        let r = c0.get(t).unwrap();
        assert!(r.status.is_success());
        assert_eq!(cache_tag(&r), "remote-unreachable-fallback");
    }
    assert_eq!(health(cluster.node(0), "2").0, PeerState::Quarantined);

    // Node 1 trusted the declaration and dropped its stale view of 2.
    wait_until("NodeDown reached node 1", || {
        cluster.node(1).manager().directory().len(NodeId(2)) == 0
    });
    assert_eq!(cluster.node(0).manager().directory().len(NodeId(2)), 0);
    // The next affected request at node 0 is a plain miss — no fetch.
    let r = c0.get(&targets[streak]).unwrap();
    assert_eq!(cache_tag(&r), "miss");
    cluster.shutdown();
}

/// Retry exhaustion: a persistently refused fetch makes its
/// `FETCH_ATTEMPTS` attempts with backoff, then falls back to local CGI
/// execution — still a 200, with the retries visible in the stats.
#[test]
fn retry_exhaustion_falls_back_to_local_execution() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=70&ms=0";
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let warm_body = c1.get(target).unwrap().body;
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop));
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let before = inj.attempt_count(NodeId(0), NodeId(1));
    let r = c0.get(target).unwrap();
    assert!(r.status.is_success());
    assert_eq!(cache_tag(&r), "remote-unreachable-fallback");
    assert_eq!(r.body, warm_body);

    assert_eq!(
        series(cluster.node(0), "swala_http_fetch_retries", None),
        u64::from(FETCH_ATTEMPTS - 1),
        "every attempt after the first is a retry"
    );
    assert!(
        inj.attempt_count(NodeId(0), NodeId(1)) >= before + u64::from(FETCH_ATTEMPTS),
        "every attempt hit the wire"
    );
    // One request is one failure for the health tracker, however many
    // transport attempts it took.
    let (state, streak, _) = health(cluster.node(0), "1");
    assert_eq!(state, PeerState::Suspect);
    assert_eq!(streak, 1);
    cluster.shutdown();
}

/// A transient refusal (exactly one dropped attempt) is absorbed by the
/// retry loop: the request still completes as a remote hit.
#[test]
fn single_transient_failure_is_hidden_by_retry() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=71&ms=0";
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let warm_body = c1.get(target).unwrap().body;
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    // Fault exactly the next 0→1 attempt, whatever its index is by now.
    let n = inj.attempt_count(NodeId(0), NodeId(1));
    inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop).window(n, n + 1));

    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let r = c0.get(target).unwrap();
    assert_eq!(cache_tag(&r), "remote-hit", "retry recovered the fetch");
    assert_eq!(r.body, warm_body);
    assert_eq!(series(cluster.node(0), "swala_http_fetch_retries", None), 1);
    assert_eq!(health(cluster.node(0), "1").0, PeerState::Healthy);
    assert_eq!(inj.trace().len(), 1);
    cluster.shutdown();
}

/// Full partition, then heal: during the partition both sides keep
/// serving correct answers from local execution; after `clear_rules`
/// new inserts propagate and cooperative caching resumes. The partition
/// drops notices, so neither node ever fetches from the other during it
/// and no failure streak starts.
#[test]
fn partition_heals_and_cooperation_resumes() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());

    // Partition the pair in both directions before any traffic.
    inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop));
    inj.add_rule(FaultRule::between(NodeId(1), NodeId(0), FaultAction::Drop));

    let a = "/cgi-bin/adl?id=60&ms=0";
    let body_a = {
        let r = c0.get(a).unwrap();
        assert_eq!(cache_tag(&r), "miss");
        r.body
    };
    settle(&cluster);
    // The insert notice was dropped: node 1 never learns of the entry and
    // serves its own execution — correct, just not cooperative.
    assert_eq!(cluster.node(1).manager().directory().len(NodeId(0)), 0);
    let r = c1.get(a).unwrap();
    assert!(r.status.is_success());
    assert_eq!(cache_tag(&r), "miss");
    assert_eq!(r.body, body_a, "split-brain answers still agree");

    // Heal. Fresh inserts flow again and remote hits resume.
    inj.clear_rules();
    let b = "/cgi-bin/adl?id=61&ms=0";
    let body_b = c0.get(b).unwrap().body;
    wait_until("post-heal insert notice reaches node 1", || {
        cluster.node(1).manager().directory().len(NodeId(0)) >= 1
    });
    let r = c1.get(b).unwrap();
    assert_eq!(cache_tag(&r), "remote-hit");
    assert_eq!(r.body, body_b);
    assert_eq!(series(cluster.node(0), "swala_http_server_errors", None), 0);
    assert_eq!(series(cluster.node(1), "swala_http_server_errors", None), 0);
    for (n, peer) in cluster.nodes().iter().zip(["1", "0"]) {
        assert_eq!(series(n, "swala_peer_failures", Some(peer)), 0);
    }
    cluster.shutdown();
}

/// §4.2's false hit, plus the new repair: after an owner silently loses
/// an entry (restart with an empty cache), the first false hit broadcasts
/// a `DeleteNotice` on the owner's behalf, so *other* nodes drop their
/// stale directory entries without ever paying for a false hit.
#[test]
fn false_hit_after_silent_restart_repairs_the_cluster() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 3,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=50&ms=0";
    let mut c2 = HttpClient::new(cluster.node(2).http_addr());
    let warm_body = c2.get(target).unwrap().body;
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    // Silent restart: the owner forgets the entry without broadcasting.
    let key = swala_cache::CacheKey::new(target);
    cluster.node(2).manager().remove_local(&key).unwrap();

    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let r = c0.get(target).unwrap();
    assert_eq!(cache_tag(&r), "false-hit-fallback");
    assert_eq!(r.body, warm_body, "fallback re-execution served the truth");
    assert_eq!(cluster.node(0).cache_stats().false_hits, 1);
    // The Gone reply proved node 2 alive — no quarantine.
    assert_eq!(health(cluster.node(0), "2").0, PeerState::Healthy);

    // Repair: node 1's stale pointer at node 2 disappears...
    wait_until("repair delete reaches node 1", || {
        cluster.node(1).manager().directory().len(NodeId(2)) == 0
    });
    // ...and is replaced by node 0's fresh copy, so node 1 remote-hits
    // node 0 instead of false-hitting node 2.
    wait_until("node 0's insert reaches node 1", || {
        cluster.node(1).manager().directory().len(NodeId(0)) == 1
    });
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let r = c1.get(target).unwrap();
    assert_eq!(cache_tag(&r), "remote-hit");
    assert_eq!(r.body, warm_body);
    assert_eq!(cluster.node(1).cache_stats().false_hits, 0);
    cluster.shutdown();
}

/// Crash a node while broadcasts to it are still queued: survivors keep
/// serving, the dead link just counts drops, and no request ever fails.
#[test]
fn node_crash_mid_broadcast_leaves_survivors_consistent() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 3,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    // Queue a burst of insert notices, then kill node 2 immediately — no
    // flush, so its link dies with frames in flight.
    for i in 0..10 {
        c0.get(&format!("/cgi-bin/adl?id=4{i}&ms=0")).unwrap();
    }
    let mut nodes = cluster.into_nodes();
    let crashed = nodes.remove(2);
    crashed.shutdown();

    // Survivor 1 converges on everything node 0 inserted (its own link
    // from node 0 is healthy) and serves remote hits.
    let node0 = &nodes[0];
    let node1 = &nodes[1];
    let deadline = Instant::now() + Duration::from_secs(10);
    while node1.manager().directory().len(NodeId(0)) < 10 {
        assert!(Instant::now() < deadline, "node 1 never converged");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c1 = HttpClient::new(node1.http_addr());
    let r = c1.get("/cgi-bin/adl?id=40&ms=0").unwrap();
    assert_eq!(cache_tag(&r), "remote-hit");
    // New work on the survivors continues unharmed.
    let r = c0.get("/cgi-bin/adl?id=411&ms=0").unwrap();
    assert!(r.status.is_success());
    assert_eq!(series(node0, "swala_http_server_errors", None), 0);
    assert_eq!(series(node1, "swala_http_server_errors", None), 0);
    for n in nodes {
        n.shutdown();
    }
}

/// Deterministic body for the segment-store kill -9 drill, so the parent
/// process can verify byte-identity with no channel beyond the acks.
fn seg_chaos_body(i: usize) -> Vec<u8> {
    let mut b = format!("k9-body-{i}:").into_bytes();
    b.extend((0..300).map(|j| (i.wrapping_mul(131).wrapping_add(j) & 0xff) as u8));
    b
}

/// Entries the kill -9 drill's writer keeps live: each put beyond that
/// is followed by the delete of the oldest, so new records land in space
/// that deleted ones gave up.
const K9_LIVE: usize = 8;

fn k9_key(i: usize) -> swala_cache::CacheKey {
    swala_cache::CacheKey::new(format!("/cgi-bin/adl?id=k9-{i}"))
}

/// Helper process for [`kill9_mid_insert_preserves_every_acked_entry`]:
/// inert unless re-exec'd with `SWALA_SEG_CHAOS_DIR` set, in which case
/// it inserts and deletes durably-acked entries until SIGKILLed. Each
/// "acked N" / "gone N" line is printed only after the fsync'd put /
/// delete returned, so each is a promise the restarted store must honor.
#[test]
fn segment_store_child_writer() {
    let Ok(dir) = std::env::var("SWALA_SEG_CHAOS_DIR") else {
        return;
    };
    use std::io::Write as _;
    use swala_cache::Store as _;
    let store =
        swala_cache::SegmentStore::open_with(dir, swala_cache::SegmentConfig { fsync: true })
            .unwrap();
    let meta = swala_cache::store::HeaderMeta {
        content_type: "text/html".to_string(),
        exec_micros: 500,
        expires_unix: None,
        created_unix: 1,
    };
    let say = |line: String| {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{line}").unwrap();
        out.flush().unwrap();
    };
    for i in 0usize.. {
        store
            .put_described(&k9_key(i), &meta, &seg_chaos_body(i))
            .unwrap();
        say(format!("acked {i}"));
        if i >= K9_LIVE {
            store.delete(&k9_key(i - K9_LIVE)).unwrap();
            say(format!("gone {}", i - K9_LIVE));
        }
    }
}

/// The segment store's headline crash gate: SIGKILL a writer process
/// mid-insert (no destructors, no flush) while it overwrites space in
/// place, restart, and every entry whose put was acknowledged before the
/// kill is served byte-identical — unless its delete was acknowledged
/// too, in which case it stays gone. The record being written at the
/// kill may be torn — recovery must absorb it silently, never trading
/// an acked promise for it. A warm restart through
/// `CacheManager::recover_from_store` then serves every survivor as a
/// local hit from the memory tier: the hit rate before the kill.
#[test]
fn kill9_mid_insert_preserves_every_acked_entry() {
    use std::io::BufRead;
    use swala_cache::Store as _;
    let dir = std::env::temp_dir().join(format!("swala-chaos-k9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["segment_store_child_writer", "--exact", "--nocapture"])
        .env("SWALA_SEG_CHAOS_DIR", &dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    /// Count one "acked N" / "gone N" line of the writer's; each kind
    /// arrives in order.
    fn tally(line: &str, acked: &mut usize, gone: &mut usize) {
        // libtest glues its unterminated "test <name> ... " progress
        // prefix onto the first ack, so match anywhere in the line.
        let number_after = |tag: &str| {
            line.find(tag)
                .map(|pos| line[pos + tag.len()..].trim().parse::<usize>().unwrap())
        };
        if let Some(n) = number_after("acked ") {
            assert_eq!(n, *acked, "acks in order");
            *acked += 1;
        } else if let Some(n) = number_after("gone ") {
            assert_eq!(n, *gone, "deletes in order");
            *gone += 1;
        }
    }
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let (mut acked, mut gone) = (0usize, 0usize);
    for line in lines.by_ref() {
        tally(&line.unwrap(), &mut acked, &mut gone);
        if acked >= 40 {
            break;
        }
    }
    // SIGKILL mid-write: the child gets no chance to close anything.
    child.kill().unwrap();
    let _ = child.wait();
    assert!(acked >= 40, "child writer died early at {acked} acks");
    // The writer kept going until the kill landed. What it acked in the
    // meantime is still in the pipe, and binds the restarted store too.
    for line in lines {
        tally(&line.unwrap(), &mut acked, &mut gone);
    }

    // Restart: a fresh process (this one) reopens the data file and
    // rebuilds index and extent map by scanning it.
    let store = swala_cache::SegmentStore::open(&dir).unwrap();
    assert!(
        store.metrics().file_bytes < (2 * K9_LIVE as u64 + 2) * 512,
        "space was not reused in place: {:?}",
        store.metrics()
    );
    for i in 0..gone {
        assert!(!store.contains(&k9_key(i)), "deleted entry {i} is back");
    }
    // Entry `gone` itself may have been mid-delete at the kill.
    for i in gone + 1..acked {
        let got = store
            .get(&k9_key(i))
            .unwrap_or_else(|e| panic!("acked entry {i} lost after kill -9: {e}"));
        assert_eq!(
            got,
            seg_chaos_body(i),
            "acked entry {i} not byte-identical after restart"
        );
    }

    // Warm restart through the whole manager: the table rebuilt from the
    // data file and the memory tier pre-warmed, so every survivor is a
    // local hit served from memory, as it was before the kill.
    let manager =
        swala_cache::CacheManager::new(swala_cache::CacheManagerConfig::default(), Box::new(store));
    let survivors = gone + 1..acked;
    let recovered = manager.recover_from_store();
    assert!(
        recovered >= survivors.len(),
        "{recovered} recovered, {} acked and not deleted",
        survivors.len()
    );
    for i in survivors.clone() {
        let key = k9_key(i);
        match manager.lookup(&key, key.as_str()) {
            swala_cache::LookupResult::LocalHit { body, .. } => assert_eq!(
                &body[..],
                &seg_chaos_body(i)[..],
                "acked entry {i} not byte-identical after a warm restart"
            ),
            other => panic!("acked entry {i} is no local hit after a warm restart: {other:?}"),
        }
    }
    assert_eq!(
        manager.stats().snapshot().mem_hits,
        survivors.len() as u64,
        "recovery pre-warms the memory tier"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay identity: the same seed and the same sequential schedule
/// produce the exact same fault-event trace, byte for byte, even with a
/// probabilistic rule in play.
#[test]
fn same_seed_same_schedule_same_trace() {
    fn run(seed: u64) -> Vec<FaultEvent> {
        let inj = FaultInjector::seeded(seed);
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            node: chaos_node(&inj),
            ..Default::default()
        })
        .unwrap();
        let targets: Vec<String> = (0..8)
            .map(|i| format!("/cgi-bin/adl?id=3{i}&ms=0"))
            .collect();
        let mut c1 = HttpClient::new(cluster.node(1).http_addr());
        for t in &targets {
            c1.get(t).unwrap();
        }
        assert!(cluster.wait_for_directory_convergence(8, Duration::from_secs(10)));
        settle(&cluster);

        // Half the 0→1 connections fail, decided by the seeded RNG.
        inj.add_rule(
            FaultRule::between(NodeId(0), NodeId(1), FaultAction::Drop).with_probability(0.5),
        );
        let mut c0 = HttpClient::new(cluster.node(0).http_addr());
        for t in &targets {
            let r = c0.get(t).unwrap();
            assert!(r.status.is_success());
            // Serialize: drain writer-thread fault decisions before the
            // next request so the decision order is schedule-determined.
            settle(&cluster);
            // The trace under test is made of dial-time fault decisions,
            // which a warm connection would skip: every fetch dials.
            cluster.node(0).fetch_pool().purge_peer(NodeId(1));
        }
        let trace = inj.trace();
        cluster.shutdown();
        trace
    }

    let seed = chaos_seed();
    let first = run(seed);
    let second = run(seed);
    assert_eq!(first, second, "seed {seed} did not replay identically");
    assert!(!first.is_empty(), "probabilistic rule never fired");
}

/// A flapping owner never fails a request: every entry lives on node 3,
/// half of all connections toward it (the accept path included) are
/// dropped, and the other three nodes keep asking for its entries. Each
/// reply is 2xx with the owner's body, whether a fetch got through, a
/// retry did, or the requester fell back to running the program itself.
/// Hit rates and retry counts depend on timing, so none is asserted.
#[test]
fn flapping_owner_never_fails_a_request() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 4,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let targets: Vec<String> = (0..24)
        .map(|i| format!("/cgi-bin/adl?id=9{i}&ms=0"))
        .collect();
    let mut c3 = HttpClient::new(cluster.node(3).http_addr());
    let bodies: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| c3.get(t).unwrap().body.into_vec())
        .collect();
    assert!(cluster.wait_for_directory_convergence(targets.len(), Duration::from_secs(10)));
    settle(&cluster);

    inj.add_rule(FaultRule::toward(NodeId(3), FaultAction::Drop).with_probability(0.5));
    let mut clients: Vec<HttpClient> = (0..3)
        .map(|n| HttpClient::new(cluster.node(n).http_addr()))
        .collect();
    for i in 0..240 {
        // Round robin over the requesters, each asking for every key.
        let (node, k) = (i % 3, i / 3 % targets.len());
        // A warm connection skips the dial, and with it the rule: keep
        // every requester dialing node 3 now and then.
        if i % 8 == 0 {
            cluster.node(node).fetch_pool().purge_peer(NodeId(3));
        }
        let r = clients[node].get(&targets[k]).unwrap();
        assert!(
            r.status.is_success(),
            "request {i} to node {node} answered {}",
            r.status
        );
        assert_eq!(r.body, bodies[k][..], "wrong body for request {i}");
    }
    for s in cluster.nodes() {
        assert_eq!(series(s, "swala_http_server_errors", None), 0);
    }
    assert!(!inj.trace().is_empty(), "the flapping rule never fired");
    cluster.shutdown();
}

/// A pooled fetch connection that dies mid-reply is replaced within the
/// same attempt: every request is still a complete remote hit — never a
/// torn body, never a client-visible error — and the recovery shows up
/// as `stale_drops` in the pool counters while the peer stays healthy.
#[test]
fn pooled_connection_truncated_mid_reply_recovers_in_place() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=60&ms=0";
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let warm_body = c1.get(target).unwrap().body.into_vec();
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    // Every 0→1 connection delivers ~2 replies worth of bytes, then
    // EOFs mid-frame — so warm connections keep dying under the burst.
    inj.add_rule(FaultRule::between(
        NodeId(0),
        NodeId(1),
        FaultAction::Truncate(2500),
    ));
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    for i in 0..8 {
        let r = c0.get(target).unwrap();
        assert_eq!(cache_tag(&r), "remote-hit", "request {i}");
        assert_eq!(r.body, warm_body[..], "torn body on request {i}");
    }

    let pool = cluster.node(0).fetch_pool().stats();
    assert!(pool.stale_drops >= 2, "mid-reply EOFs surfaced: {pool:?}");
    assert!(pool.reuses >= 2, "healthy stretches reused: {pool:?}");
    let node0 = cluster.node(0);
    assert_eq!(series(node0, "swala_http_server_errors", None), 0);
    assert_eq!(
        series(node0, "swala_http_fetch_retries", None),
        0,
        "recovery came from the pool, not from a retry"
    );
    // In-place reconnects are invisible to the health tracker.
    assert_eq!(health(node0, "1").0, PeerState::Healthy);
    cluster.shutdown();
}

/// A coalesced flash-crowd burst whose leader's remote fetch is
/// fault-injected must never deadlock: the leader holds the key's
/// flight, executes under it when the fetch fails, and everyone else is
/// served its body. Results arrive over a channel with a hard receive
/// deadline, so a stuck waiter fails the test instead of hanging it.
#[test]
fn coalesced_burst_with_faulted_leader_fetch_never_deadlocks() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=72&ms=150";
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let warm_body = c0.get(target).unwrap().body.into_vec();
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    // Every 1→0 fetch connection RSTs as soon as it is read, so the
    // coalesced fetch leader's attempt fails and the whole burst must
    // drain through the local-execution fallback.
    inj.add_rule(FaultRule::between(NodeId(1), NodeId(0), FaultAction::Reset));

    const BURST: usize = 8;
    let addr = cluster.node(1).http_addr();
    let (tx, rx) = std::sync::mpsc::channel();
    let workers: Vec<_> = (0..BURST)
        .map(|i| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut c = HttpClient::new(addr);
                let r = c.get(target).unwrap();
                let tag = cache_tag(&r);
                tx.send((i, r.status, r.body.into_vec(), tag)).unwrap();
            })
        })
        .collect();
    drop(tx);
    for _ in 0..BURST {
        let (i, status, body, tag) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coalesced waiter deadlocked under fault injection");
        assert!(status.is_success(), "request {i} failed (tag {tag})");
        assert_eq!(body, warm_body, "request {i} served a wrong body");
    }
    for w in workers {
        w.join().unwrap();
    }

    let stats = cluster.node(1).cache_stats();
    assert_eq!(series(cluster.node(1), "swala_http_server_errors", None), 0);
    // Every request was a remote hit; the burst shared one fetch (its
    // attempts each dialed) and one execution, and the failed fetch cost
    // the owner one strike.
    assert_eq!(stats.remote_hits, BURST as u64, "{stats}");
    assert_eq!(
        (stats.coalesce_waits, stats.coalesce_fallbacks),
        (0, 0),
        "{stats}"
    );
    let executions = series(cluster.node(1), "swala_http_executions", None);
    assert_eq!(executions, 1, "the leader executed, once");
    let pool = cluster.node(1).fetch_pool().stats();
    assert_eq!(
        pool.connects_opened + pool.reuses,
        u64::from(FETCH_ATTEMPTS),
        "{pool:?}"
    );
    let (state, streak, _) = health(cluster.node(1), "0");
    assert_eq!((state, streak), (PeerState::Suspect, 1));
    cluster.shutdown();
}

/// `n` identical GETs at `addr`, released together; each reply's status,
/// body and cache class. A receive deadline turns a stuck request into a
/// failure instead of a hang.
fn burst(addr: std::net::SocketAddr, target: &str, n: usize) -> Vec<(bool, Vec<u8>, String)> {
    let gate = Arc::new(std::sync::Barrier::new(n));
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..n {
        let (gate, tx, target) = (Arc::clone(&gate), tx.clone(), target.to_string());
        std::thread::spawn(move || {
            let mut c = HttpClient::new(addr);
            gate.wait();
            let r = c.get(&target).unwrap();
            let tag = cache_tag(&r);
            tx.send((r.status.is_success(), r.body.into_vec(), tag))
                .unwrap();
        });
    }
    (0..n)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("burst request stuck")
        })
        .collect()
}

/// One failed exchange is one health failure, whatever the burst size.
/// Eight same-instant remote hits meet an owner whose every fetch
/// connection is reset (each dial also delayed, so the burst lands inside
/// the first fetch): the leader's failed fetch is one strike of
/// `QUARANTINE_AFTER`, and the owner's other entries stay listed.
#[test]
fn remote_hit_burst_on_a_failing_owner_is_one_health_failure() {
    use swala_proto::faults::ACCEPT_SRC;
    const BURST: usize = 8;
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let targets: Vec<String> = (0..3)
        .map(|i| format!("/cgi-bin/adl?id=83{i}&ms=100"))
        .collect();
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let warm_body = c1.get(&targets[0]).unwrap().body.into_vec();
    for t in &targets[1..] {
        c1.get(t).unwrap();
    }
    assert!(cluster.wait_for_directory_convergence(3, Duration::from_secs(10)));
    settle(&cluster);

    inj.add_rule(FaultRule::between(
        NodeId(0),
        NodeId(1),
        FaultAction::Delay(Duration::from_millis(100)),
    ));
    inj.add_rule(FaultRule::between(
        ACCEPT_SRC,
        NodeId(1),
        FaultAction::Reset,
    ));
    for (ok, body, tag) in burst(cluster.node(0).http_addr(), &targets[0], BURST) {
        assert!(ok, "request failed (tag {tag})");
        assert_eq!(body, warm_body, "wrong body (tag {tag})");
    }

    assert_eq!(
        health(cluster.node(0), "1"),
        (PeerState::Suspect, 1, 0),
        "one failed fetch, one strike"
    );
    let stats = cluster.node(0).cache_stats();
    assert_eq!(stats.node_evictions, 0, "no NodeDown repair ran: {stats}");
    assert_eq!(
        cluster.node(0).manager().directory().len(NodeId(1)),
        3,
        "the owner's entries are still listed"
    );
    assert_eq!(series(cluster.node(0), "swala_http_executions", None), 1);
    cluster.shutdown();
}

/// One flight per key on the remote path: sixteen same-instant remote
/// hits behind a delayed dial reach the owner's wire once with
/// coalescing on (the others wait on the leader's flight) and sixteen
/// times with it off (every reader fetches for itself).
#[test]
fn remote_hit_burst_is_one_owner_fetch_unless_coalescing_is_off() {
    const BURST: usize = 16;
    for coalesce in [true, false] {
        let inj = FaultInjector::seeded(chaos_seed());
        let cluster = SwalaCluster::start(&ClusterConfig {
            nodes: 2,
            node: ServerOptions {
                // A request thread for every member of the burst.
                pool_size: BURST + 2,
                coalesce,
                ..chaos_node(&inj)
            },
            ..Default::default()
        })
        .unwrap();
        let target = "/cgi-bin/adl?id=84&ms=0";
        let warm_body = HttpClient::new(cluster.node(1).http_addr())
            .get(target)
            .unwrap()
            .body
            .into_vec();
        assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));

        // Every 0 -> 1 dial waits, so the whole burst lands inside the
        // first fetch.
        inj.add_rule(FaultRule::between(
            NodeId(0),
            NodeId(1),
            FaultAction::Delay(Duration::from_millis(100)),
        ));
        for (ok, body, tag) in burst(cluster.node(0).http_addr(), target, BURST) {
            assert!(ok, "request failed (tag {tag})");
            assert_eq!(body, warm_body, "wrong body (tag {tag})");
            assert_eq!(tag, "remote-hit");
        }
        let pool = cluster.node(0).fetch_pool().stats();
        assert_eq!(
            pool.connects_opened + pool.reuses,
            if coalesce { 1 } else { BURST as u64 },
            "owner fetches with coalesce {coalesce}: {pool:?}"
        );
        cluster.shutdown();
    }
}

/// One false hit is one false hit and one repair, whatever the burst
/// size. The owner drops an entry without its delete notice reaching node
/// 0; eight same-instant remote hits then share the leader's `Gone`
/// reply and its one execution, and both accounting identities hold.
#[test]
fn false_hit_burst_counts_one_false_hit_and_sends_one_repair() {
    const BURST: usize = 8;
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=84&ms=100";
    let warm_body = HttpClient::new(cluster.node(1).http_addr())
        .get(target)
        .unwrap()
        .body
        .into_vec();
    assert!(cluster.wait_for_directory_convergence(1, Duration::from_secs(10)));
    settle(&cluster);

    // Silent drop at the owner; node 0 still lists the entry.
    let key = swala_cache::CacheKey::new(target);
    cluster.node(1).manager().remove_local(&key).unwrap();
    let notices_to_1 = || {
        ["sent", "dropped", "queued"]
            .map(|f| format!("swala_broadcast_link_{f}"))
            .iter()
            .map(|name| series(cluster.node(0), name, Some("1")))
            .sum::<u64>()
    };
    let (notices_before, inserts_before) = (notices_to_1(), cluster.node(0).cache_stats().inserts);
    inj.add_rule(FaultRule::between(
        NodeId(0),
        NodeId(1),
        FaultAction::Delay(Duration::from_millis(100)),
    ));
    for (ok, body, tag) in burst(cluster.node(0).http_addr(), target, BURST) {
        assert!(ok, "request failed (tag {tag})");
        assert_eq!(body, warm_body, "wrong body (tag {tag})");
    }
    settle(&cluster);

    let s = cluster.node(0).cache_stats();
    let executions = series(cluster.node(0), "swala_http_executions", None);
    assert_eq!(s.false_hits, 1, "{s}");
    assert_eq!(executions, 1, "{s}");
    let inserts = s.inserts - inserts_before;
    assert_eq!(inserts, 1, "{s}");
    // Node 0's notices to node 1 since the drop: its one insert, and the
    // repair deletes.
    assert_eq!(notices_to_1() - notices_before - inserts, 1, "one repair");
    assert_eq!(s.lookups, s.local_hits + s.remote_hits + s.misses, "{s}");
    assert_eq!(
        executions + s.coalesce_waits - s.coalesce_fallbacks,
        s.misses + s.false_hits,
        "{s}"
    );
    cluster.shutdown();
}

/// Pool-mediated fetch failures still drive quarantine: when every new
/// connection resets mid-session, the failure streak quarantines the
/// peer, its directory entries are evicted and its parked connections
/// are purged — with zero client-visible errors throughout.
#[test]
fn resetting_connections_through_pool_still_quarantine_the_peer() {
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();
    // A failure streak's worth of keys, and one to ask after it.
    let streak = QUARANTINE_AFTER as usize;
    let targets: Vec<String> = (0..=streak)
        .map(|i| format!("/cgi-bin/adl?id=5{i}&ms=0"))
        .collect();
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let bodies: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| c1.get(t).unwrap().body.into_vec())
        .collect();
    assert!(cluster.wait_for_directory_convergence(targets.len(), Duration::from_secs(10)));
    settle(&cluster);

    // Node 0 never built a warm connection, and from now on every new
    // one RSTs as soon as it is read.
    inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Reset));
    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut tags = Vec::new();
    for (t, body) in targets.iter().zip(&bodies) {
        let r = c0.get(t).unwrap();
        assert!(r.status.is_success(), "request failed: {t}");
        assert_eq!(&r.body, body, "fallback body wrong for {t}");
        tags.push(cache_tag(&r));
    }
    assert_eq!(
        tags[..streak],
        ["remote-unreachable-fallback"; QUARANTINE_AFTER as usize]
    );
    assert_eq!(tags[streak..], ["miss"]);
    let (state, _, quarantines) = health(cluster.node(0), "1");
    assert_eq!(state, PeerState::Quarantined);
    assert_eq!(quarantines, 1);
    let pool = cluster.node(0).fetch_pool().stats();
    assert_eq!(pool.idle, 0, "no poisoned connection may stay parked");
    assert_eq!(series(cluster.node(0), "swala_http_server_errors", None), 0);
    cluster.shutdown();
}

/// Accept-path chaos: node 1's cache daemon resets freshly-accepted
/// connections partway through a request burst against node 0. The §4.2
/// promise must hold unchanged — every client request succeeds with the
/// correct body, the resets cost only local re-executions, and
/// cooperation resumes the moment the fault window closes.
#[test]
fn request_burst_survives_accept_resets() {
    use swala_proto::faults::ACCEPT_SRC;
    let inj = FaultInjector::seeded(chaos_seed());
    let cluster = SwalaCluster::start(&ClusterConfig {
        nodes: 2,
        node: chaos_node(&inj),
        ..Default::default()
    })
    .unwrap();

    // Warm six entries onto node 1 and record the correct bodies.
    let targets: Vec<String> = (0..6)
        .map(|i| format!("/cgi-bin/adl?id=81{i}&ms=0"))
        .collect();
    let mut c1 = HttpClient::new(cluster.node(1).http_addr());
    let bodies: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| c1.get(t).unwrap().body.into_vec())
        .collect();
    assert!(cluster.wait_for_directory_convergence(6, Duration::from_secs(10)));
    settle(&cluster);

    // The next eight connections accepted by node 1's daemon die with an
    // RST on first use. Node 0's fetch pool is still cold, so the burst
    // below opens fresh connections straight into the fault window; the
    // window also swallows whatever broadcast-link reconnects land on
    // the daemon meanwhile, so the exact request where cooperation
    // resumes varies — the invariants below do not.
    const RESETS: u64 = 8;
    let n = inj.attempt_count(ACCEPT_SRC, NodeId(1));
    inj.add_rule(
        FaultRule::between(ACCEPT_SRC, NodeId(1), FaultAction::Reset).window(n, n + RESETS),
    );

    let mut c0 = HttpClient::new(cluster.node(0).http_addr());
    let mut tags = Vec::new();
    for (t, body) in targets.iter().zip(&bodies) {
        let r = c0.get(t).unwrap();
        assert!(r.status.is_success(), "request failed mid-burst: {t}");
        assert_eq!(&r.body, body, "wrong body for {t}");
        tags.push(cache_tag(&r));
    }
    // The resets actually bit: the cold pool's first request cannot have
    // dodged the window.
    assert_eq!(
        tags[0], "remote-unreachable-fallback",
        "first fetch of the burst must hit a reset: {tags:?}"
    );
    // A failing request burns `FETCH_ATTEMPTS` reset accepts, so the
    // window fails at most this many requests — too few to quarantine
    // the peer — and the rest of the burst rides the connection the
    // first clean fetch parked.
    let max_failing = (RESETS / u64::from(FETCH_ATTEMPTS)) as usize;
    assert!(max_failing < QUARANTINE_AFTER as usize);
    assert!(
        tags[max_failing..].iter().all(|t| t == "remote-hit"),
        "cooperation must resume once the fault window closes: {tags:?}"
    );
    assert!(
        tags.iter()
            .all(|t| t == "remote-hit" || t == "remote-unreachable-fallback"),
        "only clean outcomes allowed mid-chaos: {tags:?}"
    );
    assert_eq!(series(cluster.node(0), "swala_http_server_errors", None), 0);
    cluster.shutdown();
}
