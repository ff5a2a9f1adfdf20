//! Source-file monitoring for automatic invalidation.
//!
//! §4.2: "we plan to investigate other cache entry invalidation methods
//! in future versions of Swala, for example … by monitoring the input of
//! the CGI programs whose output is being cached, to detect invalidation
//! \[16\]" — Vahdat & Anderson's *Transparent Result Caching*. This module
//! implements that: the administrator binds a cache-key prefix to the
//! source files the corresponding CGI reads; a daemon polls the sources'
//! mtimes, and on any change removes every matching local entry and
//! announces the deletions to the keys' homes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};
use swala_cache::CacheManager;
use swala_proto::{announce_delete, Broadcaster};

/// One monitoring rule: entries whose key starts with `key_prefix`
/// depend on the file at `source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorRule {
    pub key_prefix: String,
    pub source: PathBuf,
}

/// A running source monitor.
pub struct SourceMonitor {
    stop: Arc<AtomicBool>,
    invalidations: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl SourceMonitor {
    /// Start polling `rules` every `interval`.
    pub fn start(
        manager: Arc<CacheManager>,
        broadcaster: Arc<Broadcaster>,
        rules: Vec<MonitorRule>,
        interval: Duration,
    ) -> SourceMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let invalidations = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let invalidations = Arc::clone(&invalidations);
            std::thread::Builder::new()
                .name("swala-source-monitor".into())
                .spawn(move || {
                    run(
                        &manager,
                        &broadcaster,
                        &rules,
                        interval,
                        &stop,
                        &invalidations,
                    )
                })
                .expect("spawn source monitor")
        };
        SourceMonitor {
            stop,
            invalidations,
            handle: Some(handle),
        }
    }

    /// Entries invalidated because a source changed.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Stop the monitor thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SourceMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn mtime_of(path: &PathBuf) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

fn run(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    rules: &[MonitorRule],
    interval: Duration,
    stop: &AtomicBool,
    invalidations: &AtomicU64,
) {
    // Baseline mtimes; a source that appears later counts as a change.
    let mut seen: HashMap<&PathBuf, Option<SystemTime>> = rules
        .iter()
        .map(|r| (&r.source, mtime_of(&r.source)))
        .collect();
    let tick = Duration::from_millis(20).min(interval);
    let mut elapsed = Duration::ZERO;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        for rule in rules {
            let now = mtime_of(&rule.source);
            let before = seen.get_mut(&rule.source).expect("rule key present");
            if now == *before {
                continue;
            }
            *before = now;
            // Source changed: invalidate every matching local entry.
            let victims: Vec<_> = manager
                .local_snapshot()
                .into_iter()
                .filter(|m| m.key.as_str().starts_with(&rule.key_prefix))
                .collect();
            for victim in victims {
                if let Some(dead) = manager.remove_local(&victim.key) {
                    announce_delete(manager, broadcaster, dead.owner, &dead.key);
                    invalidations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;
    use swala_cache::{
        CacheKey, CacheManagerConfig, CacheRules, DirectoryKind, LookupResult, MemStore, NodeId,
    };
    use swala_proto::{read_frame, Message};

    fn insert(manager: &CacheManager, key: &str) {
        let k = CacheKey::new(key);
        match manager.lookup(&k, k.as_str()) {
            LookupResult::Miss { decision, .. } => {
                manager
                    .complete_execution(&k, b"body", "t", Duration::from_millis(10), &decision)
                    .unwrap();
            }
            other => panic!("{other:?}"),
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout: {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn source_change_invalidates_matching_entries() {
        let dir = std::env::temp_dir().join(format!("swala-mon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("gazetteer.db");
        std::fs::write(&source, "v1").unwrap();

        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::allow_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        insert(&manager, "/cgi-bin/gazetteer?q=a");
        insert(&manager, "/cgi-bin/gazetteer?q=b");
        insert(&manager, "/cgi-bin/other?q=c");

        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![MonitorRule {
                key_prefix: "/cgi-bin/gazetteer".to_string(),
                source: source.clone(),
            }],
            Duration::from_millis(40),
        );

        // Touch the source with a definitely-different mtime.
        std::thread::sleep(Duration::from_millis(50));
        std::fs::write(&source, "v2 — database updated").unwrap();

        wait_until("gazetteer entries invalidated", || {
            manager.directory().len(swala_cache::NodeId(0)) == 1
        });
        assert_eq!(monitor.invalidations(), 2);
        // The unrelated entry survives.
        assert!(manager
            .directory()
            .get(swala_cache::NodeId(0), &CacheKey::new("/cgi-bin/other?q=c"))
            .is_some());
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn vanished_source_counts_as_change() {
        let dir = std::env::temp_dir().join(format!("swala-mon-rm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("t.db");
        std::fs::write(&source, "x").unwrap();

        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::allow_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        insert(&manager, "/cgi-bin/t?1");
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![MonitorRule {
                key_prefix: "/cgi-bin/t".into(),
                source: source.clone(),
            }],
            Duration::from_millis(40),
        );
        std::thread::sleep(Duration::from_millis(50));
        std::fs::remove_file(&source).unwrap();
        wait_until("entry invalidated after source vanished", || {
            manager.directory().len(swala_cache::NodeId(0)) == 0
        });
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn no_change_no_invalidation() {
        let dir = std::env::temp_dir().join(format!("swala-mon-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("stable.db");
        std::fs::write(&source, "x").unwrap();
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                rules: CacheRules::allow_all(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        insert(&manager, "/cgi-bin/stable?1");
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![MonitorRule {
                key_prefix: "/cgi-bin/stable".into(),
                source,
            }],
            Duration::from_millis(30),
        );
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(monitor.invalidations(), 0);
        assert_eq!(manager.directory().len(swala_cache::NodeId(0)), 1);
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn partitioned_invalidation_notifies_the_key_home_only() {
        // Two-node partitioned directory with a collecting peer as node 1:
        // invalidating a key homed here puts nothing on the wire (this
        // node's own table was the only record), one homed at the peer
        // exactly one delete notice.
        let dir = std::env::temp_dir().join(format!("swala-mon-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (self_src, peer_src) = (dir.join("self.db"), dir.join("peer.db"));
        std::fs::write(&self_src, "v1").unwrap();
        std::fs::write(&peer_src, "v1").unwrap();

        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                local: NodeId(0),
                rules: CacheRules::allow_all(),
                directory: DirectoryKind::Partitioned,
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        // Keys end in '/', so neither is a prefix of the other.
        let homed_at = |home: NodeId| {
            (0..10_000)
                .map(|i| format!("/cgi-bin/mon/{i}/"))
                .find(|k| manager.placement().homes(&CacheKey::new(k)) == [home])
                .expect("some key is homed there")
        };
        let (self_key, peer_key) = (homed_at(NodeId(0)), homed_at(NodeId(1)));
        insert(&manager, &self_key);
        insert(&manager, &peer_key);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap();
        let collector = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut msgs = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut s) {
                match Message::decode(&f).unwrap() {
                    Message::Batch(inner) => msgs.extend(inner),
                    m => msgs.push(m),
                }
            }
            msgs
        });
        let broadcaster = Arc::new(Broadcaster::new(NodeId(0), [(NodeId(1), peer_addr)]));
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::clone(&broadcaster),
            vec![
                MonitorRule {
                    key_prefix: self_key.clone(),
                    source: self_src.clone(),
                },
                MonitorRule {
                    key_prefix: peer_key.clone(),
                    source: peer_src.clone(),
                },
            ],
            Duration::from_millis(40),
        );
        let on_the_wire = || {
            assert!(broadcaster.flush(Duration::from_secs(5)));
            let link = &broadcaster.link_stats()[0];
            link.sent + link.queued as u64 + link.dropped
        };

        std::thread::sleep(Duration::from_millis(50));
        std::fs::write(&self_src, "v2").unwrap();
        wait_until("self-homed entry invalidated", || {
            monitor.invalidations() == 1
        });
        assert_eq!(on_the_wire(), 0, "a self-homed delete stays home");

        std::fs::write(&peer_src, "v2").unwrap();
        wait_until("peer-homed entry invalidated", || {
            monitor.invalidations() == 2
        });
        assert_eq!(on_the_wire(), 1, "one delete notice, to the home");

        monitor.shutdown();
        broadcaster.shutdown();
        assert_eq!(
            collector.join().unwrap(),
            vec![
                Message::Hello { node: NodeId(0) },
                Message::DeleteNotice {
                    owner: NodeId(0),
                    key: CacheKey::new(peer_key),
                },
            ]
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
