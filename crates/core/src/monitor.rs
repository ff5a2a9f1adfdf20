//! Source-file monitoring for automatic invalidation.
//!
//! §4.2: "we plan to investigate other cache entry invalidation methods
//! in future versions of Swala, for example … by monitoring the input of
//! the CGI programs whose output is being cached, to detect invalidation
//! \[16\]" — Vahdat & Anderson's *Transparent Result Caching*. This module
//! implements that: the administrator binds a cache-key prefix to the
//! source files the corresponding CGI reads; a daemon polls the sources'
//! mtimes every [`MONITOR_INTERVAL`] on the manager's clock, and on any
//! change removes every matching local entry and announces the
//! deletions to the keys' homes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};
use swala_cache::{CacheManager, StopSignal};
use swala_proto::{announce_delete, Broadcaster};

/// How long the monitor sleeps between polls of its sources, on the
/// manager's clock.
///
/// A constant, not a knob: a poll is one `stat` per source, and a source
/// change reaches the cache within two seconds, the same bound the purge
/// daemon keeps for expiry (`swala_proto::PURGE_INTERVAL`). Tests
/// advance the clock instead.
pub const MONITOR_INTERVAL: Duration = Duration::from_secs(2);

/// One monitoring rule: entries whose key starts with `key_prefix`
/// depend on the file at `source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorRule {
    pub key_prefix: String,
    pub source: PathBuf,
}

/// A running source monitor.
pub struct SourceMonitor {
    stop: Arc<StopSignal>,
    invalidations: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl SourceMonitor {
    /// Start polling `rules` every [`MONITOR_INTERVAL`].
    pub fn start(
        manager: Arc<CacheManager>,
        broadcaster: Arc<Broadcaster>,
        rules: Vec<MonitorRule>,
    ) -> SourceMonitor {
        let stop = StopSignal::new(manager.clock().clone());
        let invalidations = Arc::new(AtomicU64::new(0));
        // Each rule with its source's mtime, taken before `start`
        // returns; a source that appears later counts as a change.
        let watched: Vec<(MonitorRule, Option<SystemTime>)> = rules
            .into_iter()
            .map(|rule| {
                let seen = mtime_of(&rule.source);
                (rule, seen)
            })
            .collect();
        let first = manager.clock().now() + MONITOR_INTERVAL;
        let handle = {
            let stop = Arc::clone(&stop);
            let invalidations = Arc::clone(&invalidations);
            std::thread::Builder::new()
                .name("swala-source-monitor".into())
                .spawn(move || {
                    run(
                        &manager,
                        &broadcaster,
                        watched,
                        first,
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

    /// Register [`invalidations`](Self::invalidations) on `reg` as
    /// `swala_monitor_invalidations`.
    pub(crate) fn register_into(&self, reg: &swala_obs::MetricsRegistry) {
        let n = Arc::clone(&self.invalidations);
        reg.register_counter(
            "swala_monitor_invalidations",
            "Entries invalidated because a monitored source changed",
            move || n.load(Ordering::Relaxed),
        );
    }

    /// Stop the monitor thread (what dropping the monitor does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SourceMonitor {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn mtime_of(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

fn run(
    manager: &CacheManager,
    broadcaster: &Broadcaster,
    mut watched: Vec<(MonitorRule, Option<SystemTime>)>,
    first: Instant,
    stop: &StopSignal,
    invalidations: &AtomicU64,
) {
    let mut due = first;
    while stop.sleep_until(due) {
        due += MONITOR_INTERVAL;
        for (rule, seen) in &mut watched {
            let now = mtime_of(&rule.source);
            if now == *seen {
                continue;
            }
            *seen = now;
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
    use swala_cache::{
        CacheKey, CacheManagerConfig, CacheRules, DirectoryKind, LookupResult, ManualClock,
        MemStore, NodeId,
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

    /// A manager on a clock the test moves, under `directory`.
    fn manager(directory: DirectoryKind) -> (Arc<CacheManager>, Arc<ManualClock>) {
        let time = ManualClock::new();
        let manager = Arc::new(CacheManager::new(
            CacheManagerConfig {
                num_nodes: 2,
                rules: CacheRules::allow_all(),
                directory,
                clock: time.clock(),
                ..Default::default()
            },
            Box::new(MemStore::new()),
        ));
        (manager, time)
    }

    /// Rewrite `source` with an mtime no earlier write could share: the
    /// kernel stamps files from a coarse clock, so two writes in a row
    /// may otherwise look like none.
    fn rewrite(source: &Path, contents: &str, stamp: u64) {
        std::fs::write(source, contents).unwrap();
        std::fs::File::options()
            .write(true)
            .open(source)
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(stamp))
            .unwrap();
    }

    fn rule(prefix: &str, source: &Path) -> MonitorRule {
        MonitorRule {
            key_prefix: prefix.to_string(),
            source: source.to_path_buf(),
        }
    }

    #[test]
    fn source_change_invalidates_matching_entries() {
        let dir = std::env::temp_dir().join(format!("swala-mon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("gazetteer.db");
        rewrite(&source, "v1", 1);

        let (manager, time) = manager(DirectoryKind::Replicated);
        insert(&manager, "/cgi-bin/gazetteer?q=a");
        insert(&manager, "/cgi-bin/gazetteer?q=b");
        insert(&manager, "/cgi-bin/other?q=c");

        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![rule("/cgi-bin/gazetteer", &source)],
        );
        rewrite(&source, "v2 — database updated", 2);
        time.advance(MONITOR_INTERVAL);

        wait_until("gazetteer entries invalidated", || {
            manager.directory().len(NodeId(0)) == 1
        });
        assert_eq!(monitor.invalidations(), 2);
        // The unrelated entry survives.
        assert!(manager
            .directory()
            .get(NodeId(0), &CacheKey::new("/cgi-bin/other?q=c"))
            .is_some());
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn vanished_source_counts_as_change() {
        let dir = std::env::temp_dir().join(format!("swala-mon-rm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("t.db");
        rewrite(&source, "x", 1);

        let (manager, time) = manager(DirectoryKind::Replicated);
        insert(&manager, "/cgi-bin/t?1");
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![rule("/cgi-bin/t", &source)],
        );
        std::fs::remove_file(&source).unwrap();
        time.advance(MONITOR_INTERVAL);
        wait_until("entry invalidated after source vanished", || {
            manager.directory().len(NodeId(0)) == 0
        });
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn no_change_no_invalidation() {
        let dir = std::env::temp_dir().join(format!("swala-mon-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (stable, moving) = (dir.join("stable.db"), dir.join("moving.db"));
        rewrite(&stable, "x", 1);
        rewrite(&moving, "x", 1);
        let (manager, time) = manager(DirectoryKind::Replicated);
        insert(&manager, "/cgi-bin/stable?1");
        insert(&manager, "/cgi-bin/moving?1");
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![
                rule("/cgi-bin/stable", &stable),
                rule("/cgi-bin/moving", &moving),
            ],
        );
        for _ in 0..3 {
            time.advance(MONITOR_INTERVAL);
        }
        // The monitor is polling: a change to the other source is seen,
        // and the stable source's entry outlives every poll.
        rewrite(&moving, "y", 2);
        time.advance(MONITOR_INTERVAL);
        wait_until("moving entry invalidated", || monitor.invalidations() == 1);
        assert_eq!(manager.directory().len(NodeId(0)), 1);
        assert!(manager
            .directory()
            .get(NodeId(0), &CacheKey::new("/cgi-bin/stable?1"))
            .is_some());
        monitor.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rules_sharing_a_source_each_invalidate() {
        let dir = std::env::temp_dir().join(format!("swala-mon-shared-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("shared.db");
        rewrite(&source, "v1", 1);
        let (manager, time) = manager(DirectoryKind::Replicated);
        insert(&manager, "/cgi-bin/a?1");
        insert(&manager, "/cgi-bin/b?1");
        let monitor = SourceMonitor::start(
            Arc::clone(&manager),
            Arc::new(Broadcaster::solo()),
            vec![rule("/cgi-bin/a", &source), rule("/cgi-bin/b", &source)],
        );
        rewrite(&source, "v2", 2);
        time.advance(MONITOR_INTERVAL);
        wait_until("both prefixes invalidated", || monitor.invalidations() == 2);
        assert_eq!(manager.directory().len(NodeId(0)), 0);
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
        rewrite(&self_src, "v1", 1);
        rewrite(&peer_src, "v1", 1);

        let (manager, time) = manager(DirectoryKind::Partitioned);
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
            vec![rule(&self_key, &self_src), rule(&peer_key, &peer_src)],
        );
        let reg = swala_obs::MetricsRegistry::new();
        broadcaster.register_into(&reg);
        let on_the_wire = || {
            assert!(broadcaster.flush(Duration::from_secs(5)));
            let metrics = reg.snapshot();
            ["sent", "queued", "dropped"]
                .map(|f| format!("swala_broadcast_link_{f}"))
                .iter()
                .filter_map(|name| swala_obs::lookup(&metrics, name, Some("1")))
                .sum::<u64>()
        };

        rewrite(&self_src, "v2", 2);
        time.advance(MONITOR_INTERVAL);
        wait_until("self-homed entry invalidated", || {
            monitor.invalidations() == 1
        });
        assert_eq!(on_the_wire(), 0, "a self-homed delete stays home");

        rewrite(&peer_src, "v2", 2);
        time.advance(MONITOR_INTERVAL);
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
