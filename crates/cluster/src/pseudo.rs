//! The §5.2 pseudo-server.
//!
//! "In preparation of the second overhead experiment, we have created a
//! program which only sends cache directory updates to a Swala node. This
//! enables us to simulate a complete eight-node Swala execution with
//! minimal network disturbance: we start Swala on only one node, telling
//! it that other nodes are running …; we start the pseudo-server program
//! to act as the other seven nodes."
//!
//! [`PseudoServer`] opens one notice link per impersonated node and emits
//! insert notices at a controlled aggregate rate (updates per second).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_proto::{Message, PeerLink};

/// A running pseudo-server flooding one Swala node with updates.
pub struct PseudoServer {
    stop: Arc<AtomicBool>,
    sent: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl PseudoServer {
    /// Impersonate nodes `1..=fake_nodes` toward the Swala node listening
    /// at `target`, sending `updates_per_second` insert notices in
    /// aggregate (round-robin across the impersonated nodes).
    ///
    /// `updates_per_second == 0` creates an idle pseudo-server (the
    /// Table 4 base case).
    pub fn start(target: SocketAddr, fake_nodes: u16, updates_per_second: u64) -> PseudoServer {
        assert!(fake_nodes >= 1);
        let stop = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let sent = Arc::clone(&sent);
            std::thread::Builder::new()
                .name("swala-pseudo-server".into())
                .spawn(move || run(target, fake_nodes, updates_per_second, &stop, &sent))
                .expect("spawn pseudo-server")
        };
        PseudoServer {
            stop,
            sent,
            handle: Some(handle),
        }
    }

    /// Insert notices sent so far.
    pub fn updates_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Stop the flood and join the thread.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.sent.load(Ordering::Relaxed)
    }
}

impl Drop for PseudoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(target: SocketAddr, fake_nodes: u16, ups: u64, stop: &AtomicBool, sent: &AtomicU64) {
    // One persistent link per impersonated node, as real peers would have.
    let links: Vec<PeerLink> = (1..=fake_nodes)
        .map(|n| PeerLink::new(NodeId(n), NodeId(0), target))
        .collect();
    if ups == 0 {
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
        return;
    }
    let interval = Duration::from_secs_f64(1.0 / ups as f64);
    let started = Instant::now();
    let mut counter: u64 = 0;
    while !stop.load(Ordering::Acquire) {
        // Pace by absolute schedule so bursts of scheduling delay do not
        // lower the long-run rate.
        let due = started + interval.mul_f64(counter as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
            continue;
        }
        let node = NodeId(1 + (counter % fake_nodes as u64) as u16);
        let meta = EntryMeta::new(
            CacheKey::new(format!("/cgi-bin/pseudo?node={}&n={counter}", node.0)),
            node,
            256,
            "text/html",
            1_000_000,
            None,
            counter,
        );
        if links[(node.0 - 1) as usize]
            .send(&Message::InsertNotice { meta })
            .is_ok()
        {
            sent.fetch_add(1, Ordering::Relaxed);
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::standard_registry;
    use swala::{ServerOptions, SwalaServer};
    use swala_cache::DirectoryKind;
    use swala_cgi::WorkKind;

    fn one_node_expecting(n: usize, directory: DirectoryKind) -> SwalaServer {
        SwalaServer::start_single(
            ServerOptions {
                num_nodes: n,
                pool_size: 2,
                directory,
                ..Default::default()
            },
            standard_registry(WorkKind::Sleep),
        )
        .unwrap()
    }

    #[test]
    fn floods_directory_updates_at_roughly_the_requested_rate() {
        for directory in DirectoryKind::ALL {
            let server = one_node_expecting(8, directory);
            let pseudo = PseudoServer::start(server.cache_addr(), 7, 200);
            std::thread::sleep(Duration::from_millis(600));
            let sent = pseudo.stop();
            // ~120 expected in 0.6s at 200/s; allow generous scheduling slop.
            assert!((60..=200).contains(&(sent as usize)), "sent {sent}");

            // The node applied them across the seven impersonated tables.
            let applied = server.cache_stats().updates_applied;
            assert!(
                applied >= sent / 2,
                "{directory:?}: applied {applied} of {sent}"
            );
            let dir = server.manager().directory();
            let total: usize = (1..8).map(|n| dir.len(swala_cache::NodeId(n))).sum();
            assert!(total > 0, "{directory:?}");
            assert_eq!(dir.len(swala_cache::NodeId(0)), 0, "local table untouched");
            server.shutdown();
        }
    }

    #[test]
    fn zero_ups_is_idle() {
        for directory in DirectoryKind::ALL {
            let server = one_node_expecting(2, directory);
            let pseudo = PseudoServer::start(server.cache_addr(), 1, 0);
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(pseudo.stop(), 0);
            assert_eq!(server.cache_stats().updates_applied, 0, "{directory:?}");
            server.shutdown();
        }
    }

    #[test]
    fn updates_round_robin_across_fake_nodes() {
        for directory in DirectoryKind::ALL {
            let server = one_node_expecting(4, directory);
            let pseudo = PseudoServer::start(server.cache_addr(), 3, 300);
            std::thread::sleep(Duration::from_millis(500));
            pseudo.stop();
            let dir = server.manager().directory();
            for n in 1..4u16 {
                assert!(
                    dir.len(swala_cache::NodeId(n)) > 0,
                    "{directory:?}: node {n} table empty"
                );
            }
            server.shutdown();
        }
    }
}
