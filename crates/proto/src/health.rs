//! Per-peer health tracking with consecutive-failure quarantine.
//!
//! The §4.2 protocol tolerates a dead peer — every fetch failure falls
//! back to local CGI execution — but tolerating is not the same as
//! adapting: as long as the directory still advertises a corpse, every
//! request routed at it pays a full connect-timeout before falling back.
//! The tracker turns repeated transport failures into an explicit state:
//!
//! ```text
//! Healthy ──failure──▶ Suspect ──(more failures)──▶ Quarantined
//!    ▲                    │                              │
//!    │                 success                     probe interval
//!    │                    ▼                              ▼
//!    └────success──── Probing ◀──────(one trial fetch)───┘
//! ```
//!
//! While `Quarantined`, [`should_attempt`](HealthTracker::should_attempt)
//! answers `false` and the handler skips the peer without touching the
//! network. Once per [`PROBE_INTERVAL`] it answers `true` exactly once
//! (state moves to `Probing`): that live fetch *is* the probe — success
//! restores `Healthy`, failure re-quarantines. Recovery therefore rides
//! on real traffic; no dedicated pinger thread is needed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use swala_cache::{Clock, NodeId};
use swala_obs::MetricsRegistry;

/// Health state of one peer, as seen from this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// No recent failures; fetches proceed normally.
    Healthy = 0,
    /// Some consecutive failures, below the quarantine threshold.
    Suspect = 1,
    /// Declared dead: skip fetches until the next probe window.
    Quarantined = 2,
    /// One trial fetch is in flight; its result decides the next state.
    Probing = 3,
}

/// Consecutive failures before a peer turns `Suspect`.
///
/// A constant, not a knob: `Suspect` only reports a failure streak on
/// `/swala-status` — fetches still go to the peer — so the first failure
/// is the one worth showing. [`QUARANTINE_AFTER`] is the threshold that
/// changes behaviour.
pub const SUSPECT_AFTER: u32 = 1;

/// Consecutive failures before a peer is `Quarantined`.
///
/// A constant, not a knob: a request is one failure however many
/// attempts it made, so three in a row that exhausted their retries is a
/// peer that is down, and a wrong quarantine costs only the hits it could
/// have served until the next probe.
pub const QUARANTINE_AFTER: u32 = 3;

/// How long a quarantined peer rests before one live fetch may probe it.
///
/// A constant, not a knob: a quarantined peer costs a node nothing but
/// the cooperative hits it could have served, and one probe per 5 s is
/// one connect attempt at a dead peer, not a stream of them. Tests
/// advance the clock instead.
pub const PROBE_INTERVAL: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
struct PeerHealth {
    state: PeerState,
    consecutive_failures: u32,
    quarantined_at: Option<Instant>,
    total_failures: u64,
    total_quarantines: u64,
}

impl PeerHealth {
    fn new() -> Self {
        PeerHealth {
            state: PeerState::Healthy,
            consecutive_failures: 0,
            quarantined_at: None,
            total_failures: 0,
            total_quarantines: 0,
        }
    }
}

/// Tracks the health of every peer this node fetches from.
#[derive(Debug)]
pub struct HealthTracker {
    /// What the probe window runs on.
    clock: Clock,
    peers: Mutex<HashMap<u16, PeerHealth>>,
}

impl HealthTracker {
    pub fn new(clock: Clock) -> Self {
        HealthTracker {
            clock,
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// May this node fetch from `peer` right now? `Quarantined` peers
    /// answer `false` except once per probe interval, when the state
    /// advances to `Probing` and the caller's fetch doubles as the probe.
    pub fn should_attempt(&self, peer: NodeId) -> bool {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        let h = peers.entry(peer.0).or_insert_with(PeerHealth::new);
        match h.state {
            PeerState::Healthy | PeerState::Suspect | PeerState::Probing => true,
            PeerState::Quarantined => {
                let due = h
                    .quarantined_at
                    .map(|t| self.clock.now().saturating_duration_since(t) >= PROBE_INTERVAL)
                    .unwrap_or(true);
                if due {
                    h.state = PeerState::Probing;
                }
                due
            }
        }
    }

    /// Record a successful exchange with `peer` (a `Hit` *or* a `Gone`
    /// reply — both prove the peer is alive and answering).
    pub fn record_success(&self, peer: NodeId) {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        let h = peers.entry(peer.0).or_insert_with(PeerHealth::new);
        h.state = PeerState::Healthy;
        h.consecutive_failures = 0;
        h.quarantined_at = None;
    }

    /// Record a transport failure against `peer`. Returns
    /// `Some(Quarantined)` exactly on the transition into quarantine, so
    /// the caller can run directory repair once (not on every subsequent
    /// skipped fetch).
    pub fn record_failure(&self, peer: NodeId) -> Option<PeerState> {
        let mut peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        let h = peers.entry(peer.0).or_insert_with(PeerHealth::new);
        h.consecutive_failures += 1;
        h.total_failures += 1;
        // A failed probe re-enters quarantine silently: directory repair
        // already ran when the outage was first declared.
        let was_quarantined = matches!(h.state, PeerState::Quarantined | PeerState::Probing);
        if h.consecutive_failures >= QUARANTINE_AFTER || h.state == PeerState::Probing {
            h.state = PeerState::Quarantined;
            h.quarantined_at = Some(self.clock.now());
            if !was_quarantined {
                h.total_quarantines += 1;
                return Some(PeerState::Quarantined);
            }
        } else if h.consecutive_failures >= SUSPECT_AFTER {
            h.state = PeerState::Suspect;
        }
        None
    }

    /// Current state of `peer` (peers never seen are `Healthy`).
    pub fn state(&self, peer: NodeId) -> PeerState {
        self.peers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&peer.0)
            .map(|h| h.state)
            .unwrap_or(PeerState::Healthy)
    }

    /// Register each of `peers`' health on `reg`, labelled `peer="N"`:
    /// `swala_peer_state` (0 healthy, 1 suspect, 2 quarantined, 3
    /// probing), the failure streak, and the failure and quarantine
    /// totals. A peer never seen reads healthy and 0.
    pub fn register_into(
        self: &Arc<Self>,
        reg: &MetricsRegistry,
        peers: impl IntoIterator<Item = NodeId>,
    ) {
        type Field = fn(&PeerHealth) -> u64;
        let counters: [(&str, &str, Field); 2] = [
            (
                "swala_peer_failures",
                "Transport failures against the peer",
                |h| h.total_failures,
            ),
            (
                "swala_peer_quarantines",
                "Times the peer was quarantined",
                |h| h.total_quarantines,
            ),
        ];
        let gauges: [(&str, &str, Field); 2] = [
            (
                "swala_peer_state",
                "Peer health: 0 healthy, 1 suspect, 2 quarantined, 3 probing",
                |h| h.state as u64,
            ),
            (
                "swala_peer_failure_streak",
                "Consecutive transport failures against the peer",
                |h| h.consecutive_failures as u64,
            ),
        ];
        for peer in peers {
            let label = peer.0.to_string();
            for (name, help, read) in counters {
                let t = Arc::clone(self);
                reg.register_counter_labeled(name, help, "peer", &label, move || {
                    t.read(peer, read)
                });
            }
            for (name, help, read) in gauges {
                let t = Arc::clone(self);
                reg.register_gauge_fn_labeled(name, help, "peer", &label, move || {
                    t.read(peer, read) as i64
                });
            }
        }
    }

    fn read(&self, peer: NodeId, field: fn(&PeerHealth) -> u64) -> u64 {
        let peers = self.peers.lock().unwrap_or_else(|e| e.into_inner());
        peers.get(&peer.0).map_or(0, field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use swala_cache::ManualClock;

    /// A tracker whose probe window runs on a clock the test moves.
    fn tracker() -> (HealthTracker, std::sync::Arc<ManualClock>) {
        let time = ManualClock::new();
        (HealthTracker::new(time.clock()), time)
    }

    /// `n` consecutive failures against `p`.
    fn fail(t: &HealthTracker, p: NodeId, n: u32) {
        for _ in 0..n {
            t.record_failure(p);
        }
    }

    #[test]
    fn healthy_to_suspect_to_quarantined() {
        let (t, _) = tracker();
        let p = NodeId(1);
        assert_eq!(t.state(p), PeerState::Healthy);
        for _ in 1..QUARANTINE_AFTER {
            assert_eq!(t.record_failure(p), None);
            assert_eq!(t.state(p), PeerState::Suspect);
        }
        // The streak's last failure crosses the threshold — and the
        // transition is reported exactly once.
        assert_eq!(t.record_failure(p), Some(PeerState::Quarantined));
        assert_eq!(t.state(p), PeerState::Quarantined);
        assert_eq!(t.record_failure(p), None);
    }

    #[test]
    fn quarantine_blocks_attempts_until_probe_window() {
        let (t, time) = tracker();
        let p = NodeId(1);
        fail(&t, p, QUARANTINE_AFTER);
        assert!(!t.should_attempt(p));
        time.advance(PROBE_INTERVAL - Duration::from_millis(1));
        assert!(!t.should_attempt(p), "the window is not over");
        time.advance(Duration::from_millis(1));
        // Window elapsed: exactly one probe is let through.
        assert!(t.should_attempt(p));
        assert_eq!(t.state(p), PeerState::Probing);
        assert!(t.should_attempt(p)); // probing still allows the caller through
    }

    #[test]
    fn probe_success_restores_healthy() {
        let (t, time) = tracker();
        let p = NodeId(1);
        fail(&t, p, QUARANTINE_AFTER);
        time.advance(PROBE_INTERVAL);
        assert!(t.should_attempt(p));
        t.record_success(p);
        assert_eq!(t.state(p), PeerState::Healthy);
        assert!(t.should_attempt(p));
    }

    #[test]
    fn probe_failure_requarantines_immediately() {
        let (t, time) = tracker();
        let p = NodeId(1);
        fail(&t, p, QUARANTINE_AFTER);
        time.advance(PROBE_INTERVAL);
        assert!(t.should_attempt(p));
        assert_eq!(t.state(p), PeerState::Probing);
        // A probing peer re-quarantines on one failure, but the
        // transition is not re-reported (repair already ran), and the
        // next probe waits a whole window from the failed one.
        assert_eq!(t.record_failure(p), None);
        assert_eq!(t.state(p), PeerState::Quarantined);
        assert!(!t.should_attempt(p));
        time.advance(PROBE_INTERVAL - Duration::from_millis(1));
        assert!(!t.should_attempt(p));
        time.advance(Duration::from_millis(1));
        assert!(t.should_attempt(p));
    }

    #[test]
    fn success_resets_failure_streak() {
        let (t, _) = tracker();
        let p = NodeId(1);
        fail(&t, p, QUARANTINE_AFTER - 1);
        t.record_success(p);
        assert_eq!(t.state(p), PeerState::Healthy);
        // Streak restarted: as many failures again stay below the
        // threshold.
        fail(&t, p, QUARANTINE_AFTER - 1);
        assert_eq!(t.state(p), PeerState::Suspect);
    }

    #[test]
    fn registered_series_read_each_peer() {
        let (t, _) = tracker();
        let t = Arc::new(t);
        let reg = MetricsRegistry::new();
        t.register_into(&reg, [1, 2, 3, 4].map(NodeId));
        t.record_failure(NodeId(3));
        fail(&t, NodeId(1), QUARANTINE_AFTER);
        t.record_success(NodeId(2));
        let snap = reg.snapshot();
        let value = |name, peer| swala_obs::lookup(&snap, name, Some(peer)).unwrap();
        assert_eq!(value("swala_peer_state", "1"), 2);
        assert_eq!(value("swala_peer_quarantines", "1"), 1);
        assert_eq!(value("swala_peer_failures", "1"), QUARANTINE_AFTER as u64);
        assert_eq!(value("swala_peer_state", "2"), 0);
        assert_eq!(value("swala_peer_state", "3"), 1);
        assert_eq!(value("swala_peer_failure_streak", "3"), 1);
        assert_eq!(value("swala_peer_failures", "4"), 0, "never seen");
    }
}
