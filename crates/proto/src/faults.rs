//! swala-faults: deterministic fault injection for the cache protocol.
//!
//! The weak-consistency protocol (§4.2) is *designed* to survive lost
//! notices, dead peers and stale directories — but none of that is worth
//! anything unless the failure paths can be exercised on demand and
//! replayed bit-identically. This module provides an injectable transport
//! layer that sits behind the three network seams:
//!
//! * the broadcaster's [`Connector`] (outgoing notice links),
//! * the fetch/sync [`Dialer`] (request/reply sessions), and
//! * the cache daemon's accept path ([`AcceptFilter`]).
//!
//! A [`FaultInjector`] holds an ordered rule list. Each rule matches a
//! `(src, dst, nth-attempt)` triple — attempts are counted per directed
//! pair — and fires a [`FaultAction`]: drop, delay, black-hole, reset or
//! truncate. Probabilistic rules draw from a seeded RNG, and every
//! injected fault is appended to an event trace, so a chaos run with the
//! same seed and the same (sequential) request schedule produces the
//! same trace, byte for byte.

use crate::fetch::{Dialer, FaultStream, StreamFault};
use crate::peers::Connector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use swala_cache::NodeId;

/// Sentinel "source" for the daemon's accept path, where the dialing
/// node's identity is unknown until its Hello arrives.
pub const ACCEPT_SRC: NodeId = NodeId(u16::MAX);

/// What an injected fault does to a connection attempt or stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Connection refused instantly (peer process is gone).
    Drop,
    /// The operation proceeds after this extra latency (congestion).
    Delay(Duration),
    /// The connect hangs for its full timeout, then fails (packets
    /// silently discarded — a true network black hole).
    BlackHole,
    /// The connection establishes, then dies on first use (peer crashed
    /// after accept, or an RST in flight).
    Reset,
    /// The stream delivers only this many reply bytes, then EOF
    /// (peer crashed mid-write; frames arrive truncated).
    Truncate(usize),
}

impl FaultAction {
    fn name(&self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Delay(_) => "delay",
            FaultAction::BlackHole => "blackhole",
            FaultAction::Reset => "reset",
            FaultAction::Truncate(_) => "truncate",
        }
    }
}

/// One injection rule. Rules are consulted in order; the first match
/// fires. `src`/`dst` of `None` match any node; the attempt window is
/// half-open over the per-(src, dst) attempt counter.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Dialing node (`None` = any; accept-path checks use [`ACCEPT_SRC`]).
    pub src: Option<NodeId>,
    /// Target node (`None` = any).
    pub dst: Option<NodeId>,
    /// First attempt index (0-based, per directed pair) the rule covers.
    pub from_attempt: u64,
    /// One past the last covered attempt; `None` = forever.
    pub until_attempt: Option<u64>,
    /// Probability the rule fires when it matches (seeded RNG).
    pub probability: f64,
    /// What happens when it fires.
    pub action: FaultAction,
}

impl FaultRule {
    /// Rule matching every attempt between `src` and `dst`.
    pub fn between(src: NodeId, dst: NodeId, action: FaultAction) -> Self {
        FaultRule {
            src: Some(src),
            dst: Some(dst),
            from_attempt: 0,
            until_attempt: None,
            probability: 1.0,
            action,
        }
    }

    /// Rule matching every attempt toward `dst`, from any source
    /// (including the daemon accept path).
    pub fn toward(dst: NodeId, action: FaultAction) -> Self {
        FaultRule {
            src: None,
            dst: Some(dst),
            from_attempt: 0,
            until_attempt: None,
            probability: 1.0,
            action,
        }
    }

    /// Restrict to the first `n` attempts of the pair.
    pub fn first(mut self, n: u64) -> Self {
        self.from_attempt = 0;
        self.until_attempt = Some(n);
        self
    }

    /// Restrict to attempts `[from, until)` of the pair.
    pub fn window(mut self, from: u64, until: u64) -> Self {
        self.from_attempt = from;
        self.until_attempt = Some(until);
        self
    }

    /// Fire with probability `p` (deterministic given the injector seed
    /// and the sequence of decisions).
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p;
        self
    }

    fn matches(&self, src: NodeId, dst: NodeId, attempt: u64) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && attempt >= self.from_attempt
            && self.until_attempt.is_none_or(|u| attempt < u)
    }
}

/// One injected fault, for trace comparison across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub src: NodeId,
    pub dst: NodeId,
    /// Attempt index (per directed pair) the fault fired on.
    pub attempt: u64,
    /// [`FaultAction`] name.
    pub action: &'static str,
}

#[derive(Default)]
struct InjectorState {
    /// Attempts per directed (src, dst) pair — faulted or not.
    attempts: HashMap<(u16, u16), u64>,
    trace: Vec<FaultEvent>,
}

/// Deterministic, rule-driven fault source shared by every transport
/// seam of a (test) cluster.
pub struct FaultInjector {
    seed: u64,
    rules: Mutex<Vec<FaultRule>>,
    rng: Mutex<StdRng>,
    state: Mutex<InjectorState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field(
                "rules",
                &self.rules.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl FaultInjector {
    /// Injector with no rules; add them with [`add_rule`](Self::add_rule).
    pub fn seeded(seed: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            seed,
            rules: Mutex::new(Vec::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            state: Mutex::new(InjectorState::default()),
        })
    }

    /// The seed this injector replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Append a rule (consulted after all earlier rules).
    pub fn add_rule(&self, rule: FaultRule) {
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rule);
    }

    /// Drop every rule — "heal" the network.
    pub fn clear_rules(&self) {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Injected-fault trace so far (the replay invariant: same seed and
    /// schedule ⇒ same trace).
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trace
            .clone()
    }

    /// How many attempts (faulted or clean) were made from `src` to
    /// `dst`. Chaos tests use this to prove fetch attempts to a
    /// quarantined corpse stop.
    pub fn attempt_count(&self, src: NodeId, dst: NodeId) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .attempts
            .get(&(src.0, dst.0))
            .copied()
            .unwrap_or(0)
    }

    /// Count one attempt and decide its fate.
    pub fn decide(&self, src: NodeId, dst: NodeId) -> Option<FaultAction> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let attempt = {
            let n = state.attempts.entry((src.0, dst.0)).or_insert(0);
            let a = *n;
            *n += 1;
            a
        };
        let rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        let hit = rules.iter().find(|r| {
            r.matches(src, dst, attempt)
                && (r.probability >= 1.0
                    || self
                        .rng
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .random_bool(r.probability))
        });
        let action = hit.map(|r| r.action.clone());
        if let Some(a) = &action {
            state.trace.push(FaultEvent {
                src,
                dst,
                attempt,
                action: a.name(),
            });
        }
        action
    }

    /// A [`Connector`] for node `src`'s broadcast links. Stream-level
    /// actions degrade to connect-level ones (`Truncate` behaves like
    /// `Reset`): notice links are fire-and-forget, so a cut stream and a
    /// dead stream are indistinguishable to the writer thread anyway.
    pub fn connector(self: &Arc<Self>, src: NodeId) -> Connector {
        let inj = Arc::clone(self);
        Arc::new(move |peer, addr, timeout| {
            match inj.decide(src, peer) {
                None => TcpStream::connect_timeout(&addr, timeout),
                Some(FaultAction::Drop) => Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "injected: connection refused",
                )),
                Some(FaultAction::Delay(d)) => {
                    std::thread::sleep(d);
                    TcpStream::connect_timeout(&addr, timeout)
                }
                Some(FaultAction::BlackHole) => {
                    std::thread::sleep(timeout);
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "injected: black hole",
                    ))
                }
                Some(FaultAction::Reset) | Some(FaultAction::Truncate(_)) => {
                    let s = TcpStream::connect_timeout(&addr, timeout)?;
                    // Established, then immediately torn down: the first
                    // write on the link fails like an RST in flight.
                    s.shutdown(std::net::Shutdown::Both)?;
                    Ok(s)
                }
            }
        })
    }

    /// A [`Dialer`] for node `src`'s fetch/sync sessions. All five
    /// actions apply; `Truncate` and `Reset` return a live stream that
    /// fails mid-conversation, exercising the frame decoder's partial-
    /// read paths.
    pub fn dialer(self: &Arc<Self>, src: NodeId) -> Dialer {
        let inj = Arc::clone(self);
        Arc::new(move |peer, addr, timeout| match inj.decide(src, peer) {
            None => FaultStream::connect(addr, timeout, StreamFault::None),
            Some(FaultAction::Drop) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected: connection refused",
            )),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                FaultStream::connect(addr, timeout, StreamFault::None)
            }
            Some(FaultAction::BlackHole) => {
                std::thread::sleep(timeout);
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected: black hole",
                ))
            }
            Some(FaultAction::Reset) => {
                FaultStream::connect(addr, timeout, StreamFault::ResetReads)
            }
            Some(FaultAction::Truncate(n)) => {
                FaultStream::connect(addr, timeout, StreamFault::TruncateReads(n))
            }
        })
    }

    /// An [`AcceptFilter`] for node `dst`'s cache daemon: faults applied
    /// to inbound connections before any frame is read.
    pub fn acceptor(self: &Arc<Self>, dst: NodeId) -> AcceptFilter {
        let inj = Arc::clone(self);
        Arc::new(move || inj.decide(ACCEPT_SRC, dst))
    }
}

/// Server-side fault hook: consulted once per accepted connection.
/// `Drop`/`Reset`/`Truncate` close the connection unserved; `Delay`
/// sleeps before its first serve; `BlackHole` holds it open, unread,
/// until the pool stops.
pub type AcceptFilter = Arc<dyn Fn() -> Option<FaultAction> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_match_by_pair_and_attempt_window() {
        let inj = FaultInjector::seeded(1);
        inj.add_rule(FaultRule::between(NodeId(1), NodeId(0), FaultAction::Drop).first(2));
        assert_eq!(inj.decide(NodeId(1), NodeId(0)), Some(FaultAction::Drop));
        assert_eq!(inj.decide(NodeId(1), NodeId(0)), Some(FaultAction::Drop));
        // Third attempt falls outside the window.
        assert_eq!(inj.decide(NodeId(1), NodeId(0)), None);
        // Different pair: untouched, with its own counter.
        assert_eq!(inj.decide(NodeId(0), NodeId(1)), None);
        assert_eq!(inj.attempt_count(NodeId(1), NodeId(0)), 3);
        assert_eq!(inj.attempt_count(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let inj = FaultInjector::seeded(1);
        inj.add_rule(FaultRule::between(NodeId(0), NodeId(1), FaultAction::Reset).first(1));
        inj.add_rule(FaultRule::toward(NodeId(1), FaultAction::Drop));
        assert_eq!(inj.decide(NodeId(0), NodeId(1)), Some(FaultAction::Reset));
        assert_eq!(inj.decide(NodeId(0), NodeId(1)), Some(FaultAction::Drop));
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let inj = FaultInjector::seeded(seed);
            inj.add_rule(FaultRule::toward(NodeId(0), FaultAction::Drop).with_probability(0.5));
            for _ in 0..50 {
                inj.decide(NodeId(1), NodeId(0));
            }
            inj.trace()
        };
        assert_eq!(run(7), run(7));
        // The probabilistic trace is non-trivial (neither all nor none).
        let t = run(7);
        assert!(!t.is_empty() && t.len() < 50, "{} faults", t.len());
    }

    #[test]
    fn clear_rules_heals() {
        let inj = FaultInjector::seeded(1);
        inj.add_rule(FaultRule::toward(NodeId(0), FaultAction::Drop));
        assert!(inj.decide(NodeId(1), NodeId(0)).is_some());
        inj.clear_rules();
        assert!(inj.decide(NodeId(1), NodeId(0)).is_none());
    }

    #[test]
    fn acceptor_counts_under_sentinel_src() {
        let inj = FaultInjector::seeded(1);
        inj.add_rule(FaultRule {
            src: Some(ACCEPT_SRC),
            dst: Some(NodeId(2)),
            from_attempt: 0,
            until_attempt: Some(1),
            probability: 1.0,
            action: FaultAction::Drop,
        });
        let filter = inj.acceptor(NodeId(2));
        assert_eq!(filter(), Some(FaultAction::Drop));
        assert_eq!(filter(), None);
        assert_eq!(inj.attempt_count(ACCEPT_SRC, NodeId(2)), 2);
    }
}
