//! The single-flight registry: one request at a time produces a key's
//! body on this node, and identical requests wait for it.
//!
//! A request *holds* a key's flight while it produces the body: a miss
//! that executes the CGI, or a remote hit that fetches the body from the
//! owner (and executes instead when the owner cannot serve it). With
//! coalescing on, the first holder leads and identical requests wait on
//! the flight for the body it publishes. With it off (the paper's §4.2
//! re-runs) each request becomes one more holder and produces the body
//! itself. The entry — the paper's "in-flight marker" — stays until the
//! last holder finishes, so overlapping holders never clobber each
//! other's marker.

use crate::key::CacheKey;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a flight publishes: the body's content type and the body.
type FlightBody = (String, Arc<[u8]>);

/// One key's flight. Waiters block on the condvar until a holder
/// publishes a body, or the last holder fails.
#[derive(Debug)]
pub(crate) struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState {
    /// Holders still at work.
    Running,
    /// Finished. `Some` carries the body for waiters (published even when
    /// the insert itself was threshold-discarded); `None` means every
    /// holder failed and waiters must execute themselves.
    Done(Option<FlightBody>),
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: StdMutex::new(FlightState::Running),
            cv: Condvar::new(),
        }
    }

    /// Non-poisoning lock (a holder panicking mid-publish must not wedge
    /// waiters behind a poisoned mutex).
    fn lock(&self) -> MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serve `body` to the waiters.
    pub(crate) fn publish(&self, content_type: &str, body: &Arc<[u8]>) {
        self.set(Some((content_type.to_string(), Arc::clone(body))));
    }

    /// Wake the waiters with `result`. A published body is never
    /// downgraded to a failure.
    fn set(&self, result: Option<FlightBody>) {
        let mut state = self.lock();
        if !matches!(&*state, FlightState::Done(Some(_))) {
            *state = FlightState::Done(result);
            self.cv.notify_all();
        }
    }

    /// Block until a holder publishes, every holder fails, or `bound`
    /// elapses.
    fn wait(&self, bound: Duration) -> FlightWaitOutcome {
        let deadline = Instant::now() + bound;
        let mut state = self.lock();
        loop {
            match &*state {
                FlightState::Done(Some((content_type, body))) => {
                    return FlightWaitOutcome::Served {
                        content_type: content_type.clone(),
                        body: Arc::clone(body),
                    };
                }
                FlightState::Done(None) => return FlightWaitOutcome::LeaderFailed,
                FlightState::Running => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return FlightWaitOutcome::TimedOut;
            }
            state = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// A waiter's handle on another request's flight; redeem it with
/// [`CacheManager::wait_flight`](crate::CacheManager::wait_flight).
#[derive(Debug)]
pub struct FlightWaiter {
    flight: Arc<Flight>,
    /// Whether the wait counts as a coalesced miss (`coalesce_waits`,
    /// and its fallback in `coalesce_fallbacks`). A remote hit that waits
    /// is counted as the remote hit it is, and nothing else.
    pub(crate) miss: bool,
}

impl FlightWaiter {
    /// Whether the waiting request is a remote hit (it took the flight
    /// through [`CacheManager::begin_remote_fetch`](crate::CacheManager::begin_remote_fetch))
    /// rather than a coalesced miss.
    pub fn is_remote_hit(&self) -> bool {
        !self.miss
    }

    /// Block until the flight resolves or `bound` elapses.
    pub(crate) fn wait(&self, bound: Duration) -> FlightWaitOutcome {
        self.flight.wait(bound)
    }
}

/// How a coalesced wait resolved.
#[derive(Debug)]
pub enum FlightWaitOutcome {
    /// The leader's body, shared zero-copy with every waiter.
    Served {
        content_type: String,
        body: Arc<[u8]>,
    },
    /// Every holder failed: the caller must execute itself.
    LeaderFailed,
    /// The bounded wait elapsed: the caller must execute itself.
    TimedOut,
}

/// A key's registry entry.
struct Holders {
    flight: Arc<Flight>,
    /// Requests producing the body: the leader, plus re-runners when
    /// coalescing is off and waiters that fell back to executing.
    count: usize,
    /// Whether a holder executes the CGI. Until one does, every holder
    /// only fetches from an owner, and an insert notice for the key is not
    /// a §4.2 false miss.
    executing: bool,
}

/// How a request joined a key's flight.
pub(crate) enum Joined {
    /// Nobody held it: the caller leads.
    Lead,
    /// Coalescing is off and the key has holders: the caller is one more.
    /// `executing` says whether one of them was running the CGI.
    Beside { executing: bool },
    /// Coalescing is on and the key has a holder: wait for its body.
    Wait(FlightWaiter),
}

/// Every key in flight on this node.
pub(crate) struct Flights {
    holders: Mutex<HashMap<CacheKey, Holders>>,
    coalesce: bool,
}

impl Flights {
    pub(crate) fn new(coalesce: bool) -> Flights {
        Flights {
            holders: Mutex::new(HashMap::new()),
            coalesce,
        }
    }

    /// Whether identical requests wait for one holder (`false`: each one
    /// produces the body itself).
    pub(crate) fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Join `key`'s flight to produce its body by executing the CGI
    /// (`executes`) or by fetching it from an owner. A waiter's handle is
    /// a coalesced miss when `executes`, a remote hit otherwise.
    pub(crate) fn join(&self, key: &CacheKey, executes: bool) -> Joined {
        self.hold(key, executes, self.coalesce)
    }

    /// Hold `key`'s flight as one more executor, whatever holds it: a
    /// waiter whose leader failed runs the CGI itself.
    pub(crate) fn force(&self, key: &CacheKey) {
        self.hold(key, true, false);
    }

    fn hold(&self, key: &CacheKey, executes: bool, may_wait: bool) -> Joined {
        match self.holders.lock().entry(key.clone()) {
            Entry::Occupied(entry) if may_wait => Joined::Wait(FlightWaiter {
                flight: Arc::clone(&entry.get().flight),
                miss: executes,
            }),
            Entry::Occupied(mut entry) => {
                let holders = entry.get_mut();
                let executing = holders.executing;
                holders.count += 1;
                holders.executing |= executes;
                Joined::Beside { executing }
            }
            Entry::Vacant(entry) => {
                entry.insert(Holders {
                    flight: Arc::new(Flight::new()),
                    count: 1,
                    executing: executes,
                });
                Joined::Lead
            }
        }
    }

    /// A holder that was fetching executes the CGI instead.
    pub(crate) fn start_executing(&self, key: &CacheKey) {
        if let Some(holders) = self.holders.lock().get_mut(key) {
            holders.executing = true;
        }
    }

    /// How many of `keys` are being executed here right now.
    pub(crate) fn count_executing<'a>(&self, keys: impl Iterator<Item = &'a CacheKey>) -> usize {
        let holders = self.holders.lock();
        if holders.is_empty() {
            return 0;
        }
        keys.filter(|key| holders.get(*key).is_some_and(|h| h.executing))
            .count()
    }

    /// One holder of `key` produced the body. Returns the flight to
    /// publish it on, or `None` when no waiter can ever read it — so an
    /// uncontended flight costs no copy of the body.
    pub(crate) fn finish(&self, key: &CacheKey) -> Option<Arc<Flight>> {
        self.release(key).map(|(flight, _)| flight)
    }

    /// One holder of `key` failed. Waiters are woken to fall back only
    /// once no holder remains.
    pub(crate) fn fail(&self, key: &CacheKey) {
        if let Some((flight, true)) = self.release(key) {
            flight.set(None);
        }
    }

    /// Drop one holder of `key`. Returns the flight while its result
    /// still has a reader — other holders keep it open to new waiters, or
    /// a waiter holds it — with whether this was the last holder.
    fn release(&self, key: &CacheKey) -> Option<(Arc<Flight>, bool)> {
        let mut holders = self.holders.lock();
        let entry = holders.get_mut(key)?;
        entry.count = entry.count.saturating_sub(1);
        if entry.count > 0 {
            return Some((Arc::clone(&entry.flight), false));
        }
        let flight = holders.remove(key)?.flight;
        // Waiters join only through the map, so once the entry is out of
        // it the handles that exist are all that ever will.
        (Arc::strong_count(&flight) > 1).then_some((flight, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey::new("/cgi-bin/f?x=1")
    }

    #[test]
    fn without_coalescing_a_miss_beside_a_fetch_is_no_rerun() {
        let flights = Flights::new(false);
        flights.join(&key(), false);
        assert!(matches!(
            flights.join(&key(), true),
            Joined::Beside { executing: false }
        ));
        assert!(matches!(
            flights.join(&key(), true),
            Joined::Beside { executing: true }
        ));
        // Three holders: the entry survives the first two.
        flights.fail(&key());
        flights.fail(&key());
        assert_eq!(flights.count_executing([key()].iter()), 1);
        flights.fail(&key());
        assert_eq!(flights.count_executing([key()].iter()), 0);
    }
}
