//! The clock every timed decision reads.
//!
//! A node decides several things on a timer: TTL expiry (§4.1–4.2), the
//! purge daemon's pass ("wakes up every few seconds"), the source
//! monitor's poll, the quarantine probe window, and a notice link's hold
//! and reconnect backoff. Each reads one [`Clock`] handle rather than the
//! host clock, so a test moves time forward instead of sleeping through it.
//!
//! * [`Clock::Real`], what every node runs, makes the same
//!   `Instant::now()` / `SystemTime::now()` calls the code always made:
//!   no allocation, no dynamic dispatch, and a deadline wait is a plain
//!   `Condvar::wait_timeout`.
//! * [`Clock::Manual`] stands still until its [`ManualClock`] is moved.
//!   [`ManualClock::advance`] moves monotonic and wall time together and
//!   wakes every registered [`Waiter`], which re-checks its deadline;
//!   [`ManualClock::step_wall_back`] steps wall time back alone, as NTP
//!   may step a host's.
//!
//! Socket timeouts stay the kernel's. So do waits that bound another
//! thread's work (a flight wait, a flush): they end when that work ends,
//! and a frozen clock would only turn a hang into a longer one.

use crate::entry::unix_now;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where a node reads the time.
#[derive(Clone, Default)]
pub enum Clock {
    /// The host's clocks.
    #[default]
    Real,
    /// A test clock that moves only when told to.
    Manual(Arc<ManualClock>),
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clock::Real => "Real",
            Clock::Manual(_) => "Manual",
        })
    }
}

impl Clock {
    /// Monotonic time: what holds, intervals and probe windows run on.
    #[inline]
    pub fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            Clock::Manual(m) => m.now(),
        }
    }

    /// Wall time in whole seconds since the Unix epoch: what a TTL is
    /// judged against.
    #[inline]
    pub fn unix_now(&self) -> u64 {
        match self {
            Clock::Real => unix_now(),
            Clock::Manual(m) => m.unix_now(),
        }
    }

    /// Have [`ManualClock::advance`] wake `waiter`. The real clock's
    /// waits time out by themselves, so there it does nothing.
    pub fn wake_on_advance(&self, waiter: Weak<dyn Waiter>) {
        if let Clock::Manual(m) = self {
            lock(&m.waiters).push(waiter);
        }
    }

    /// Wait on `cv`, whose mutex `guard` holds, until it is notified or
    /// `timeout` passes on this clock. Real time: `cv.wait_timeout`. A
    /// manual clock passes no time by itself, so only a notify ends the
    /// wait: the caller's own, or an `advance` waking the caller's
    /// registered [`Waiter`]. Callers re-check their deadline after
    /// every return.
    pub fn wait_timeout<'a, T>(
        &self,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        match self {
            Clock::Real => {
                cv.wait_timeout(guard, timeout)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            Clock::Manual(_) => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// A thread blocked until a deadline on a [`Clock`].
pub trait Waiter: Send + Sync {
    /// Notify the waiting thread so it re-checks its deadline. Take the
    /// mutex it waits under before notifying, so the notify cannot fall
    /// between its deadline check and its wait.
    fn wake(&self);
}

/// The moving parts of a [`ManualClock`].
struct ManualTime {
    /// Monotonic time since the clock was made.
    elapsed: Duration,
    /// Wall time since the Unix epoch.
    wall: Duration,
}

/// A clock that tests move by hand. It starts at the host's wall time.
pub struct ManualClock {
    start: Instant,
    time: Mutex<ManualTime>,
    waiters: Mutex<Vec<Weak<dyn Waiter>>>,
}

impl ManualClock {
    /// A clock standing at the host's current wall time.
    pub fn new() -> Arc<ManualClock> {
        Arc::new(ManualClock {
            start: Instant::now(),
            time: Mutex::new(ManualTime {
                elapsed: Duration::ZERO,
                wall: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .unwrap_or(Duration::ZERO),
            }),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// The handle to give the code under test.
    pub fn clock(self: &Arc<Self>) -> Clock {
        Clock::Manual(Arc::clone(self))
    }

    /// See [`Clock::now`].
    pub fn now(&self) -> Instant {
        self.start + lock(&self.time).elapsed
    }

    /// See [`Clock::unix_now`].
    pub fn unix_now(&self) -> u64 {
        lock(&self.time).wall.as_secs()
    }

    /// Move monotonic and wall time forward by `by`, then wake every
    /// registered waiter; each whose deadline has passed goes on.
    pub fn advance(&self, by: Duration) {
        {
            let mut t = lock(&self.time);
            t.elapsed += by;
            t.wall += by;
        }
        // Wake outside the registry lock: a woken thread may register.
        let live: Vec<Arc<dyn Waiter>> = {
            let mut waiters = lock(&self.waiters);
            waiters.retain(|w| w.strong_count() > 0);
            waiters.iter().filter_map(Weak::upgrade).collect()
        };
        for waiter in live {
            waiter.wake();
        }
    }

    /// Step wall time back by `by`, leaving monotonic time where it is.
    /// Nothing waits on wall time, so nothing is woken.
    pub fn step_wall_back(&self, by: Duration) {
        let mut t = lock(&self.time);
        t.wall = t.wall.saturating_sub(by);
    }
}

/// A stop flag a daemon thread sleeps on between passes: [`stop`]
/// ends a [`sleep_until`] at once, so shutdown never waits out an
/// interval.
///
/// [`stop`]: StopSignal::stop
/// [`sleep_until`]: StopSignal::sleep_until
pub struct StopSignal {
    clock: Clock,
    stopped: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl StopSignal {
    /// A raised-on-demand stop flag whose sleeps run on `clock`.
    pub fn new(clock: Clock) -> Arc<StopSignal> {
        let signal = Arc::new(StopSignal {
            clock,
            stopped: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let waiter: Weak<dyn Waiter> = Arc::downgrade(&signal) as Weak<StopSignal>;
        signal.clock.wake_on_advance(waiter);
        signal
    }

    /// Raise the flag and end any sleep in progress.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.wake();
    }

    /// Whether [`stop`](Self::stop) has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Sleep until `deadline` on the signal's clock. `true` when the
    /// deadline came, `false` when the flag was raised first.
    pub fn sleep_until(&self, deadline: Instant) -> bool {
        let mut guard = lock(&self.lock);
        loop {
            if self.is_stopped() {
                return false;
            }
            let now = self.clock.now();
            if now >= deadline {
                return true;
            }
            guard = self.clock.wait_timeout(&self.cv, guard, deadline - now);
        }
    }
}

impl Waiter for StopSignal {
    fn wake(&self) {
        let _guard = lock(&self.lock);
        self.cv.notify_all();
    }
}

/// Non-poisoning lock: a panicking test thread must not wedge the clock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_wakes_a_waiter_at_its_deadline() {
        let time = ManualClock::new();
        let stop = StopSignal::new(time.clock());
        let deadline = time.now() + Duration::from_secs(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let sleeper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || tx.send(stop.sleep_until(deadline)).unwrap())
        };
        // Short of the deadline: the sleeper re-checks and sleeps on.
        time.advance(Duration::from_secs(1));
        assert!(rx.recv_timeout(Duration::from_millis(20)).is_err());
        time.advance(Duration::from_secs(1));
        assert_eq!(rx.recv(), Ok(true), "the deadline came");
        sleeper.join().unwrap();
    }

    #[test]
    fn stop_ends_a_sleep_the_clock_never_ends() {
        let time = ManualClock::new();
        let stop = StopSignal::new(time.clock());
        let sleeper = {
            let stop = Arc::clone(&stop);
            let deadline = time.now() + Duration::from_secs(3600);
            std::thread::spawn(move || stop.sleep_until(deadline))
        };
        stop.stop();
        assert!(!sleeper.join().unwrap(), "stopped, not timed out");
        assert!(!stop.sleep_until(time.now()), "a raised flag stays raised");
    }

    #[test]
    fn real_sleep_times_out_by_itself() {
        let stop = StopSignal::new(Clock::Real);
        let t0 = Instant::now();
        assert!(stop.sleep_until(t0 + Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn advance_moves_both_times_and_a_wall_step_moves_wall_time_only() {
        let time = ManualClock::new();
        let clock = time.clock();
        let (t0, w0) = (clock.now(), clock.unix_now());
        assert_eq!(clock.now(), t0, "a manual clock stands still");
        time.advance(Duration::from_secs(10));
        assert_eq!(clock.now() - t0, Duration::from_secs(10));
        assert!((w0 + 9..=w0 + 10).contains(&clock.unix_now()));
        let w1 = clock.unix_now();
        time.step_wall_back(Duration::from_secs(3600));
        assert_eq!(clock.unix_now(), w1 - 3600);
        assert_eq!(
            clock.now() - t0,
            Duration::from_secs(10),
            "Instant time unmoved"
        );
    }

    #[test]
    fn dropped_waiters_leave_the_registry() {
        let time = ManualClock::new();
        let stop = StopSignal::new(time.clock());
        drop(stop);
        time.advance(Duration::from_secs(1));
        assert!(lock(&time.waiters).is_empty());
    }
}
