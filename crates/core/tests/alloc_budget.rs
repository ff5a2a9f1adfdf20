//! Allocation budget of the hit path, in a test binary of its own
//! because it replaces the global allocator.
//!
//! Every allocation is tallied against the thread that made it, so the
//! request thread's share can be read from outside while the server runs
//! as it does in production. The budget is what a warm local hit costs
//! today plus 20 % slack: a change that makes a hit build something it
//! does not use (the parent commit built the whole CGI request view,
//! ≈ 12 allocations, before every lookup) fails here, not in a profile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;

/// More threads than the test ever runs; later ones share the last slot.
const SLOTS: usize = 64;

static ALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's index into `ALLOCATIONS`; `usize::MAX` until its
    /// first allocation. Const-initialised and without a destructor, so
    /// touching it from inside the allocator cannot allocate.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Tally;

fn count_one() {
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1));
        }
        s.get()
    });
    ALLOCATIONS[slot].fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to the system allocator;
// the tally touches only atomics and a destructor-free thread-local.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tally = Tally;

fn tallies() -> Vec<u64> {
    ALLOCATIONS
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect()
}

/// Allocations per warm local hit on the request thread, measured on the
/// reference build: parent commit 51.0, this change 27.0.
const BUDGET_PER_HIT: f64 = 27.0 * 1.2;

#[test]
fn a_warm_local_hit_stays_within_its_allocation_budget() {
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    // Two request threads: one stays with the connection, and while the
    // other is idle the connection is never parked — the production hot
    // path. (Alone, a thread parks the connection after every response
    // and the next request's fresh read buffer is a 28th allocation.)
    let server = SwalaServer::start_single(
        ServerOptions {
            pool_size: 2,
            ..Default::default()
        },
        registry,
    )
    .unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let mut hit = || {
        let resp = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        resp
    };
    // The miss, then enough hits that every lazily grown structure (the
    // trace ring, histograms, the date cache) has reached its size.
    for _ in 0..2_000 {
        hit();
    }
    assert_eq!(hit().headers.get("X-Swala-Cache"), Some("local-hit"));

    const HITS: u64 = 2_000;
    let mine = SLOT.with(Cell::get);
    let before = tallies();
    for _ in 0..HITS {
        hit();
    }
    let after = tallies();
    // The request thread is the busiest thread that is not this one
    // (the purge and accept threads allocate next to nothing).
    let per_hit = (0..SLOTS)
        .filter(|&slot| slot != mine)
        .map(|slot| (after[slot] - before[slot]) as f64 / HITS as f64)
        .fold(0.0, f64::max);
    println!("allocations per warm local hit on the request thread: {per_hit:.1}");
    assert!(per_hit >= 1.0, "found the request thread's tally");
    assert!(
        per_hit <= BUDGET_PER_HIT,
        "{per_hit:.1} allocations per hit, budget {BUDGET_PER_HIT:.1}"
    );
    server.shutdown();
}
