//! Allocation budget of the hit path, in a test binary of its own
//! because it replaces the global allocator.
//!
//! Every allocation is tallied against the thread that made it, so the
//! request thread's share can be read from outside while the server runs
//! as it does in production. The budget is what a warm hit costs today
//! plus 20 % slack: a change that makes a hit build something it does
//! not use (the parent commit built the whole CGI request view,
//! ≈ 12 allocations, before every lookup) fails here, not in a profile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions, SwalaServer};
use swala_cache::NodeId;
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_http::StatusCode;

/// More threads than the test ever runs; later ones share the last slot.
const SLOTS: usize = 256;

static ALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
/// Kernel thread id of each slot's thread, for its name in `/proc`.
static TIDS: [AtomicI32; SLOTS] = [const { AtomicI32::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's index into `ALLOCATIONS`; `usize::MAX` until its
    /// first allocation. Const-initialised and without a destructor, so
    /// touching it from inside the allocator cannot allocate.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

extern "C" {
    fn gettid() -> i32;
}

struct Tally;

fn count_one() {
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            let slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1);
            s.set(slot);
            // SAFETY: gettid takes nothing and returns the caller's id.
            TIDS[slot].store(unsafe { gettid() }, Ordering::Relaxed);
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

/// The tests start servers of their own; one at a time, so a thread
/// measured by one is never busy for the other.
static SERIAL: Mutex<()> = Mutex::new(());

fn tallies() -> Vec<u64> {
    ALLOCATIONS
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect()
}

/// Allocations per warm local hit on the request thread, measured on the
/// reference build: 51.0 while hits built the CGI view, 27.0 while every
/// request field was a `String`, now 1.0 — the key text, shared by the
/// lookup and the trace.
const BUDGET_PER_HIT: f64 = 1.0 * 1.2;

/// Allocations per warm pooled remote hit on the requester's request
/// thread, measured on the reference build: 32.0 while every request
/// field was a `String`, then 6.0, now 5.0.
const BUDGET_PER_REMOTE_HIT: f64 = 5.0 * 1.2;

/// Allocations on the cache-port threads per warm remote hit the owner
/// serves, measured on the reference build: 7.0 while the fetched key
/// and the trace each copied the key text, now 2.0.
const BUDGET_PER_OWNER_SERVE: f64 = 2.0 * 1.2;

/// Allocations per evicting miss (a fresh key on a full cache, with a
/// segment store and an insert notice to one peer) on the request
/// thread, measured on the reference build: 67.3, then 58.1, then 29.1,
/// now 10.0 — the key text, the key's flight, the program's three (its
/// body, the body's first line, its content type), the entry's shared
/// content type, the store record, the list of evicted entries, and the
/// insert and delete notices' shared frames.
const BUDGET_PER_MISS: f64 = 10.0 * 1.2;

fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    registry
}

/// Two request threads: one stays with the connection, and while the
/// other is idle the connection is never parked — the production hot
/// path. (Alone, a thread parks the connection after every response and
/// the next request's fresh read buffer is one more allocation.)
fn options() -> ServerOptions {
    ServerOptions {
        pool_size: 2,
        ..Default::default()
    }
}

/// Allocations per `hit` (or miss), after enough warm-up requests that
/// every lazily grown structure (the trace ring, histograms, the date
/// cache, pooled connections) has reached its size: on the busiest
/// request thread, and summed over the threads serving the cache port.
fn per_hit(mut hit: impl FnMut()) -> PerHit {
    for _ in 0..2_000 {
        hit();
    }
    const HITS: u64 = 2_000;
    let before = tallies();
    for _ in 0..HITS {
        hit();
    }
    let after = tallies();
    let per_slot = |role: &str| {
        (0..SLOTS)
            .filter(|&slot| {
                let tid = TIDS[slot].load(Ordering::Relaxed);
                std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                    .is_ok_and(|name| name.starts_with(role))
            })
            .map(|slot| (after[slot] - before[slot]) as f64 / HITS as f64)
            .collect::<Vec<f64>>()
    };
    PerHit {
        request_thread: per_slot("swala-request").into_iter().fold(0.0, f64::max),
        cache_port: per_slot("swala-cacher").into_iter().sum(),
    }
}

/// What one request cost in allocations, by the threads that made them.
struct PerHit {
    /// The busiest HTTP request thread.
    request_thread: f64,
    /// Every cache-port thread of every node (the owner's, on a remote
    /// hit: the requester's own serve nothing).
    cache_port: f64,
}

fn per_hit_on_the_request_thread(hit: impl FnMut()) -> f64 {
    per_hit(hit).request_thread
}

#[test]
fn a_warm_local_hit_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = SwalaServer::start_single(options(), registry()).unwrap();
    let mut client = HttpClient::new(server.http_addr());
    let per_hit = per_hit_on_the_request_thread(|| {
        let resp = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    });
    let resp = client.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    assert_eq!(resp.headers.get("X-Swala-Cache"), Some("local-hit"));
    println!("allocations per warm local hit on the request thread: {per_hit:.1}");
    assert!(per_hit >= 1.0, "found the request thread's tally");
    assert!(
        per_hit <= BUDGET_PER_HIT,
        "{per_hit:.1} allocations per hit, budget {BUDGET_PER_HIT:.1}"
    );
    server.shutdown();
}

#[test]
fn a_warm_remote_hit_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let nodes = swala::start_cluster(2, |_| (options(), registry())).unwrap();
    let target = "/cgi-bin/adl?id=2&ms=0";
    HttpClient::new(nodes[1].http_addr()).get(target).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[0].manager().directory().len(NodeId(1)) == 0 {
        assert!(Instant::now() < deadline, "node 1's insert never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The requester side: node 0's request thread fetches from node 1
    // over its pooled connection.
    let mut client = HttpClient::new(nodes[0].http_addr());
    let PerHit {
        request_thread: per_hit,
        cache_port: per_serve,
    } = per_hit(|| {
        let resp = client.get(target).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    });
    let resp = client.get(target).unwrap();
    assert_eq!(resp.headers.get("X-Swala-Cache"), Some("remote-hit"));
    println!("allocations per warm remote hit on the requester's request thread: {per_hit:.1}");
    println!("allocations per warm remote hit on the owner's cache-port threads: {per_serve:.1}");
    assert!(per_hit >= 1.0, "found the request thread's tally");
    assert!(
        per_hit <= BUDGET_PER_REMOTE_HIT,
        "{per_hit:.1} allocations per remote hit, budget {BUDGET_PER_REMOTE_HIT:.1}"
    );
    assert!(per_serve >= 1.0, "found the cache-port threads' tally");
    assert!(
        per_serve <= BUDGET_PER_OWNER_SERVE,
        "{per_serve:.1} allocations per owner serve, budget {BUDGET_PER_OWNER_SERVE:.1}"
    );
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn an_evicting_miss_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let base = std::env::temp_dir().join(format!("swala-alloc-miss-{}", std::process::id()));
    let nodes = swala::start_cluster(2, |node| {
        let options = ServerOptions {
            cache_dir: Some(base.join(format!("node{}", node.0))),
            fsync: false,
            ..options()
        };
        (options, registry())
    })
    .unwrap();
    let mut client = HttpClient::new(nodes[0].http_addr());
    // The 2 000 warm-up misses fill the cache to capacity, so every
    // measured miss evicts.
    let mut id = 0u64;
    let per_miss = per_hit_on_the_request_thread(|| {
        id += 1;
        let resp = client
            .get(&format!("/cgi-bin/adl?id={id}&ms=0&bytes=4096"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("X-Swala-Cache"), Some("miss"));
    });
    let stats = nodes[0].manager().stats().snapshot();
    assert_eq!(stats.inserts, 4_000);
    assert!(stats.evictions >= 2_000, "{stats:?}");
    println!("allocations per evicting miss on the request thread: {per_miss:.1}");
    assert!(per_miss >= 1.0, "found the request thread's tally");
    assert!(
        per_miss <= BUDGET_PER_MISS,
        "{per_miss:.1} allocations per miss, budget {BUDGET_PER_MISS:.1}"
    );
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
}
