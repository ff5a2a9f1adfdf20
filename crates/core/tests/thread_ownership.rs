//! Dropping a node joins every thread it started, in a test binary of
//! its own so that `/proc/self/task` holds only this test's threads.
//!
//! Node 1's cache daemon is given every kind of inbound connection that
//! could hold a thread past shutdown: black-holed by the accept filter,
//! idle, stalled mid-header, and one whose peer asks for 64 fetches of a
//! 1 MiB body and never reads a reply, so its handler blocks in a write.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swala::{HttpClient, ServerOptions};
use swala_cache::{CacheKey, NodeId};
use swala_cgi::{ProgramRegistry, SimulatedProgram, WorkKind};
use swala_proto::faults::ACCEPT_SRC;
use swala_proto::{write_frame, FaultAction, FaultInjector, FaultRule, Message, FRAME_STALL_LIMIT};

fn registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    )));
    r
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// How long a joined thread may stay listed. The kernel wakes a
/// thread's joiner before it drops the thread's memory map, so a joined
/// thread can still show `VmRSS` for an instant (up to 18 ms seen).
const EXIT_SETTLE: Duration = Duration::from_millis(50);

/// The name of task `tid` if it is a live thread a Swala node started.
/// A task that has released its memory map, so its `status` has no
/// `VmRSS` line, is exiting and does not count.
fn swala_thread(tid: &str) -> Option<String> {
    let task = std::path::Path::new("/proc/self/task").join(tid);
    let status = std::fs::read_to_string(task.join("status")).ok()?;
    if !status.contains("\nVmRSS:") {
        return None;
    }
    let comm = std::fs::read_to_string(task.join("comm")).ok()?;
    let comm = comm.trim_end();
    comm.starts_with("swala-").then(|| comm.to_string())
}

/// This process's live threads that a Swala node started, as
/// `(tid, name)`.
fn swala_threads() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let tid = task.ok()?.file_name().into_string().ok()?;
            let name = swala_thread(&tid)?;
            Some((tid, name))
        })
        .collect()
}

#[test]
fn dropping_a_node_leaves_none_of_its_threads() {
    let inj = FaultInjector::seeded(1);
    let servers = swala::start_cluster(2, |_| {
        let options = ServerOptions {
            pool_size: 2,
            faults: Some(Arc::clone(&inj)),
            ..Default::default()
        };
        (options, registry())
    })
    .unwrap();
    let target = "/cgi-bin/adl?id=1&ms=0&bytes=1048576";
    HttpClient::new(servers[1].http_addr()).get(target).unwrap();
    let key = CacheKey::new(target);
    let owner = Arc::clone(servers[1].manager());
    assert!(owner.directory().get(NodeId(1), &key).is_some());
    let cache_port = servers[1].cache_addr();
    let accepted = || inj.attempt_count(ACCEPT_SRC, NodeId(1));

    let n = accepted();
    inj.add_rule(
        FaultRule::between(ACCEPT_SRC, NodeId(1), FaultAction::BlackHole).window(n, n + 2),
    );
    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(cache_port).unwrap())
        .collect();
    wait_until("both black-holed connections accepted", || {
        accepted() == n + 2
    });
    held.extend((0..3).map(|_| TcpStream::connect(cache_port).unwrap()));
    let mut stalled = TcpStream::connect(cache_port).unwrap();
    stalled.write_all(&[0, 0]).unwrap();
    held.push(stalled);
    let mut reader_gone = TcpStream::connect(cache_port).unwrap();
    let request = Message::FetchRequest {
        key: key.clone(),
        trace: None,
    }
    .encode();
    for _ in 0..64 {
        write_frame(&mut reader_gone, &request).unwrap();
    }
    held.push(reader_gone);
    wait_until("every connection accepted", || accepted() == n + 7);
    wait_until("the owner serving the fetches", || {
        owner.directory().get(NodeId(1), &key).unwrap().hits > 0
    });
    // Let the replies fill both socket buffers, so the handler is
    // blocked in a write that makes no progress.
    std::thread::sleep(Duration::from_millis(500));

    let started = Instant::now();
    drop(servers);
    let took = started.elapsed();
    eprintln!("drop took {took:?}");
    // Only the threads listed now are re-read: one that was never
    // joined and is blocked past drop stays listed.
    let mut survivors = swala_threads();
    let settle = Instant::now() + EXIT_SETTLE;
    while !survivors.is_empty() && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
        survivors.retain(|(tid, _)| swala_thread(tid).is_some());
    }
    assert!(
        survivors.is_empty(),
        "threads alive {EXIT_SETTLE:?} after drop: {survivors:?}"
    );
    assert!(
        took <= FRAME_STALL_LIMIT + Duration::from_secs(1),
        "drop took {took:?}"
    );
    drop(held);
}
