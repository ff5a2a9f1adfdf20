//! Tests for the `swala` binary: config handling and a real two-process
//! deployment exchanging cache entries over the wire.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use swala::HttpClient;

const BIN: &str = env!("CARGO_BIN_EXE_swala");

/// The tests read process CPU time and herd listeners; one at a time,
/// so no test's nodes compete with another's for the two cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A node process and everything it wrote to stderr after its banner.
struct Proc {
    child: Child,
    stderr: Arc<Mutex<String>>,
}

impl Proc {
    /// Whether the node has exited, and its stderr: what a failed
    /// request to it needs to say.
    fn report(&mut self) -> String {
        let status = match self.child.try_wait() {
            Ok(Some(status)) => format!("exited ({status})"),
            Ok(None) => "still running".to_string(),
            Err(e) => format!("unknown ({e})"),
        };
        let stderr = self.stderr.lock().unwrap_or_else(|e| e.into_inner());
        format!("node {status}; stderr:\n{stderr}")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

type Node = (Proc, std::net::SocketAddr, std::net::SocketAddr);

fn spawn_node(config: &str, tag: &str) -> Node {
    spawn_node_under(config, tag, "")
}

/// [`try_spawn_node`], for a node that must start.
fn spawn_node_under(config: &str, tag: &str, setup: &str) -> Node {
    try_spawn_node(config, tag, setup).unwrap_or_else(|line| panic!("unparsable banner: {line:?}"))
}

/// Start the binary — after `setup`, a shell command such as `ulimit` —
/// and parse "http on <addr>, cache protocol on <addr>" from the banner
/// it prints on stderr once it serves. A first line that is something
/// else (a failed bind, say) is returned as the error.
fn try_spawn_node(config: &str, tag: &str, setup: &str) -> Result<Node, String> {
    let path = std::env::temp_dir().join(format!("swala-bin-{tag}-{}.conf", std::process::id()));
    std::fs::write(&path, config).unwrap();
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("{setup}\nexec \"$0\" \"$1\""))
        .arg(BIN)
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn swala binary");
    let stderr = child.stderr.take().expect("stderr piped");
    let child = Proc {
        child,
        stderr: Arc::default(),
    };
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner line");
    // "swala nodeN: http on 127.0.0.1:PORT, cache protocol on 127.0.0.1:PORT"
    let http = line
        .split("http on ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok());
    let cache = line
        .split("cache protocol on ")
        .nth(1)
        .and_then(|s| s.trim().parse().ok());
    let (Some(http), Some(cache)) = (http, cache) else {
        return Err(line);
    };
    // Drain remaining stderr in the background so the child never
    // blocks, keeping it for `Proc::report`.
    let log = Arc::clone(&child.stderr);
    std::thread::spawn(move || {
        for line in reader.lines().map_while(Result::ok) {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            log.push_str(&line);
            log.push('\n');
        }
    });
    Ok((child, http, cache))
}

#[test]
fn binary_serves_requests_from_config() {
    let _serial = serial();
    let (proc_, http, _) = spawn_node(
        "node 0\nnodes 1\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:0\npool 2\ncache /cgi-bin/*\n",
        "single",
    );
    let mut client = HttpClient::new(http).with_timeout(Duration::from_secs(5));
    let miss = client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    assert!(miss.status.is_success());
    let hit = client.get("/cgi-bin/adl?id=1&ms=1").unwrap();
    assert_eq!(hit.headers.get("X-Swala-Cache"), Some("local-hit"));
    drop(proc_);
}

#[test]
fn binary_rejects_bad_config() {
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("swala-bin-bad-{}.conf", std::process::id()));
    std::fs::write(&path, "frobnicate everything\n").unwrap();
    let out = Command::new(BIN).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown keyword"));
    // There is one request engine; the keyword that chose one says so.
    std::fs::write(&path, "engine threaded\n").unwrap();
    let out = Command::new(BIN).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("engine option is gone"));
    // Missing file also fails cleanly.
    let out = Command::new(BIN)
        .arg("/no/such/file.conf")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Reserve a likely-free localhost port (bind ephemeral, read, release).
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Two node processes naming each other as peers, each with `extra`
/// appended to its configuration; returns both and their HTTP addresses.
fn spawn_pair(tag: &str, extra: &str) -> ([Proc; 2], [std::net::SocketAddr; 2]) {
    // Pre-pick node 1's cache port so node 0 can name it as a peer
    // before node 1 exists — how a real static deployment is configured.
    // Another socket may take the port in between; then pick again.
    for _ in 0..5 {
        let port1 = free_port();
        let (p0, http0, cache0) = spawn_node(
            &format!(
                "node 0\nnodes 2\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:0\npool 2\n\
                 peer 1 127.0.0.1:{port1}\ncache /cgi-bin/*\n{extra}"
            ),
            &format!("{tag}0"),
        );
        let node1 = try_spawn_node(
            &format!(
                "node 1\nnodes 2\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:{port1}\npool 2\n\
                 peer 0 {cache0}\ncache /cgi-bin/*\n{extra}"
            ),
            &format!("{tag}1"),
            "",
        );
        match node1 {
            Ok((p1, http1, _)) => return ([p0, p1], [http0, http1]),
            Err(banner) => eprintln!("node 1 did not start ({banner:?}); picking another port"),
        }
    }
    panic!("node 1 never started");
}

#[test]
fn two_binary_processes_cooperate() {
    let _serial = serial();
    for directory in ["replicated", "partitioned"] {
        let (procs, [http0, http1]) = spawn_pair(
            &format!("pair-{directory}"),
            &format!("directory {directory}\n"),
        );

        // Warm node 0; its insert notice reaches node 1's directory (or
        // the key's home), and node 1 serves the request as a remote
        // fetch over real process boundaries.
        let mut c0 = HttpClient::new(http0).with_timeout(Duration::from_secs(5));
        let expect = c0.get("/cgi-bin/adl?id=77&ms=1").unwrap();
        assert!(expect.status.is_success());

        let mut c1 = HttpClient::new(http1).with_timeout(Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(10);
        let r1 = loop {
            let r = c1.get("/cgi-bin/adl?id=77&ms=1").unwrap();
            if r.headers.get("X-Swala-Cache") == Some("remote-hit") {
                break r;
            }
            // The notice may not have landed yet and node 1 cached its own
            // execution; invalidate and retry until the remote path is seen.
            c1.get("/swala-admin/invalidate?key=%2Fcgi-bin%2Fadl%3Fid%3D77%26ms%3D1")
                .unwrap();
            assert!(
                Instant::now() < deadline,
                "never observed a remote hit ({directory})"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        assert_eq!(
            r1.body, expect.body,
            "remote fetch returns node 0's exact bytes ({directory})"
        );
        drop(procs);
    }
}

/// `/swala-threads` on a node process of its own: every role is there
/// with the thread count the configuration implies, no role's CPU time
/// goes backwards between scrapes, and work done on request threads
/// shows up under `swala-request`.
#[test]
fn threads_page_sums_cpu_by_role() {
    let _serial = serial();
    // Pinned: only a replicated directory sends every miss's notice to
    // the peer.
    let (procs, [http0, http1]) = spawn_pair("threads", "directory replicated\n");
    let mut c0 = HttpClient::new(http0).with_timeout(Duration::from_secs(5));
    let mut c1 = HttpClient::new(http1).with_timeout(Duration::from_secs(5));
    // Role → (threads, user + system seconds).
    let scrape = |client: &mut HttpClient| {
        let page = client.get("/swala-threads").unwrap();
        let text = String::from_utf8(page.body.into_vec()).unwrap();
        let samples = swala_obs::parse_exposition(&text).expect("well-formed exposition");
        let mut roles = std::collections::BTreeMap::<String, (f64, f64)>::new();
        for s in samples {
            let role = &s.labels.iter().find(|(k, _)| k == "role").expect("role").1;
            let entry = roles.entry(role.clone()).or_default();
            match s.name.as_str() {
                "swala_threads" => entry.0 += s.value,
                "swala_thread_cpu_seconds" => entry.1 += s.value,
                other => panic!("unexpected family {other}"),
            }
        }
        roles
    };
    // A miss on each node opens both notice links, so each node has its
    // writer running and a reader on the connection its peer dialled.
    c0.get("/cgi-bin/adl?id=0&ms=0").unwrap();
    c1.get("/cgi-bin/adl?id=1&ms=0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let first = loop {
        let roles = scrape(&mut c0);
        if roles.get("swala-cacher").is_some_and(|r| r.0 >= 1.0) {
            break roles;
        }
        assert!(Instant::now() < deadline, "peer never connected: {roles:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(first["swala-request"].0, 2.0, "pool 2: {first:?}");
    assert_eq!(first["swala-notice-writer"].0, 1.0, "one peer: {first:?}");
    // The cache port: a thread for the peer's notice link, one per
    // request thread it may fetch with, and a spare.
    assert_eq!(first["swala-cacher"].0, 18.0, "one peer: {first:?}");
    for role in ["swala-cache-purge", "swala"] {
        assert_eq!(first[role].0, 1.0, "{role}: {first:?}");
    }
    // 200 ms of CGI spinning on node 0's request threads. A spin is
    // bounded by wall time, and on a loaded host 20 of 10 ms each get
    // less CPU than that: spin until node 0 has used 200 ms.
    let node0 = procs[0].child.id();
    let cpu_before = cpu_seconds(node0);
    let deadline = Instant::now() + Duration::from_secs(30);
    for i in 100.. {
        if cpu_seconds(node0) - cpu_before >= 0.2 {
            break;
        }
        assert!(Instant::now() < deadline, "node 0 never got 200 ms of CPU");
        c0.get(&format!("/cgi-bin/adl?id={i}&ms=10")).unwrap();
    }
    let second = scrape(&mut c0);
    for (role, (threads, cpu)) in &first {
        let (threads_now, cpu_now) = second[role];
        assert_eq!(threads_now, *threads, "{role} threads");
        assert!(cpu_now >= *cpu, "{role}: {cpu} then {cpu_now}");
    }
    let spun = second["swala-request"].1 - first["swala-request"].1;
    assert!(spun >= 0.15, "request threads accrued {spun} s: {second:?}");
    drop(procs);
}

/// User + system CPU seconds a process has consumed (`/proc/<pid>/stat`,
/// 100 ticks a second).
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let after_name = &stat[stat.rfind(')').unwrap() + 2..];
    let ticks: u64 = after_name
        .split(' ')
        .skip(11)
        .take(2)
        .map(|t| t.parse::<u64>().unwrap())
        .sum();
    ticks as f64 / 100.0
}

/// Out of descriptors, `accept()` fails while the listener stays
/// readable: the request pool and the cache daemon each pause a tick per
/// failure instead of spinning, the pool counts it, and it serves again
/// once descriptors are back.
#[test]
fn a_failing_accept_pauses_instead_of_spinning() {
    let _serial = serial();
    let (mut proc_, http, cache) = spawn_node_under(
        "node 0\nnodes 1\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:0\npool 2\n",
        "emfile",
        "ulimit -n 40",
    );
    // More connections than the node has descriptors left, on both
    // listeners: the kernel completes the handshakes, the node's
    // accept() runs dry.
    let mut herd = Vec::new();
    for addr in (0..64).flat_map(|_| [http, cache]) {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            Err(e) => panic!(
                "herd connect {} to {addr}: {e}; {}",
                herd.len(),
                proc_.report()
            ),
        }
    }
    // Let it take what it can and run into the limit.
    std::thread::sleep(Duration::from_millis(500));
    let pid = proc_.child.id();
    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_seconds(pid) - before;
    assert!(
        burned < 0.05,
        "{burned} s of CPU in one second of refused accepts"
    );
    drop(herd);
    let mut client = HttpClient::new(http).with_timeout(Duration::from_secs(5));
    let metrics = client.get("/swala-metrics").unwrap();
    let metrics = String::from_utf8(metrics.body.into_vec()).unwrap();
    let errors: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("swala_http_accept_errors "))
        .expect("swala_http_accept_errors")
        .parse()
        .unwrap();
    assert!(errors >= 1, "{metrics}");
    drop(proc_);
}
