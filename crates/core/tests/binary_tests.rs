//! Tests for the `swala` binary: config handling and a real two-process
//! deployment exchanging cache entries over the wire.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use swala::HttpClient;

const BIN: &str = env!("CARGO_BIN_EXE_swala");

struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_node(config: &str, tag: &str) -> (Proc, std::net::SocketAddr, std::net::SocketAddr) {
    spawn_node_under(config, tag, "")
}

/// Start the binary — after `setup`, a shell command such as `ulimit` —
/// and parse "http on <addr>, cache protocol on <addr>" from its stderr
/// banner.
fn spawn_node_under(
    config: &str,
    tag: &str,
    setup: &str,
) -> (Proc, std::net::SocketAddr, std::net::SocketAddr) {
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
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner line");
    // "swala nodeN: http on 127.0.0.1:PORT, cache protocol on 127.0.0.1:PORT"
    let http = line
        .split("http on ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparsable banner: {line:?}"));
    let cache = line
        .split("cache protocol on ")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparsable banner: {line:?}"));
    // Drain remaining stderr in the background so the child never blocks.
    std::thread::spawn(move || for _ in reader.lines() {});
    (Proc(child), http, cache)
}

#[test]
fn binary_serves_requests_from_config() {
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
    let port1 = free_port();
    let (p0, http0, cache0) = spawn_node(
        &format!(
            "node 0\nnodes 2\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:0\npool 2\n\
             peer 1 127.0.0.1:{port1}\ncache /cgi-bin/*\n{extra}"
        ),
        &format!("{tag}0"),
    );
    let (p1, http1, _cache1) = spawn_node(
        &format!(
            "node 1\nnodes 2\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:{port1}\npool 2\n\
             peer 0 {cache0}\ncache /cgi-bin/*\n{extra}"
        ),
        &format!("{tag}1"),
    );
    ([p0, p1], [http0, http1])
}

#[test]
fn two_binary_processes_cooperate() {
    let (procs, [http0, http1]) = spawn_pair("pair", "");

    // Warm node 0; its insert broadcast reaches node 1's directory, and
    // node 1 serves the request as a remote fetch over real process
    // boundaries.
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
        assert!(Instant::now() < deadline, "never observed a remote hit");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        r1.body, expect.body,
        "remote fetch returns node 0's exact bytes"
    );
    drop(procs);
}

/// `/swala-threads` on a node process of its own: every role is there
/// with the thread count the configuration implies, no role's CPU time
/// goes backwards between scrapes, and work done on request threads
/// shows up under `swala-request`.
#[test]
fn threads_page_sums_cpu_by_role() {
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
        if roles.get("swala-cache-conn").is_some_and(|r| r.0 >= 1.0) {
            break roles;
        }
        assert!(Instant::now() < deadline, "peer never connected: {roles:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(first["swala-request"].0, 2.0, "pool 2: {first:?}");
    assert_eq!(first["swala-notice-writer"].0, 1.0, "one peer: {first:?}");
    for role in ["swala-cache-accept", "swala-cache-purge", "swala"] {
        assert_eq!(first[role].0, 1.0, "{role}: {first:?}");
    }
    // 200 ms of CGI spinning on node 0's request threads.
    for i in 0..20 {
        c0.get(&format!("/cgi-bin/adl?id={}&ms=10", 100 + i))
            .unwrap();
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
/// readable: the pool pauses a tick per failure instead of spinning,
/// counts it, and serves again once descriptors are back.
#[test]
fn a_failing_accept_pauses_instead_of_spinning() {
    let (proc_, http, _) = spawn_node_under(
        "node 0\nnodes 1\nlisten 127.0.0.1:0\ncache_listen 127.0.0.1:0\npool 2\n",
        "emfile",
        "ulimit -n 40",
    );
    // More connections than the node has descriptors left: the kernel
    // completes the handshakes, the node's accept() runs dry.
    let herd: Vec<_> = (0..64)
        .map(|_| std::net::TcpStream::connect(http).unwrap())
        .collect();
    // Let it take what it can and run into the limit.
    std::thread::sleep(Duration::from_millis(500));
    let pid = proc_.0.id();
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
