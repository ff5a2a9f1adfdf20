//! A two-node Swala cluster of real `swala` processes, driven from
//! outside: spawn, readiness, scrape, resource readings, teardown.

use crate::client::get_once;
use crate::gen::{file_content, Workload, CALLERS, FILE_MIX, ZIPF_MEM_CACHE_BYTES};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use swala_obs::{parse_exposition, Sample};

pub const NODES: usize = CALLERS;
const READY_TIMEOUT: Duration = Duration::from_secs(10);
const POLL_GAP: Duration = Duration::from_millis(1);

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sync();
    fn ioctl(fd: i32, request: u64, ...) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// A mask holding only the `slot`-th CPU this process may run on
/// (wrapping), or `None` when the allowed set cannot be read.
///
/// Node *i* and caller *i* are both pinned to slot *i*. Left to the
/// scheduler, the four to six threads of a request chain land on the two
/// cores differently from run to run, and `hit-remote` throughput swung
/// between 32 k and 72 k req/s on one commit; pinned, placement is the
/// same every time. It is deployment wiring ("one core per node"), not a
/// server knob.
fn cpu_slot(slot: usize) -> Option<CpuSet> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the pointer is to a live, writable `cpu_set_t`-sized buffer.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let cpu = *cpus.get(slot % cpus.len().max(1))?;
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    Some(mask)
}

/// Pin the calling thread to CPU slot `slot` (see [`cpu_slot`]).
pub fn pin_current_thread(slot: usize) {
    if let Some(mask) = cpu_slot(slot) {
        // SAFETY: pid 0 = this thread; the mask outlives the call.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

/// Flush dirty pages now, so write-back of what an earlier repetition
/// (or the build) wrote and deleted does not run inside the next timed
/// window. Without it `miss-insert` repetitions on one commit ranged from
/// 3.8 k to 8.2 k req/s; with it, from 3.6 k to 4.2 k.
pub fn settle_disk() {
    // SAFETY: sync(2) takes nothing and cannot fail.
    unsafe { sync() }
}

/// Set by SIGINT/SIGTERM; every loop in the runner checks it so the
/// normal teardown path (kill nodes, remove work dirs) still runs.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

pub fn install_signal_handlers() {
    // SAFETY: `on_signal` only stores to an atomic, which is
    // async-signal-safe; `signal` itself has no memory preconditions.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// `n` distinct loopback ports, found by binding to port 0 and
/// releasing. All are held at once so they cannot repeat.
pub fn free_ports(n: usize) -> io::Result<Vec<u16>> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    held.iter().map(|l| Ok(l.local_addr()?.port())).collect()
}

/// Ask the file system to spread `dir`'s sub-directories over the disk
/// (`chattr +T`) instead of packing them next to each other. Best
/// effort: a file system without the flag just refuses.
///
/// ext4 keeps a new directory's files in the block group of its parent
/// and, for up to 35 s, will not reuse an inode that was just freed
/// there: every file creation first steps over all of them. With each
/// cluster's directory created and removed side by side, creating a
/// 4 KiB file went from 20 µs to 500 µs over a few dozen repetitions,
/// and a 40 ms set-up read 40, 60 or 120 ms depending on how much had
/// just been cleaned up. As a "top" directory, `out/` gets each
/// `work-*` child in a block group of its own and the cost stays flat.
pub fn spread_subdirectories(dir: &Path) {
    const FS_IOC_GETFLAGS: u64 = 0x8008_6601;
    const FS_IOC_SETFLAGS: u64 = 0x4008_6602;
    const FS_TOPDIR_FL: i64 = 0x0002_0000;
    let Ok(handle) = std::fs::File::open(dir) else {
        return;
    };
    let fd = std::os::fd::AsRawFd::as_raw_fd(&handle);
    let mut flags: i64 = 0;
    // SAFETY: both requests take a pointer to one `long`, which `flags`
    // is for the duration of the calls; `fd` is open until `handle` drops.
    unsafe {
        if ioctl(fd, FS_IOC_GETFLAGS, &mut flags as *mut i64) == 0 && flags & FS_TOPDIR_FL == 0 {
            flags |= FS_TOPDIR_FL;
            ioctl(fd, FS_IOC_SETFLAGS, &flags as *const i64);
        }
    }
}

/// One cluster's directory, `<out>/work-<pid>-<n>/`; removed when dropped.
pub struct WorkDir(PathBuf);

static WORKDIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl WorkDir {
    pub fn create(out_dir: &Path) -> io::Result<WorkDir> {
        let seq = WORKDIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("work-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Node {
    child: Child,
    http: SocketAddr,
    cache_dir: PathBuf,
}

pub struct Cluster {
    nodes: Vec<Node>,
    docroot: PathBuf,
}

impl Cluster {
    /// Spawn both nodes and wait until each accepts HTTP and
    /// cache-protocol connections. Only deployment wiring is
    /// configured (plus `mem_cache_bytes` on `zipf-mix`): every other
    /// shipped default is what gets measured.
    pub fn start(swala_bin: &Path, work: &Path, workload: Workload) -> io::Result<Cluster> {
        let docroot = work.join("docroot");
        std::fs::create_dir_all(&docroot)?;
        // Only `zipf-mix` asks for files; elsewhere 1.6 MB of writes would
        // be most of a 40 ms set-up and a source of write-back noise.
        if workload == Workload::ZipfMix {
            for (path, size, _) in FILE_MIX {
                std::fs::write(
                    docroot.join(path.trim_start_matches('/')),
                    file_content(size),
                )?;
            }
        }
        let ports = free_ports(2 * NODES)?;
        let (http_ports, cache_ports) = ports.split_at(NODES);
        let mut cluster = Cluster {
            nodes: Vec::new(),
            docroot,
        };
        for i in 0..NODES {
            let cache_dir = work.join(format!("cache{i}"));
            std::fs::create_dir_all(&cache_dir)?;
            let mut conf = format!(
                "node {i}\nnodes {NODES}\nlisten 127.0.0.1:{}\ncache_listen 127.0.0.1:{}\n",
                http_ports[i], cache_ports[i]
            );
            for (j, port) in cache_ports.iter().enumerate() {
                if j != i {
                    conf.push_str(&format!("peer {j} 127.0.0.1:{port}\n"));
                }
            }
            conf.push_str(&format!(
                "cache_dir {}\ndocroot {}\nfsync off\n",
                cache_dir.display(),
                cluster.docroot.display()
            ));
            if workload == Workload::ZipfMix {
                conf.push_str(&format!("mem_cache_bytes {ZIPF_MEM_CACHE_BYTES}\n"));
            }
            let conf_path = work.join(format!("node{i}.conf"));
            std::fs::write(&conf_path, conf)?;
            let log = std::fs::File::create(work.join(format!("node{i}.log")))?;
            let mut cmd = Command::new(swala_bin);
            cmd.arg(&conf_path)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log);
            let mask = cpu_slot(i);
            // SAFETY: the closure runs between fork and exec and makes two
            // async-signal-safe syscalls, touching only its captured copy
            // of the mask. The first ties the node's life to this process,
            // so a killed harness leaves no node behind.
            unsafe {
                cmd.pre_exec(move || {
                    if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) != 0 {
                        return Err(io::Error::last_os_error());
                    }
                    if let Some(mask) = &mask {
                        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask);
                    }
                    Ok(())
                });
            }
            // Pushed before readiness is known, so Drop reaps it either way.
            cluster.nodes.push(Node {
                child: cmd.spawn()?,
                http: SocketAddr::from(([127, 0, 0, 1], http_ports[i])),
                cache_dir,
            });
        }
        let deadline = Instant::now() + READY_TIMEOUT;
        for (i, cache_port) in cache_ports.iter().enumerate() {
            let cache_addr = SocketAddr::from(([127, 0, 0, 1], *cache_port));
            for addr in [cluster.nodes[i].http, cache_addr] {
                cluster.wait_accepting(i, addr, deadline)?;
            }
        }
        Ok(cluster)
    }

    fn wait_accepting(
        &mut self,
        node: usize,
        addr: SocketAddr,
        deadline: Instant,
    ) -> io::Result<()> {
        loop {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                return Ok(());
            }
            if let Some(status) = self.nodes[node].child.try_wait()? {
                return Err(io::Error::other(format!(
                    "node {node} exited during start-up ({status})"
                )));
            }
            if Instant::now() >= deadline || interrupted() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("node {node} not accepting on {addr}"),
                ));
            }
            std::thread::sleep(POLL_GAP);
        }
    }

    pub fn http_addr(&self, node: usize) -> SocketAddr {
        self.nodes[node].http
    }

    pub fn docroot(&self) -> &Path {
        &self.docroot
    }

    /// `/swala-metrics` of one node, parsed.
    pub fn scrape(&self, node: usize) -> io::Result<Vec<Sample>> {
        let body = get_once(self.nodes[node].http, "/swala-metrics")?;
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "metrics not utf-8"))?;
        parse_exposition(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One scrape per node, in node order.
    pub fn scrape_all(&self) -> io::Result<Vec<Vec<Sample>>> {
        (0..NODES).map(|node| self.scrape(node)).collect()
    }

    /// Poll both nodes' metrics until `done` holds, or time out.
    pub fn wait_until(
        &self,
        what: &str,
        mut done: impl FnMut(&[Vec<Sample>]) -> bool,
    ) -> io::Result<()> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if done(&self.scrape_all()?) {
                return Ok(());
            }
            if Instant::now() >= deadline || interrupted() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{what} not reached"),
                ));
            }
            std::thread::sleep(POLL_GAP);
        }
    }

    /// User + system CPU seconds consumed so far by both node processes.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ticks = 0u64;
        for n in &self.nodes {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", n.child.id()))?;
            ticks += parse_stat_ticks(&stat).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "unparseable /proc stat")
            })?;
        }
        Ok(ticks as f64 / clock_ticks_per_second())
    }

    /// Sum of both nodes' peak resident set sizes, MiB.
    pub fn rss_hwm_mib(&self) -> io::Result<f64> {
        let mut kib = 0u64;
        for n in &self.nodes {
            let status = std::fs::read_to_string(format!("/proc/{}/status", n.child.id()))?;
            kib += parse_status_kib(&status, "VmHWM:").ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status")
            })?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// Bytes under both nodes' cache directories.
    pub fn disk_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| dir_bytes(&n.cache_dir)).sum()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for n in &mut self.nodes {
            let _ = n.child.kill();
        }
        for n in &mut self.nodes {
            let _ = n.child.wait();
        }
    }
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name may contain spaces, so fields count from the last `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            // A file evicted between listing and stat.
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ports_are_distinct_and_bindable() {
        let ports = free_ports(4).unwrap();
        let mut unique = ports.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        for p in ports {
            TcpListener::bind(("127.0.0.1", p)).unwrap();
        }
    }

    #[test]
    fn cpu_slots_name_one_allowed_cpu_each() {
        let bits = |m: CpuSet| m.iter().map(|w| w.count_ones()).sum::<u32>();
        let (a, b) = (cpu_slot(0).unwrap(), cpu_slot(1).unwrap());
        assert_eq!((bits(a), bits(b)), (1, 1));
        // Slots wrap, so any index is usable on any host.
        assert_eq!(bits(cpu_slot(1000).unwrap()), 1);
        if std::thread::available_parallelism().unwrap().get() >= 2 {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn proc_parsers() {
        let stat =
            "4242 (swala (x) y) S 1 4242 4242 0 -1 4194304 500 0 0 0 37 5 0 0 20 0 19 0 100 1 2";
        assert_eq!(parse_stat_ticks(stat), Some(42));
        let status = "Name:\tswala\nVmPeak:\t  999 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(5120));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
    }
}
