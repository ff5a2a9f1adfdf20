//! CPU time of this process's threads, by role.
//!
//! Every thread Swala spawns is named for what it does
//! (`swala-request-3`, `swala-notice-writer`, `swala-cacher-5`, …), and
//! the kernel accounts user and system time per thread in
//! `/proc/self/task/<tid>/stat`. Summing those by name answers "which
//! plane is the CPU going to" — the request threads, the notice writers,
//! the cache port's threads — from the running node, where before it
//! took a shell loop over `/proc/<pid>/task/*/stat` beside the benchmark.
//!
//! Read on request only (`GET /swala-threads`): nothing is sampled in the
//! background and the request path pays nothing. The kernel drops a
//! thread's entry when it exits, so a role's figure covers its *live*
//! threads: it only rises while they run, and falls when one ends (a
//! broadcaster shutting down takes its `swala-notice-writer`s with it).

use std::collections::BTreeMap;
use std::io;

/// Bytes of a thread name the kernel keeps.
const COMM_LEN: usize = 15;

/// Full names of the roles whose kernel-visible name is cut short:
/// `swala-notice-writer` reads back as `swala-notice-wr`.
const LONG_ROLES: &[&str] = &[
    "swala-notice-writer",
    "swala-cache-purge",
    "swala-source-monitor",
];

/// What one role's live threads have consumed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleCpu {
    pub threads: u32,
    pub user_s: f64,
    pub system_s: f64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
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

/// Thread name, utime and stime (clock ticks) of one
/// `/proc/<pid>/task/<tid>/stat` line. The name sits in parentheses and
/// may itself hold spaces or parentheses, so fields count from the last
/// `)`.
fn parse_stat(stat: &str) -> Option<(&str, u64, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?;
    let mut fields = stat[close + 1..].split_whitespace();
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((name, utime, stime))
}

/// The role a kernel-visible thread name stands for: the pool index is
/// dropped (`swala-request-3` → `swala-request`) and a truncated name is
/// completed. Names Swala did not set (the main thread's) pass through.
fn role_of(name: &str) -> &str {
    let stem = match name.rsplit_once('-') {
        Some((stem, index)) if !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) => {
            stem
        }
        _ => name,
    };
    LONG_ROLES
        .iter()
        .find(|full| stem.len() == COMM_LEN && full.starts_with(stem))
        .copied()
        .unwrap_or(stem)
}

/// User and system CPU seconds of this process's live threads, summed by
/// role, in role order.
pub fn cpu_by_role() -> io::Result<BTreeMap<String, RoleCpu>> {
    let hz = clock_ticks_per_second();
    let mut roles: BTreeMap<String, RoleCpu> = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task")? {
        // A thread that exits between the listing and the read is
        // skipped, like one that exited just before.
        let Ok(stat) = std::fs::read_to_string(task?.path().join("stat")) else {
            continue;
        };
        let Some((name, utime, stime)) = parse_stat(&stat) else {
            continue;
        };
        let role = roles.entry(role_of(name).to_string()).or_default();
        role.threads += 1;
        role.user_s += utime as f64 / hz;
        role.system_s += stime as f64 / hz;
    }
    Ok(roles)
}

/// `roles` in Prometheus text exposition format.
pub fn render(roles: &BTreeMap<String, RoleCpu>) -> String {
    let mut out = String::from(
        "# HELP swala_thread_cpu_seconds CPU seconds consumed by this node's live threads, by thread role\n\
         # TYPE swala_thread_cpu_seconds counter\n",
    );
    // A thread Swala did not name may be called anything.
    let roles: Vec<(String, &RoleCpu)> = roles
        .iter()
        .map(|(role, cpu)| (swala_obs::escape_label_value(role), cpu))
        .collect();
    for (role, cpu) in &roles {
        for (mode, seconds) in [("user", cpu.user_s), ("system", cpu.system_s)] {
            out.push_str(&format!(
                "swala_thread_cpu_seconds{{role=\"{role}\",mode=\"{mode}\"}} {seconds:.2}\n"
            ));
        }
    }
    out.push_str("# HELP swala_threads Live threads, by thread role\n# TYPE swala_threads gauge\n");
    for (role, cpu) in &roles {
        out.push_str(&format!(
            "swala_threads{{role=\"{role}\"}} {}\n",
            cpu.threads
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (swala (odd) name) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                    37 12 0 0 20 0 9 0 1234 1000000 500 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("swala (odd) name", 37, 12)));
        assert_eq!(parse_stat("4242 (cut short) S 1 2"), None);
        assert_eq!(parse_stat("no parentheses"), None);
    }

    #[test]
    fn roles_drop_the_pool_index_and_complete_truncated_names() {
        assert_eq!(role_of("swala-request-3"), "swala-request");
        // Sixteen request threads: index 12 is cut to its first digit.
        assert_eq!(role_of("swala-request-1"), "swala-request");
        assert_eq!(role_of("swala-notice-wr"), "swala-notice-writer");
        assert_eq!(role_of("swala-cache-pur"), "swala-cache-purge");
        // A hundred cache-port threads: index 123 is cut to its first two.
        assert_eq!(role_of("swala-cacher-12"), "swala-cacher");
        assert_eq!(role_of("swala-source-mo"), "swala-source-monitor");
        // Not ours: unchanged, digits and all.
        assert_eq!(role_of("swala"), "swala");
        assert_eq!(role_of("enterprise-pool"), "enterprise-pool");
        assert_eq!(role_of("worker2"), "worker2");
    }

    #[test]
    fn this_process_has_threads_and_renders_them() {
        let handle = std::thread::Builder::new()
            .name("swala-notice-writer".into())
            .spawn(|| {
                let roles = cpu_by_role().unwrap();
                assert!(roles["swala-notice-writer"].threads >= 1, "{roles:?}");
                roles
            })
            .unwrap();
        let roles = handle.join().unwrap();
        let text = render(&roles);
        let samples = swala_obs::parse_exposition(&text).expect("well-formed exposition");
        assert!(samples.iter().any(|s| s.name == "swala_threads"
            && s.labels == [("role".to_string(), "swala-notice-writer".to_string())]
            && s.value >= 1.0));
    }
}
