//! Turning repetitions into results: median of repetitions, the result
//! and history files, `compare` and `calibrate`.

use crate::json::Json;
use crate::run::Outcome;
use crate::spec::{unit_of, Better, MetricDef, END_TO_END};
use std::io::{self, Write};
use std::path::Path;

/// Median of a few floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One metric of one workload: the median over its repetitions and the
/// values it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub reps: Vec<f64>,
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn from_reps(name: &'static str, reps: &[Outcome]) -> WorkloadResult {
        let mut metrics: Vec<Metric> = Vec::new();
        for rep in reps {
            for (i, (name, value)) in rep.metrics.iter().enumerate() {
                if metrics.len() <= i {
                    metrics.push(Metric {
                        name,
                        value: 0.0,
                        reps: Vec::new(),
                    });
                }
                metrics[i].reps.push(*value);
            }
        }
        for m in &mut metrics {
            m.value = median(&m.reps);
        }
        let problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
        let failed = reps.iter().map(|r| r.failed).sum();
        WorkloadResult {
            name,
            correct: problems.is_empty() && failed == 0 && !metrics.is_empty(),
            attempted: reps.iter().map(|r| r.attempted).sum(),
            failed,
            problems,
            metrics,
        }
    }

    /// Fold a traced run's per-layer values in (each is its own "median").
    pub fn add_single(&mut self, traced: Outcome) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        self.correct &= traced.problems.is_empty() && traced.failed == 0;
        self.problems.extend(traced.problems);
        self.metrics
            .extend(traced.metrics.into_iter().map(|(name, value)| Metric {
                name,
                value,
                reps: vec![value],
            }));
    }

    pub fn print(&self) {
        println!(
            "{}: attempted {} failed {} correct {}",
            self.name, self.attempted, self.failed, self.correct
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        for Metric { name, value, reps } in &self.metrics {
            let detail = if reps.len() > 1 {
                let r: Vec<String> = reps.iter().map(|v| format!("{v:.3}")).collect();
                format!("   (median of {})", r.join(", "))
            } else {
                String::new()
            };
            println!("  {name:<34} {value:>14.3} {}{detail}", unit_of(name));
        }
    }

    /// The driver contract's result object: every metric of `defs`,
    /// reading 0 when the cluster never produced it.
    pub fn contract_json(&self, defs: &[MetricDef]) -> Json {
        let value_of = |name: &str| {
            self.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    defs.iter()
                        .map(|d| {
                            (
                                d.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(value_of(d.name))),
                                    ("unit", Json::str(d.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn file_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "error_rate",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|Metric { name, value, reps }| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(unit_of(name))),
                                    (
                                        "reps",
                                        Json::Arr(reps.iter().map(|v| Json::Num(*v)).collect()),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What identifies a run in the result and history files.
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// `nproc`, kernel, load average: enough to tell two hosts (or a busy
/// and an idle one) apart when reading the history.
fn host_json() -> Json {
    let load: Vec<Json> = read_trimmed("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .filter_map(|v| v.parse().ok())
        .map(Json::Num)
        .collect();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("loadavg", Json::Arr(load)),
    ])
}

/// Commit of the checkout the benchmark runs in; "unknown" outside git.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn header(info: &RunInfo) -> Vec<(&'static str, Json)> {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    vec![
        ("unix_time", Json::Num(now as f64)),
        ("commit", Json::Str(commit())),
        ("host", host_json()),
        ("seed", Json::Num(info.seed as f64)),
        ("seconds", Json::Num(info.seconds)),
        ("quick", Json::Bool(info.quick)),
        ("traced", Json::Bool(info.traced)),
    ]
}

/// The full-set result document. Ends with `"claim": null`: this
/// benchmark measures, it does not claim.
pub fn result_json(info: &RunInfo, results: &[WorkloadResult]) -> Json {
    let mut pairs = header(info);
    pairs.push((
        "workloads",
        Json::Obj(
            results
                .iter()
                .map(|r| (r.name.to_string(), r.file_json()))
                .collect(),
        ),
    ));
    pairs.push(("claim", Json::Null));
    Json::obj(pairs)
}

/// Append one line per workload to `history.jsonl`, so results
/// accumulate as a trajectory.
pub fn append_history(
    out_dir: &Path,
    info: &RunInfo,
    results: &[WorkloadResult],
) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("history.jsonl"))?;
    for r in results {
        let mut pairs = header(info);
        pairs.push(("workload", Json::str(r.name)));
        pairs.push(("correct", Json::Bool(r.correct)));
        pairs.push(("attempted", Json::Num(r.attempted as f64)));
        pairs.push(("failed", Json::Num(r.failed as f64)));
        pairs.push((
            "values",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::Num(m.value)))
                    .collect(),
            ),
        ));
        writeln!(file, "{}", Json::obj(pairs).render())?;
    }
    Ok(())
}

/// Regression bounds by end-to-end metric, from `BENCHMARK.json`.
pub struct Bounds(Vec<(String, f64, Better)>);

impl Bounds {
    pub fn load(spec_path: &Path) -> Result<Bounds, String> {
        let text = std::fs::read_to_string(spec_path)
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
        let list = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json has no end_to_end list")?;
        let mut out = Vec::new();
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let def = END_TO_END
                .iter()
                .find(|d| d.name == name)
                .ok_or_else(|| format!("{name}: not a metric this binary reports"))?;
            out.push((name.to_string(), bound, def.better));
        }
        Ok(Bounds(out))
    }

    pub fn run_seconds(spec_path: &Path) -> Option<f64> {
        let text = std::fs::read_to_string(spec_path).ok()?;
        Json::parse(&text).ok()?.get("run_seconds")?.as_f64()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the PR driver computes over its ten runs
/// (quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them). 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

/// The wider of the two sides' repetition spreads.
fn observed_spread(sides: [&[f64]; 2]) -> f64 {
    sides
        .iter()
        .map(|reps| quartile_spread(reps))
        .fold(0.0, f64::max)
}

/// `worse` = how much B is worse than A as a share of A (negative =
/// better). A change counts only when it exceeds both the bound and
/// the spread the repetitions themselves showed; when the spread is
/// wider than the bound and hides the change, the row is unresolved.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let rel = (b - a) / a.abs();
    let worse = match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    };
    if worse > bound && worse > spread {
        Verdict::Worse
    } else if -worse > bound && -worse > spread {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn load_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    refuse_quick(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

fn refuse_quick(doc: &Json) -> Result<(), String> {
    match doc.get("quick").and_then(Json::as_bool) {
        Some(false) => Ok(()),
        _ => Err("quick runs only check the schema; compare refuses them".to_string()),
    }
}

fn metric_of(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let reps = m
        .get("reps")
        .and_then(Json::as_arr)
        .map(|r| r.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, reps))
}

/// `compare A.json B.json`: one row per (metric, workload). Returns
/// whether any row is `worse` or any side had failures.
pub fn compare(spec_path: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bounds = Bounds::load(spec_path)?;
    let (a, b) = (load_result(a_path)?, load_result(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "metric", "workload", "A", "B", "change", "spread", "bound"
    );
    let mut bad = false;
    for (metric, bound, better) in &bounds.0 {
        for (workload, _) in workloads {
            let (Some((va, ra)), Some((vb, rb))) = (
                metric_of(&a, workload, metric),
                metric_of(&b, workload, metric),
            ) else {
                println!("{metric:<16} {workload:<12} missing on one side");
                bad = true;
                continue;
            };
            let spread = observed_spread([&ra, &rb]);
            let v = verdict(va, vb, *better, *bound, spread);
            bad |= v == Verdict::Worse;
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            println!(
                "{metric:<16} {workload:<12} {va:>14.3} {vb:>14.3} {:>+8.1}% {:>7.1}% {:>7.1}%  {}",
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    for (label, doc) in [("A", &a), ("B", &b)] {
        for (workload, r) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            let rate = r.get("error_rate").and_then(Json::as_f64).unwrap_or(1.0);
            println!("error_rate       {workload:<12} {label}: {rate}");
            bad |= rate != 0.0;
        }
    }
    Ok(bad)
}

/// Spread table of `calibrate`: (max − min) ÷ median of each metric's
/// set medians, and the bound the calibration rule derives from it.
pub fn calibration_table(sets: &[Vec<WorkloadResult>]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Spread = (third − first quartile) ÷ median of the {} set medians; rule = max(10 %, 3 × largest spread), capped at 25 %.\n\n",
        sets.len()
    ));
    let workloads: Vec<&str> = sets[0].iter().map(|r| r.name).collect();
    out.push_str(&format!("| metric | {} | rule |\n", workloads.join(" | ")));
    out.push_str(&format!("|---|{}---|\n", "---|".repeat(workloads.len())));
    for def in END_TO_END {
        let mut row = format!("| `{}` |", def.name);
        let mut largest: f64 = 0.0;
        for w in &workloads {
            let medians: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.iter().find(|r| r.name == *w))
                .filter_map(|r| r.metrics.iter().find(|m| m.name == def.name))
                .map(|m| m.value)
                .collect();
            let spread = quartile_spread(&medians);
            largest = largest.max(spread);
            row.push_str(&format!(" {:.1} % |", spread * 100.0));
        }
        row.push_str(&format!(
            " {:.0} % |\n",
            (largest * 3.0).clamp(0.10, 0.25) * 100.0
        ));
        out.push_str(&row);
    }
    out
}

/// Replace the text between the calibration markers in the README.
pub fn write_calibration(readme: &Path, table: &str) -> io::Result<()> {
    const BEGIN: &str = "<!-- calibration:begin -->";
    const END: &str = "<!-- calibration:end -->";
    let text = std::fs::read_to_string(readme)?;
    let (Some(b), Some(e)) = (text.find(BEGIN), text.find(END)) else {
        return Err(io::Error::other("README has no calibration markers"));
    };
    let new = format!("{}\n{}{}", &text[..b + BEGIN.len()], table, &text[e..]);
    std::fs::write(readme, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn outcome(tp: f64, failed: u64) -> Outcome {
        Outcome {
            metrics: vec![("throughput_rps", tp), ("lat_mean_us", 1000.0 / tp)],
            attempted: 100,
            failed,
            problems: Vec::new(),
        }
    }

    #[test]
    fn workload_result_takes_the_median_repetition() {
        let r = WorkloadResult::from_reps(
            "hit-local",
            &[outcome(90.0, 0), outcome(110.0, 0), outcome(100.0, 0)],
        );
        assert!(r.correct);
        assert_eq!(r.attempted, 300);
        assert_eq!(
            r.metrics[0],
            Metric {
                name: "throughput_rps",
                value: 100.0,
                reps: vec![90.0, 110.0, 100.0]
            }
        );
        assert_eq!(r.metrics[1].value, 10.0);
        let bad = WorkloadResult::from_reps("hit-local", &[outcome(90.0, 1), outcome(110.0, 0)]);
        assert!(!bad.correct);
        assert_eq!(bad.failed, 1);
    }

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        use Better::*;
        // Lower is better: +12 % is worse than a 10 % bound, -12 % better.
        assert_eq!(verdict(100.0, 112.0, Lower, 0.10, 0.03), Verdict::Worse);
        assert_eq!(verdict(100.0, 88.0, Lower, 0.10, 0.03), Verdict::Better);
        assert_eq!(verdict(100.0, 105.0, Lower, 0.10, 0.03), Verdict::Within);
        // Higher is better flips the sign.
        assert_eq!(verdict(100.0, 88.0, Higher, 0.10, 0.03), Verdict::Worse);
        assert_eq!(verdict(100.0, 112.0, Higher, 0.10, 0.03), Verdict::Better);
        // Spread wider than the bound hides a change of that size…
        assert_eq!(
            verdict(100.0, 112.0, Lower, 0.10, 0.20),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 101.0, Lower, 0.10, 0.20),
            Verdict::Unresolved
        );
        // …but not one that exceeds the spread too.
        assert_eq!(verdict(100.0, 130.0, Lower, 0.10, 0.20), Verdict::Worse);
    }

    #[test]
    fn spread_is_the_drivers_quartile_spread() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        // statistics.quantiles([90, 100, 110], n=4) == [90, 100, 110]
        assert_eq!(quartile_spread(&[90.0, 100.0, 110.0]), 0.2);
        // ... of range(1, 11) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 1.0);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(
            observed_spread([&[90.0, 100.0, 110.0], &[100.0, 100.0, 100.0]]),
            0.2
        );
    }

    #[test]
    fn compare_refuses_quick_results() {
        let quick = Json::parse(r#"{"quick": true, "workloads": {}}"#).unwrap();
        assert!(refuse_quick(&quick).unwrap_err().contains("quick"));
        let unstamped = Json::parse(r#"{"workloads": {}}"#).unwrap();
        assert!(refuse_quick(&unstamped).is_err());
        let full = Json::parse(r#"{"quick": false, "workloads": {}}"#).unwrap();
        assert!(refuse_quick(&full).is_ok());
    }
}
