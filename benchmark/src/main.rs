//! `swala-benchmark`: four live-cluster workloads, end-to-end metrics
//! with tracing off, and a traced run for the per-layer numbers.
//!
//! ```text
//! swala-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! swala-benchmark compare A.json B.json
//! swala-benchmark calibrate [--sets N] [--seed N] [--seconds S]
//! ```
//!
//! Normally started through `benchmark/run.sh`, which builds the `swala`
//! node binary and passes `--swala-bin`, `--out-dir` and `--spec`.

mod client;
mod cluster;
mod expo;
mod gen;
mod json;
mod load;
mod probe;
mod report;
mod run;
mod spans;
mod spec;

use gen::Workload;
use load::Env;
use report::{RunInfo, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// Repetitions per workload; every reported value is their median.
const REPS: u32 = 5;
/// Timed seconds per repetition of a `--quick` (schema-check) run.
const QUICK_REP_SECONDS: f64 = 2.0;

struct Args {
    swala_bin: PathBuf,
    out_dir: PathBuf,
    spec: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: usize,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        swala_bin: PathBuf::new(),
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        sets: 5,
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--swala-bin" => out.swala_bin = value("a path")?.into(),
            "--out-dir" => out.out_dir = value("a path")?.into(),
            "--spec" => out.spec = value("a path")?.into(),
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--sets" => out.sets = value("a number")?.parse().map_err(|_| "bad --sets")?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => out.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => out.files.push(file.into()),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if !c.starts_with("--") => (c.as_str(), rest),
        _ => ("run", argv.as_slice()),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swala-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "run" => run_command(&args),
        "compare" => match args.files.as_slice() {
            [a, b] => report::compare(&args.spec, a, b).map(|bad| !bad),
            _ => Err("usage: swala-benchmark compare A.json B.json".into()),
        },
        "calibrate" => calibrate_command(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("swala-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn env_of(args: &Args) -> Result<Env, String> {
    if !args.swala_bin.is_file() {
        return Err(format!(
            "--swala-bin {:?} is not a file (use benchmark/run.sh, which builds it)",
            args.swala_bin
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    cluster::spread_subdirectories(&args.out_dir);
    Ok(Env {
        swala_bin: args.swala_bin.clone(),
        out_dir: args.out_dir.clone(),
    })
}

/// Total timed seconds per workload: `--seconds`, else the spec's
/// `run_seconds`; a quick run shortens the repetition, not the list.
fn seconds_of(args: &Args) -> Result<f64, String> {
    if args.quick {
        return Ok(QUICK_REP_SECONDS * REPS as f64);
    }
    args.seconds
        .or_else(|| report::Bounds::run_seconds(&args.spec))
        .ok_or_else(|| format!("no --seconds and no run_seconds in {}", args.spec.display()))
}

/// One pass over `workloads` per repetition, so host drift spreads
/// evenly over them; then the traced runs, if asked for.
fn run_set(
    env: &Env,
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    end_to_end: bool,
    traced: bool,
) -> Vec<WorkloadResult> {
    let mut reps: Vec<Vec<run::Outcome>> = workloads.iter().map(|_| Vec::new()).collect();
    if end_to_end {
        for rep in 0..REPS {
            for (i, w) in workloads.iter().enumerate() {
                if cluster::interrupted() {
                    break;
                }
                eprintln!("# {} repetition {}/{REPS}", w.name(), rep + 1);
                reps[i].push(run::run_rep(env, *w, seed, rep, seconds / REPS as f64));
            }
        }
    }
    workloads
        .iter()
        .zip(reps)
        .map(|(w, reps)| {
            let mut result = WorkloadResult::from_reps(w.name(), &reps);
            if traced && !cluster::interrupted() {
                eprintln!("# {} traced run", w.name());
                let outcome = run::run_traced(env, *w, seed, seconds);
                if end_to_end {
                    result.add_single(outcome);
                } else {
                    result = WorkloadResult::from_reps(w.name(), &[outcome]);
                }
            }
            result
        })
        .collect()
}

fn run_command(args: &Args) -> Result<bool, String> {
    cluster::install_signal_handlers();
    let env = env_of(args)?;
    let seconds = seconds_of(args)?;
    let info = RunInfo {
        seed: args.seed,
        seconds,
        quick: args.quick,
        traced: args.trace,
    };
    let results = match args.workload {
        // Driver contract: one workload; end-to-end metrics with tracing
        // off, or per-layer metrics from the traced run.
        Some(w) => run_set(&env, &[w], args.seed, seconds, !args.trace, args.trace),
        None => run_set(&env, &Workload::ALL, args.seed, seconds, true, args.trace),
    };
    if cluster::interrupted() {
        return Err("interrupted".into());
    }
    for r in &results {
        r.print();
    }
    if let Err(e) = report::append_history(&env.out_dir, &info, &results) {
        eprintln!("swala-benchmark: history not written: {e}");
    }
    let all_correct = results.iter().all(|r| r.correct);
    match args.workload {
        Some(_) => {
            let defs = if args.trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            println!("{}", results[0].contract_json(defs).render());
        }
        None => {
            let doc = report::result_json(&info, &results).render();
            let name = if args.quick {
                "quick.json"
            } else {
                "latest.json"
            };
            std::fs::write(env.out_dir.join(name), format!("{doc}\n"))
                .map_err(|e| format!("writing result: {e}"))?;
            println!("{doc}");
        }
    }
    Ok(all_correct)
}

/// `calibrate`: N full sets on this commit → spread table in the README.
fn calibrate_command(args: &Args) -> Result<bool, String> {
    cluster::install_signal_handlers();
    let env = env_of(args)?;
    let seconds = seconds_of(args)?;
    let mut sets = Vec::new();
    for n in 0..args.sets {
        eprintln!("# calibration set {}/{}", n + 1, args.sets);
        let results = run_set(&env, &Workload::ALL, args.seed, seconds, true, false);
        if cluster::interrupted() {
            return Err("interrupted".into());
        }
        if let Some(bad) = results.iter().find(|r| !r.correct) {
            return Err(format!("{} was not correct: {:?}", bad.name, bad.problems));
        }
        sets.push(results);
    }
    let table = report::calibration_table(&sets);
    println!("{table}");
    let readme = args
        .spec
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("benchmark/README.md");
    report::write_calibration(&readme, &table).map_err(|e| format!("{}: {e}", readme.display()))?;
    Ok(true)
}
