//! Regenerate the paper's tables and figures.
//!
//! ```text
//! tables                 # run everything, in paper order
//! tables table5 fig3     # run specific experiments
//! tables --list          # list experiment ids
//! ```
//!
//! Environment:
//! * `SWALA_BENCH_SCALE_MS` — live milliseconds per paper second (default 15)
//! * `SWALA_BENCH_QUICK=1`  — smaller request counts, same shapes

use swala_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<&str> = experiments::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for id in &all {
            println!("{id}");
        }
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: tables [--list] [EXPERIMENT-ID ...]");
        println!("ids: {}", all.join(", "));
        return;
    }
    let ids: Vec<&str> = if args.is_empty() {
        all
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut failed = false;
    for id in ids {
        match experiments::run(id) {
            Some(report) => {
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
