#!/usr/bin/env bash
# The benchmark's one command. Builds the `swala` node binary from the
# repository's own workspace (release profile, as shipped) and the
# harness from benchmark/, then runs it from the repository root.
#
#   benchmark/run.sh                     every workload, end-to-end metrics
#   benchmark/run.sh --trace             ... plus the per-layer traced run
#   benchmark/run.sh --quick             2-s repetitions, schema check only
#   benchmark/run.sh --selftest          the harness's own tests
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh calibrate [--sets 5]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one workload, last stdout line is
#                                        the driver's result object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both workspaces; relative paths are taken
# from the repository root.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p swala --bin swala 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

if [[ "${1:-}" == "--selftest" ]]; then
    exec cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi

# Default node configuration only: no SWALA_* default override leaks in.
unset SWALA_ENGINE SWALA_DIRECTORY SWALA_STORE SWALA_BENCH_QUICK

exec "$target/release/swala-benchmark" "$@" \
    --swala-bin "$target/release/swala" \
    --out-dir "$root/benchmark/out" \
    --spec "$root/BENCHMARK.json"
