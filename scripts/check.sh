#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order.
set -euo pipefail
cd "$(dirname "$0")/.."

# Announce a step, after printing how long the previous one took (bash's
# SECONDS), so one run gives the wall time of every step and the total.
step() {
    if [[ -n "${step_name:-}" ]]; then
        echo "    ${step_name}: $((SECONDS - step_started)) s"
    fi
    step_name=$1
    step_started=$SECONDS
    echo "==> $1"
}

step "cargo build --release --workspace"
# --workspace matters here too: the root package does not depend on
# swala-bench, so a bare build never produces the tables/c10k binaries
# the smoke steps below run.
cargo build --release --workspace

step "cargo test -q --workspace"
# --workspace matters: a bare `cargo test -q` runs only the root
# package's suites and silently skips every crates/* unit test.
cargo test -q --workspace

step "eviction-index equivalence (victim_index, 2048 cases, pinned seed)"
# The victim index must evict exactly what the O(capacity) scan would,
# for all five policies. Same seed every run so a failure replays;
# the nightly CI job runs 10x the cases on other seeds.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test victim_index

step "paced notice plane (pacing tests + apply_remote_batch equivalence, pinned seed)"
# Counter-based: idle links send at once, busy links batch without a
# wake-up, a loaded link's hold ramps 500 us -> 4 ms (one frame per hold)
# and starts over once the link parks, flush/shutdown cut a maximum hold
# short, a reconnect backoff is a hold, overflow still drops oldest.
# Then the batched directory apply against the per-notice calls it
# replaces on the receive side — cut anywhere, and as whole frames of
# 256 and 1024 updates — 2048 cases on the same pinned seed.
cargo test -q --release -p swala-proto --lib peers::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test remote_batch

step "one placement rule (Placement proptest + announce routing, pinned seed)"
# Replicated homes are every member, partitioned homes the ring
# successor, and a node's miss is authoritative exactly at a key's home
# (2048 cases, pinned seed); then every announced notice reaches exactly
# the key's other homes, in order, under both directory organizations.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test placement
cargo test -q --release -p swala-proto --lib daemon::tests::announce_reaches_exactly_the_other_homes

step "request path at the syscall floor (reader, request loop, allocation budget; release)"
# Counter-based, no clocks: one read per request / frame, idle vs stall,
# every split point against read_frame / try_parse_request as oracles
# (2048 cases, pinned seed), and allocations per warm local hit.
cargo test -q --release -p swala-proto --lib reader::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-proto --test proptests patient_reader
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala --lib pool::
cargo test -q --release -p swala --test alloc_budget

step "benchmark harness builds against the workspace (benchmark/run.sh --selftest)"
# benchmark/ is a workspace of its own calling http/proto/cache/cgi/core
# functions by name; nothing else compiles it, so a signature change
# there would otherwise break the benchmark silently.
benchmark/run.sh --selftest

step "benches still compile (cargo bench --no-run -p swala-bench)"
cargo bench --no-run -p swala-bench

step "C10K smoke (c10k)"
# Raise RLIMIT_NOFILE, park 10k idle keep-alive connections on a
# default-options node (the request pool holds them on its epoll), and
# require a live request to complete under the latency bound. Scales
# itself down (and says so) where the fd limit cannot hold 10k two-ended
# loopback connections.
target/release/c10k

step "hot-path smoke (tables hitpath)"
SWALA_BENCH_QUICK=1 target/release/tables hitpath
python3 -m json.tool BENCH_hitpath.json > /dev/null

step "broadcast-pipeline smoke (tables broadcast)"
# Enqueue cost, dead-peer isolation, and the loaded-link section: the
# experiment's own asserts gate on a 15k-notices/s link coalescing >= 32
# notices per frame (4x what a constant 500 us hold did), sending no
# more frames than one per 4 ms hold plus the ramp, with no more
# wake-ups than frames and no drops.
SWALA_BENCH_QUICK=1 target/release/tables broadcast
python3 - <<'EOF'
import json
with open("BENCH_broadcast.json") as f:
    doc = json.load(f)
held = doc["loaded_link"]["held"]
assert held["notices_per_frame"] >= 32.0, held
assert held["wakeups"] <= held["frames"], held
EOF

step "coalescing smoke (tables coalesce)"
# Flash-crowd burst both ways; the experiment's own asserts gate on
# duplicate executions == 0 with coalescing on (and > 0 with it off).
SWALA_BENCH_QUICK=1 target/release/tables coalesce
python3 -m json.tool BENCH_coalesce.json > /dev/null

step "directory-mode smoke (tables directory)"
# Replicated vs partitioned update cost on live clusters. The
# experiment's own asserts gate on replicated paying exactly N-1
# messages per insert, partitioned at most 1, and partitioned cutting
# directory wire bytes >=4x at 8 nodes.
SWALA_BENCH_QUICK=1 target/release/tables directory
python3 - <<'EOF'
import json
with open("BENCH_directory.json") as f:
    doc = json.load(f)
gate = doc["gate_n8"]
assert gate["partitioned_updates_per_insert"] <= 1.0, gate
assert gate["byte_ratio"] >= 4.0, gate
EOF

step "metrics-exposition gate (tables metrics)"
# Two-node pseudo-cluster; fails on malformed /swala-metrics output or
# on the histogram totals disagreeing with their counter twins.
SWALA_BENCH_QUICK=1 target/release/tables metrics

step "cluster-observability gate (tables obsplane)"
# Eight-node federated scrape; the experiment's own asserts gate on the
# merged /swala-cluster-metrics counters equalling each node's handles
# exactly and on the observability plane (heat sketch + slow-trace
# exemplars) staying within the 3%+30us warm-hit budget.
SWALA_BENCH_QUICK=1 target/release/tables obsplane
python3 - <<'EOF'
import json
with open("BENCH_obsplane.json") as f:
    doc = json.load(f)
assert doc["merged_equals_sum"] is True, doc
assert doc["scrape_failures"] == 0, doc
assert doc["nodes"] == 8, doc
EOF

step "segment-store gate (tables store)"
# Space reused in place and the kill -9 crash drill. The experiment's own
# asserts gate on the file staying within 1.10 x its live bytes over 20
# turnovers and 1.25 x across a 64K -> 1K -> 64K cycle, byte-identical
# recovery of every acked entry, no deleted entry back, and a
# warm-restart hit rate equal to the pre-kill steady state.
SWALA_BENCH_QUICK=1 target/release/tables store
python3 - <<'EOF'
import json
with open("BENCH_store.json") as f:
    doc = json.load(f)
crash = doc["crash"]
assert doc["space"]["file_over_live"] <= 1.10, doc
assert doc["space"]["regrow_ratio"] <= 1.25, doc
assert crash["recovered"] >= crash["acked"] - crash["deleted"] - 1, doc
assert crash["byte_identical"] is True, doc
assert crash["resurrected"] == 0, doc
assert crash["warm_hit_rate"] == crash["pre_kill_hit_rate"], doc
EOF

step "segment store against its model (10x cases, pinned seed)"
# Random put / re-put / delete / reopen with truncation, bit flips and
# forged length fields, against a HashMap; the counting allocator bounds
# what recovery may allocate. Same seed every run so a failure replays.
PROPTEST_CASES=640 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test segstore_model

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings

step "all checks passed in ${SECONDS} s"
