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
# In virtual time, on a manual clock the tests advance: idle links send
# at once, busy links batch without a wake-up, a loaded link's hold
# ramps 500 us -> 4 ms (one frame per hold, each notice waiting exactly
# its hold) and starts over once the link parks, flush/shutdown cut a
# maximum hold short with the clock standing still, a reconnect backoff
# is a hold, overflow still drops oldest.
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

step "wire decoder against hostile counts (allocation budget, 2048 cases, pinned seed)"
# Every tag with a hostile count before a short, arbitrary or cut-short
# tail, alone and inside a lying Batch: no panic, and decoding asks the
# allocator for at most 8 x the input's length + 4096 bytes.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-proto --test decode_alloc

step "config parser (README knob table + structure-aware fuzz, 2048 cases, pinned seed)"
# The README's Configuration table has one row per ServerOptions field
# and each documented default parses back to the default; every retired
# keyword says why it went. Then lines built from live, retired and
# arbitrary keywords with hostile values: no panic, every error names a
# line that is wrong on its own, and an unknown word is "unknown keyword".
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala --lib config::

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

step "chaos (fixed seed, release)"
# Deterministic fault-injection scenarios; the default seed (42) must
# replay the exact same fault schedule on every run.
cargo test --release --test chaos

step "hot-path smoke (tables hitpath)"
# Counter gates: warm hits read no store, one client stays within the
# fetch pool, parked connections cost bounded RSS and no new threads.
# The idle sweep's p99 per level is data in BENCH_hitpath.json, not a
# gate: sub-ms p99s from 60 samples spike by milliseconds on a busy host.
SWALA_BENCH_QUICK=1 target/release/tables hitpath
python3 -m json.tool BENCH_hitpath.json > /dev/null

step "coalescing smoke (tables coalesce, one flight per key)"
# Flash-crowd burst both ways; the experiment's own asserts gate on
# duplicate executions == 0 with coalescing on (and > 0 with it off),
# and on owner wire fetches per 16-request remote burst: 1 on, 16 off.
SWALA_BENCH_QUICK=1 target/release/tables coalesce
python3 -m json.tool BENCH_coalesce.json > /dev/null
# One flight per key, whatever the burst: a remote-hit burst on a
# failing owner is one health failure, a false-hit burst one false hit
# and one repair notice, and an insert notice for a key whose flight
# only fetches is no false miss.
cargo test -q --release --test chaos -- hit_burst_
cargo test -q --release -p swala-cache --lib \
    manager::tests::an_insert_notice_for_a_fetching_flight_is_no_false_miss

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
# exactly, with no scrape failure.
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
# "No deleted entry back" without the kill -9: a peer's delete notice
# naming this node removes the body as well as the entry (per notice and
# batched), so a restart lists nothing; and an owner that cannot read a
# body stops advertising it on a peer's fetch too.
cargo test -q --release -p swala-cache --lib -- \
    manager::tests::a_delete_notice_naming_this_node_removes_the_body_too \
    manager::tests::owner_heals_on_a_failed_fetch_read

step "segment store against its model (10x cases, pinned seed)"
# Random put / re-put / delete / reopen with truncation, bit flips and
# forged length fields, against a HashMap; the counting allocator bounds
# what recovery may allocate. Same seed every run so a failure replays.
PROPTEST_CASES=640 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test segstore_model

step "body digest (streamed = one-shot, 2048 cases, pinned seed; rendered-body collisions)"
# The digest folded in pieces equals the one-shot digest at every
# 64-byte cut of slices starting anywhere, and no two of 800 k rendered
# CGI bodies (200 k ids at 1, 4, 16 and 64 KiB) share a digest.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test digest

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets: tests, benches and examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings

step "all checks passed in ${SECONDS} s"
