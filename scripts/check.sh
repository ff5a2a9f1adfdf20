#!/usr/bin/env bash
# The one list of gates. CI's check job runs this script and restates
# none of it. A bound lives in an ordinary #[test] that a step runs;
# `tables` reproduces the paper and gates nothing.
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
# swala-bench, so a bare build never produces the tables binary.
cargo build --release --workspace

step "cargo test -q --workspace"
# --workspace matters: a bare `cargo test -q` runs only the root
# package's suites and silently skips every crates/* unit test. Among
# them the live-cluster counter bounds: a body's first hit reads the
# store once and promotes it, later (warm) hits read no store, a
# remote-hit burst stays within the fetch pool, parked connections spawn
# no thread and cost < 16 KiB RSS each on the HTTP and the cache port,
# C10K (parked_connections, formerly the c10k binary's own step: 10k
# idle keep-alive connections, capped by RLIMIT_NOFILE, parked on a
# default-options node while a live request answers within 250 ms),
# back-to-back remote hits park nothing on the owner's cache port,
# replicated pays exactly N-1 update messages per insert and
# partitioned at most 1 (>= 4x fewer directory bytes at 8 nodes),
# duration histograms count every HTTP request, an 8-node merged
# scrape equals each node's counters, and dropping a node joins every
# thread it started.
cargo test -q --workspace

step "eviction-index equivalence (victim_index, 2048 cases, pinned seed)"
# The victim index must evict exactly what the O(capacity) scan would,
# for all five policies. Same seed every run so a failure replays;
# the nightly CI job runs 10x the cases on other seeds.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --test victim_index

step "paced notice plane (pacing tests + apply_remote_batch equivalence, pinned seed)"
# Pure LinkState tests, the pacing rule driven with explicit instants:
# idle links send at once, a burst inside a hold leaves as one batch
# with no wake-up, a flush cuts a maximum hold short with time standing
# still, overflow on a busy link drops the oldest, and a 15k-notices/s
# feed coalesces >= 32 notices per frame with no more frames than one
# per 4 ms hold plus the ramp, no more wake-ups than frames and no
# drops. Threaded wiring tests, on a manual clock the tests advance:
# hello and reconnect, a blackholed connect kept off the send path, one
# wake-up per idle->busy transition and the burst as one Batch frame on
# the wire, a loaded link's hold ramp (500 us -> 4 ms, each notice
# waiting exactly its hold) and a reconnect backoff waited out, a flush
# and shutdown waking a held writer, and shutdown's drain and join. Then
# the LinkState property test: random schedules of bursts, clock steps,
# writer steps, outcomes, flushes and shutdown keep every notice
# accounted for, holds on the ramp and from the drain, and drop-oldest
# order (2048 cases, pinned seed). Then the batched directory apply
# against the per-notice calls it replaces on the receive side — cut
# anywhere, and as whole frames of 256 and 1024 updates — 2048 cases on
# the same pinned seed.
cargo test -q --release -p swala-proto --lib peers::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-proto --lib peers::tests::any_schedule_keeps_the_link_invariants
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

step "Figure 2's flow (every arm walked, random outcomes, 2048 cases, pinned seed)"
# The request's cache decisions, written once and driven by the server's
# handler and the simulator alike, walked with no socket: each arm's
# steps, class, trace outcome and marks. Then random outcomes at every
# step (fetch, home, wait, execution) serve within six steps and keep
# lookups == local + remote + misses, and executions + flight_served ==
# misses + false_hits beside the remote hits that fall back to executing.
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-cache --lib flow::

step "request path at the syscall floor (reader, connection pool, fetch pool, request loop, request decoder, allocation and write-syscall budgets; release)"
# Counter-based, no clocks: one read per request / frame, idle vs stall,
# every split point against read_frame / try_parse_request as oracles
# (2048 cases, pinned seed), and allocations per warm local hit, remote
# hit (both nodes) and evicting miss. The connection pool serves both
# ports, the HTTP port and the cache port: its own unit tests and the
# fetch pool's, which one `pool::` filter takes in (at most
# DEFAULT_POOL_SIZE connections per peer, slots that never leak, a
# waiter woken by every release), then the HTTP request loop's over it. The request decoder, from structured and
# hostile requests (huge or conflicting Content-Length, transfer codings,
# header counts past the limit, cut or flipped bytes): no panic, at most
# 16 x the input's length + 4096 bytes asked of the allocator,
# to_bytes -> parse the identity, and every split of a pipelined burst
# decoding like read_request (2048 cases, pinned seed). Last, write
# syscalls per request, read from /proc/self/task/<tid>/io: 1 per warm
# local hit, 2 on the requester and 1 on the owner per remote hit, and 3
# per evicting miss (response, record, the victim's Free marker).
cargo test -q --release -p swala-proto --lib reader::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-proto --test proptests patient_reader
cargo test -q --release -p swala-proto --lib pool::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala --lib pool::
PROPTEST_CASES=2048 PROPTEST_RNG_SEED=19980728 \
    cargo test -q --release -p swala-http --test decode_alloc
cargo test -q --release -p swala --test alloc_budget
cargo test -q --release -p swala --test syscall_budget

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

step "chaos (fixed seed, release)"
# Deterministic fault-injection scenarios; the default seed (42) must
# replay the exact same fault schedule on every run. Among them: one
# flight per key (a 16-request remote burst is 1 owner fetch, 16 with
# coalescing off; a burst on a failing owner is one health failure, a
# false-hit burst one false hit and one repair), and the kill -9 drill
# (every acked entry byte-identical, no deleted entry back, and a warm
# restart serving every survivor as a memory-tier local hit).
cargo test --release --test chaos

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

step "rustdoc (RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps)"
# Every intra-doc link resolves, to a public item, without a redundant
# target: a rustdoc warning fails the build of the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "production line count (scripts/loc.sh; a report, not a gate)"
# Non-blank crates/*/src lines up to each file's first column-0
# #[cfg(test)], per crate and in total: the count ROADMAP's "Size"
# paragraph quotes.
scripts/loc.sh

step "all checks passed in ${SECONDS} s"
