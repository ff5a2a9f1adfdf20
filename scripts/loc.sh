#!/usr/bin/env bash
# Production lines of Rust, the count ROADMAP's "Size" paragraph quotes:
# the non-blank lines of every crates/*/src file up to its first
# column-0 `#[cfg(test)]` (the unit-test module by convention; an
# indented test-only item in production code does not end the count).
# Prints one line per crate, then the total. A report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { stop = 0 }
        /^#\[cfg\(test\)\]/ { stop = 1 }
        !stop && NF { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src; do
    n=$(count "$dir")
    printf '%-10s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
