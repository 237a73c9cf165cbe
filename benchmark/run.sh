#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
#   benchmark/run.sh [--seed N] ...          # every workload, one process each
#   benchmark/run.sh compare A.json B.json
#
# The last line of standard output of a single-workload run is the result
# object described in BENCHMARK.json's contract; everything before it is
# the same numbers, one per line, for people.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"

# Pinned environment: two pool workers (the reference box has two cores),
# and none of the experiment harness's scale/system overrides.
export NMPIC_JOBS=2
unset NMPIC_QUICK NMPIC_MAX_NNZ NMPIC_SYSTEM NMPIC_PARTITION NMPIC_EXEC

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/nmpic-benchmark"

export NMPIC_BENCH_DIR="$here"
NMPIC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
NMPIC_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export NMPIC_BENCH_RUSTC NMPIC_BENCH_COMMIT

if [[ "${1:-}" == "compare" ]]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" run "$@"
    fi
done
for workload in $("$bin" workloads); do
    "$bin" run --workload "$workload" "$@"
done
