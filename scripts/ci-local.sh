#!/usr/bin/env bash
# Reproduces the CI matrix locally so contributors can pre-flight before
# pushing. Mirrors .github/workflows/ci.yml job for job:
#
#   lint        cargo fmt --check + clippy -D warnings, then nmpic-lint
#               (workspace invariant checker: casts, panic paths,
#               unordered floats, unsafe, Relaxed, clocks, unaudited
#               service locks)
#   test        release build + quick-scale test suite (stable, plus the
#               MSRV toolchain when rustup has it installed), and the
#               debug-profile step whose assertions check the baseline's
#               skipped cycles, every replayed run_into pass (and what
#               it allocates), both exec modes' check against the value
#               kernel, the coalescer block table's probe bound and
#               stamp wrap (core's unit tests and nmpic-system's
#               analytic-model tests, stream-line walk included), and
#               each HBM controller's cached issue cycle against a scan
#               of its queue
#   benchmark   the benchmark/ package's own tests + a 1 s smoke run of
#               every BENCHMARK.json workload (build, golden checks and
#               determinism guard of the benchmark driver)
#   bench-smoke every registry experiment marked `smoke` (see
#               `experiments --list`) at NMPIC_QUICK=1; the binary's exit
#               code gates on empty tables, NaN values and each
#               experiment's own checks
#   doc         rustdoc with broken intra-doc links as errors
#   miri        the Miri step of the nightly `sanitizers` job (opt-in, not
#               in the default set; skipped when nightly miri is missing)
#
# Not reproduced here: the nightly job's TSan steps (need -Z build-std).
# They run `-p nmpic-system --lib service::` (the service's in-module
# quarantine-race, wait/notify and publish tests) and
# `-p nmpic-system --test service --test service_soak --test exec_mode`.
#
# Usage: scripts/ci-local.sh [lint|test|benchmark|bench|doc|miri]...
#        (default: every job but miri)
set -euo pipefail
cd "$(dirname "$0")/.."

MSRV=$(sed -n 's/^rust-version = "\(.*\)"/\1/p' Cargo.toml | head -n1)

step() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

run_lint() {
    step "lint: rustfmt"
    cargo fmt --all --check
    step "lint: clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    step "lint: nmpic-lint workspace invariants"
    cargo run -q -p nmpic-lint --release
}

run_test() {
    step "test: release build (stable)"
    cargo build --release --workspace --all-targets
    step "test: quick-scale suite (stable)"
    NMPIC_QUICK=1 cargo test -q --release --workspace
    step "test: debug profile (checked baseline skips, run_into replays, block table and controller caches)"
    NMPIC_QUICK=1 cargo test -q -p nmpic-core -p nmpic-model -p nmpic-mem -p nmpic-sparse -p nmpic-system --lib
    NMPIC_QUICK=1 cargo test -q -p nmpic-mem -p nmpic-system --doc
    cargo test -q -p nmpic-system --test base_counts --test engine_counts --test solve --test replay --test host_alloc --test exec_mode
    cargo test -q -p nmpic-core --test burst_counts --test coalescer_counts
    step "test: self-checking example (adapter asserts dst == src)"
    cargo run --release -p nmpic-system --example adapter
    # The MSRV leg runs only when the pinned toolchain is available, so
    # the script stays useful on machines without rustup.
    if command -v rustup >/dev/null 2>&1 && rustup toolchain list | grep -q "^$MSRV"; then
        step "test: quick-scale suite (MSRV $MSRV)"
        NMPIC_QUICK=1 cargo "+$MSRV" test -q --release --workspace
    else
        echo "note: MSRV $MSRV toolchain not installed; skipping the MSRV leg"
        echo "      (CI still runs it — install with: rustup toolchain install $MSRV)"
    fi
}

run_benchmark() {
    step "benchmark: package tests"
    cargo test --manifest-path benchmark/Cargo.toml
    step "benchmark: smoke run (every workload, 1 s, untraced)"
    bash benchmark/run.sh --seed 1 --seconds 1 --trace 0
}

run_bench() {
    step "bench-smoke: experiments smoke (NMPIC_QUICK=1, gated by exit code)"
    NMPIC_QUICK=1 cargo run --release -p nmpic-bench --bin experiments -- smoke
}

run_doc() {
    step "doc: rustdoc -D warnings"
    RUSTDOCFLAGS="-D warnings --cfg docsrs" cargo doc --workspace --no-deps
}

run_miri() {
    if cargo +nightly miri --version >/dev/null 2>&1; then
        step "miri: sim + axi + mem + core + sparse + system (NMPIC_QUICK=1)"
        NMPIC_QUICK=1 MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo +nightly miri test -p nmpic-sim -p nmpic-axi -p nmpic-mem -p nmpic-core -p nmpic-sparse -p nmpic-system
    else
        echo "note: nightly miri not installed; skipping (CI's nightly sanitizers job runs it)"
        echo "      (install with: rustup +nightly component add miri rust-src)"
    fi
}

if [ "$#" -eq 0 ]; then
    set -- lint test benchmark bench doc
fi
for job in "$@"; do
    case "$job" in
        lint) run_lint ;;
        test) run_test ;;
        benchmark) run_benchmark ;;
        bench) run_bench ;;
        doc) run_doc ;;
        miri) run_miri ;;
        *)
            echo "unknown job '$job' (want lint|test|benchmark|bench|doc|miri)" >&2
            exit 2
            ;;
    esac
done
printf '\n\033[1mall requested CI jobs passed\033[0m\n'
