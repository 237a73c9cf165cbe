//! The benchmark's one clock. Every host-time read in this package is a
//! difference of two [`now_ns`] readings of a single epoch
//! `nmpic_bench::timing::Stopwatch` — the workspace's sanctioned
//! wall-clock source (lint rule L6) — so spans, rep timings and set-up
//! times share one time base.

use nmpic_bench::timing::Stopwatch;
use std::sync::OnceLock;

static EPOCH: OnceLock<Stopwatch> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // 2^64 ns is 584 years: the cast cannot truncate.
    EPOCH.get_or_init(Stopwatch::start).elapsed().as_nanos() as u64
}

/// Milliseconds from an earlier [`now_ns`] reading to now.
pub fn ms_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e6
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    (out, ms_since(t0))
}
