//! Observability: serving counters, the injectable latency clock, the
//! tail-latency snapshot, and the [`SpmvService`] accessors over them.

use std::sync::atomic::{AtomicU64, Ordering};

use super::lane::LaneState;
use super::SpmvService;
#[cfg(doc)]
use super::{ServiceError, RESULT_RETENTION_FACTOR};
#[cfg(doc)]
use crate::engine::SpmvPlan;

/// Serving counters, all monotonically increasing; snapshot with
/// [`SpmvService::stats`] (a lock-free read of independent atomics).
///
/// Conservation invariants (exact once [`SpmvService::quiesce`] returns):
/// `submitted == completed + solves_completed + failed`, and
/// `completed + solves_completed + failed == taken + evicted +`
/// [`SpmvService::retained`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Plans built from scratch (plan-cache misses).
    pub plans_prepared: u64,
    /// [`SpmvService::prepare`] calls answered from the plan cache.
    pub plan_cache_hits: u64,
    /// Requests accepted into a lane.
    pub submitted: u64,
    /// Submissions refused by [`ServiceError::TenantQuotaExceeded`].
    pub rejected: u64,
    /// One-shot requests executed and published.
    pub completed: u64,
    /// [`SpmvPlan::run_batch`] calls issued by the drain
    /// (≤ `completed`: same-matrix requests share a batch).
    pub batches: u64,
    /// Unredeemed results dropped, oldest first, by the per-lane
    /// retention window ([`RESULT_RETENTION_FACTOR`]` × lane_quota`).
    pub evicted: u64,
    /// Iterative solves executed and published.
    pub solves_completed: u64,
    /// Requests failed because their job panicked, their plan was
    /// poisoned, or their lane was quarantined while they were queued.
    pub failed: u64,
    /// Published entries (failure notices included) consumed through
    /// `take`/`wait`.
    pub taken: u64,
}

/// A monotone event counter. All `Relaxed` orderings of the service's
/// statistics live here: each counter is independent and no reader
/// infers cross-counter ordering from a snapshot.
#[derive(Default)]
pub(super) struct Counter(AtomicU64);

impl Counter {
    pub(super) fn bump(&self) {
        self.add(1);
    }

    pub(super) fn add(&self, n: u64) {
        // Relaxed: independent monotone event counter (see type docs).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn get(&self) -> u64 {
        // Relaxed: approximate snapshot of a monotone counter.
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
pub(super) struct AtomicStats {
    pub(super) plans_prepared: Counter,
    pub(super) plan_cache_hits: Counter,
    pub(super) submitted: Counter,
    pub(super) rejected: Counter,
    pub(super) completed: Counter,
    pub(super) batches: Counter,
    pub(super) evicted: Counter,
    pub(super) solves_completed: Counter,
    pub(super) failed: Counter,
    pub(super) taken: Counter,
}

impl AtomicStats {
    pub(super) fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            plans_prepared: self.plans_prepared.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            batches: self.batches.get(),
            evicted: self.evicted.get(),
            solves_completed: self.solves_completed.get(),
            failed: self.failed.get(),
            taken: self.taken.get(),
        }
    }
}

/// A monotone time source for per-request latency accounting. The
/// service never reads the wall clock itself (lint rule L6): benchmarks
/// inject one from `nmpic_bench::timing` (the one clock-exempt module);
/// tests and the default use the deterministic [`LogicalClock`].
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds (or logical ticks) — only
    /// differences between two readings are ever used.
    fn now_ns(&self) -> u64;
}

/// The default [`Clock`]: a logical counter advancing one tick per
/// reading, so latencies count *events* between enqueue and publish —
/// stable across runs.
#[derive(Debug, Default)]
pub struct LogicalClock {
    tick: AtomicU64,
}

impl Clock for LogicalClock {
    fn now_ns(&self) -> u64 {
        // Relaxed: a monotone logical tick; callers only subtract two
        // readings bracketing one request, so no cross-thread ordering
        // is inferred from it.
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Tail-latency snapshot from [`SpmvService::latency`]: enqueue→publish
/// per-request latencies in the injected [`Clock`]'s units
/// (nanoseconds under a wall clock, ticks under [`LogicalClock`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Requests measured: completed SpMVs and solves (a failed request
    /// records no sample).
    pub count: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl SpmvService {
    /// Requests currently queued across all lanes (excludes batches a
    /// drain worker has already popped).
    pub fn pending(&self) -> usize {
        self.lane_sum(|st| st.queue.len())
    }

    /// Published results currently retained (un-taken) across all
    /// lanes; at most `lane_count × `[`RESULT_RETENTION_FACTOR`]` ×
    /// lane_quota`.
    pub fn retained(&self) -> usize {
        self.lane_sum(|st| st.retained)
    }

    /// Number of lanes currently quarantined by drain panics.
    pub fn quarantined_lanes(&self) -> usize {
        self.lane_sum(|st| usize::from(st.quarantined))
    }

    /// Sums a per-lane figure, locking one lane at a time.
    fn lane_sum(&self, f: impl Fn(&LaneState) -> usize) -> usize {
        self.inner.lanes.iter().map(|l| f(&l.lock())).sum()
    }

    /// Snapshot of the serving counters (lock-free).
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats.snapshot()
    }

    /// Tail-latency snapshot of every enqueue→publish interval recorded
    /// so far, in the injected [`Clock`]'s units.
    pub fn latency(&self) -> LatencySnapshot {
        let h = &self.inner.latency;
        LatencySnapshot {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }

    /// Discards recorded latencies (e.g. warmup samples before a timed
    /// burst). Call only at quiescent moments — samples recorded
    /// concurrently with the reset may be partially lost.
    pub fn reset_latency(&self) {
        self.inner.latency.reset();
    }
}
