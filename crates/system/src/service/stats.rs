//! Serving counters, the injectable latency clock, and the tail-latency
//! snapshot type.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(doc)]
use super::{ServiceError, SpmvService, RESULT_RETENTION_FACTOR};
#[cfg(doc)]
use crate::engine::SpmvPlan;

/// Serving counters. All monotonically increasing; snapshot with
/// [`SpmvService::stats`] (a racy-but-consistent-enough read of
/// independent atomics — no lock).
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
    /// Submissions refused by per-lane admission
    /// ([`ServiceError::TenantQuotaExceeded`]).
    pub rejected: u64,
    /// One-shot requests executed and published.
    pub completed: u64,
    /// [`SpmvPlan::run_batch`] calls issued by the drain
    /// (≤ `completed`: same-matrix requests share a batch).
    pub batches: u64,
    /// Unredeemed results dropped by the per-lane bounded retention
    /// window ([`RESULT_RETENTION_FACTOR`]` × lane_quota`, oldest
    /// first).
    pub evicted: u64,
    /// Iterative solves executed and published.
    pub solves_completed: u64,
    /// Requests that reached a terminal `Failed` state because their
    /// batch panicked or their lane was quarantined mid-flight.
    pub failed: u64,
    /// Published entries consumed through `take`/`wait` (including
    /// consumed failure notices).
    pub taken: u64,
}

/// A single monotone event counter.
///
/// All `Relaxed` orderings for the service's statistics live in this
/// type: each counter is independent, and readers only ever take an
/// approximate snapshot — no reader infers cross-counter ordering.
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

/// A monotone time source for per-request latency accounting.
///
/// The service never reads the wall clock itself (lint rule L6):
/// production callers inject a wall clock from `nmpic_bench::timing`
/// (the one clock-exempt module); tests and library defaults use
/// [`LogicalClock`], which is deterministic.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds (or logical ticks) — only
    /// differences between two readings are ever used.
    fn now_ns(&self) -> u64;
}

/// The default [`Clock`]: a deterministic logical counter that advances
/// by one tick per reading. Latencies measured with it count *events*
/// between enqueue and publish, which is stable across runs — exactly
/// what deterministic tests want.
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
    /// Requests measured (completed + solves + failed).
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
