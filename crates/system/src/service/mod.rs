//! Multi-tenant SpMV serving: a concurrency-native façade over
//! [`SpmvEngine`] with sharded submission lanes, a background drain, and
//! tail-latency accounting.
//!
//! The session API ([`SpmvEngine::prepare`] → [`SpmvPlan::run`])
//! amortizes preparation across one caller's vectors; a serving
//! deployment has many callers hitting a small set of resident matrices.
//! [`SpmvService`] closes that gap with four mechanisms:
//!
//! 1. **Plan cache** — [`SpmvService::prepare`] keys plans by
//!    [`Csr::fingerprint`] and returns a [`MatrixKey`]; re-preparing a
//!    resident matrix is a cache hit that reuses the warm DRAM image.
//! 2. **Sharded submission lanes** — requests hash by [`MatrixKey`] onto
//!    16 independently locked, bounded queues: tenants of different
//!    matrices never contend at submission, and a lane at its quota
//!    rejects only its own tenants ([`ServiceError::TenantQuotaExceeded`]).
//! 3. **Background drain** — drain workers visit lanes round-robin, at
//!    most 32 requests per lane per turn (SparseP-style fairness: a
//!    skewed tenant cannot starve the rest), run same-matrix
//!    requests as **one** [`SpmvPlan::run_batch`], and publish into the
//!    lane's ticket map, where [`SpmvService::take`] (non-blocking) and
//!    [`SpmvService::wait`] redeem them. With
//!    [`ServiceBuilder::drain_workers`]`(0)` the same drain runs inline
//!    on the caller — the deterministic mode tests use.
//! 4. **Latency accounting** — each request's enqueue→publish latency,
//!    read through an injectable [`Clock`], feeds a streaming histogram
//!    ([`SpmvService::latency`]).
//!
//! Every execution is byte-identical to the serial single-tenant path
//! ([`SpmvPlan::run`]): batching, lanes, and drain concurrency change
//! *when* work happens, never what the simulated hardware computes.
//!
//! # Example
//!
//! ```
//! use nmpic_sparse::gen::banded_fem;
//! use nmpic_system::{golden_x, SpmvEngine, SpmvService, SystemKind};
//!
//! let csr = banded_fem(128, 6, 16, 1);
//! let service = SpmvService::new(SpmvEngine::builder().system(SystemKind::Base).build());
//! let key = service.prepare(&csr);
//! let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
//! let t = service.submit(key, x.clone()).unwrap();
//! // A background drain worker batches and executes the request.
//! let done = service.wait(t).expect("drained in the background");
//! assert!(done.verified);
//! assert_eq!(done.y, csr.spmv(&x));
//! // A second tenant preparing the same matrix hits the plan cache.
//! assert_eq!(service.prepare(&csr), key);
//! assert_eq!(service.stats().plan_cache_hits, 1);
//! assert!(service.latency().count >= 1);
//! ```

mod drain;
mod lane;
mod stats;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
// nmpic-lint: allow(L7) — the audited lock inventory of this file: the per-plan execution mutexes and the plan-cache RwLock; each construction site carries its own audit marker
use std::sync::{Arc, Mutex, RwLock};

use nmpic_sim::pool::BackgroundWorker;
use nmpic_sim::stats::Histogram;
use nmpic_sparse::Csr;

use crate::engine::{SpmvEngine, SpmvPlan};
use crate::solve::SolveOptions;

pub use lane::{Completed, CompletedSolve, ServiceError, SolveRequest, Ticket};
use lane::{DoneEntry, Lane, Pending, Signal, Work, MAX_LANES, WAIT_SLICES};
use stats::AtomicStats;
pub use stats::{Clock, LatencySnapshot, LogicalClock, ServiceStats};

/// Identifies a prepared matrix inside a [`SpmvService`]'s plan cache.
/// Obtained from [`SpmvService::prepare`]; equal keys mean equal matrix
/// content ([`Csr::fingerprint`]), so tenants can exchange keys instead
/// of matrices. The key also selects the tenant's submission lane
/// ([`SpmvService::lane_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixKey(u64);

impl MatrixKey {
    /// The underlying content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.0
    }

    /// The lane this key's requests queue on: the fingerprint is
    /// already hash-quality, so modulo spreads keys evenly.
    fn lane(&self) -> usize {
        (self.0 % LANES as u64) as usize
    }
}

impl fmt::Display for MatrixKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix:{:016x}", self.0)
    }
}

/// A cached plan plus its shape, for collision checks and submission
/// validation without touching the plan's own lock.
struct PlanSlot {
    rows: usize,
    cols: usize,
    nnz: usize,
    // nmpic-lint: allow(L7) — audited: per-plan execution lock so two lanes' drains of the same matrix serialize on the plan, not on each other's lanes
    plan: Mutex<SpmvPlan>,
}

type PlanMap = HashMap<u64, Arc<PlanSlot>>;

/// Number of submission lanes.
pub(crate) const LANES: usize = 16;
const _: () = assert!(LANES <= MAX_LANES, "a ticket must be able to name its lane");

/// Most requests a drain worker pops from one lane per turn — the
/// fairness bound that keeps a hub tenant from starving other lanes.
pub(crate) const DRAIN_BATCH: usize = 32;

/// Default per-lane admission quota ([`ServiceBuilder::lane_quota`]).
pub(crate) const DEFAULT_LANE_QUOTA: usize = 64;

/// Unredeemed published results are retained per lane up to this
/// multiple of the lane quota; beyond that the drain evicts the oldest
/// first (counted in [`ServiceStats::evicted`]).
pub const RESULT_RETENTION_FACTOR: usize = 4;

/// What the drain workers and the public handle share.
struct ServiceInner {
    engine: SpmvEngine,
    lanes: [Lane; LANES],
    lane_quota: usize,
    // nmpic-lint: allow(L7) — audited: plan-cache map lock; reads are short clone-an-Arc lookups, writes only on first preparation of a matrix
    plans: RwLock<PlanMap>,
    stats: AtomicStats,
    latency: Histogram,
    clock: Arc<dyn Clock>,
    next_seq: AtomicU64,
    /// Accepted requests not yet at a terminal state.
    in_flight: AtomicU64,
    /// Round-robin start cursor: concurrent drain workers spread over
    /// the lanes instead of convoying on lane 0.
    cursor: AtomicUsize,
    /// Chaos hook ([`SpmvService::inject_batch_panic`]): when armed,
    /// the drain panics before the keyed matrix's next job.
    chaos_armed: AtomicBool,
    chaos_key: AtomicU64,
    signal: Signal,
}

/// Configures and builds a [`SpmvService`]; obtained from
/// [`SpmvService::builder`].
pub struct ServiceBuilder {
    engine: SpmvEngine,
    lane_quota: usize,
    drain_workers: usize,
    clock: Arc<dyn Clock>,
}

impl ServiceBuilder {
    /// Per-lane admission quota; default 64.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn lane_quota(mut self, n: usize) -> Self {
        assert!(n > 0, "lane quota must be positive");
        self.lane_quota = n;
        self
    }

    /// Background drain worker threads; default 1. `0` builds a
    /// **synchronous** service — the caller is the worker: nothing
    /// executes until one calls [`SpmvService::drain_now`] or blocks in
    /// `wait`/`quiesce`, which run the same drain inline.
    pub fn drain_workers(mut self, n: usize) -> Self {
        self.drain_workers = n;
        self
    }

    /// Injects the latency time source; default [`LogicalClock`].
    /// Benchmarks inject the wall clock from `nmpic_bench::timing`.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Builds the service and spawns its drain workers.
    pub fn build(self) -> SpmvService {
        let inner = Arc::new(ServiceInner {
            engine: self.engine,
            lanes: std::array::from_fn(|_| Lane::default()),
            lane_quota: self.lane_quota,
            // nmpic-lint: allow(L7) — constructor for the audited `ServiceInner::plans` lock
            plans: RwLock::new(HashMap::new()),
            stats: AtomicStats::default(),
            latency: Histogram::new(),
            clock: self.clock,
            next_seq: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            chaos_armed: AtomicBool::new(false),
            chaos_key: AtomicU64::new(0),
            signal: Signal::default(),
        });
        let workers = (0..self.drain_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let tick = move || inner.drain_tick() > 0;
                BackgroundWorker::spawn(&format!("nmpic-drain-{i}"), tick)
            })
            .collect();
        SpmvService { inner, workers }
    }
}

/// A concurrent multi-tenant SpMV service (see the module docs): one
/// [`SpmvEngine`] configuration, a plan cache, 16 submission lanes, and
/// a background drain. `&self` everywhere — share it as
/// `Arc<SpmvService>` or by reference from scoped threads.
///
/// There is no global serving lock. Submission touches only the
/// tenant's lane; the drain executes outside all lane locks and
/// publishes under the one lane it drained; statistics are independent
/// atomics. A panic in the drain quarantines the one lane being drained
/// ([`ServiceError::LaneQuarantined`]): its requests fail loudly and
/// every other lane keeps serving.
pub struct SpmvService {
    inner: Arc<ServiceInner>,
    /// Dropping the service stops and joins these; empty in
    /// synchronous mode.
    workers: Vec<BackgroundWorker>,
}

impl ServiceInner {
    fn plans_read(&self) -> std::sync::RwLockReadGuard<'_, PlanMap> {
        self.plans
            .read()
            // nmpic-lint: allow(L2) — invariant: prepare() catches any build panic before unwinding past the write guard, so the plan-cache lock is never poisoned
            .expect("plan cache lock")
    }
}

impl SpmvService {
    /// A builder over `engine`; defaults: a lane quota of 64, one drain
    /// worker, the deterministic [`LogicalClock`].
    pub fn builder(engine: SpmvEngine) -> ServiceBuilder {
        ServiceBuilder {
            engine,
            lane_quota: DEFAULT_LANE_QUOTA,
            drain_workers: 1,
            clock: Arc::new(LogicalClock::default()),
        }
    }

    /// A service over `engine` with the builder defaults.
    pub fn new(engine: SpmvEngine) -> Self {
        Self::builder(engine).build()
    }

    /// The engine every cached plan was prepared by.
    pub fn engine(&self) -> &SpmvEngine {
        &self.inner.engine
    }

    /// Number of submission lanes (16).
    pub fn lane_count(&self) -> usize {
        LANES
    }

    /// The per-lane admission quota.
    pub fn lane_quota(&self) -> usize {
        self.inner.lane_quota
    }

    /// The lane a key's requests queue on (a pure function of the key).
    pub fn lane_of(&self, key: MatrixKey) -> usize {
        key.lane()
    }

    /// Ensures a plan for `csr` is resident and returns its key, the
    /// matrix's content fingerprint: preparing identical content again
    /// is a cache hit costing one hash of the arrays instead of a layout
    /// rebuild. Concurrent first preparations of one matrix serialize on
    /// the cache's write lock — the second tenant waits and hits.
    ///
    /// # Panics
    ///
    /// Where [`SpmvEngine::prepare`] does (e.g. an empty matrix on the
    /// sharded engine) — re-raised on the caller *after* the cache lock
    /// is released, so other tenants keep serving — and on a 64-bit
    /// fingerprint collision (the resident matrix's shape differs):
    /// failing loudly beats serving one tenant another tenant's plan.
    pub fn prepare(&self, csr: &Csr) -> MatrixKey {
        let key = MatrixKey(csr.fingerprint());
        let shape = (csr.rows(), csr.cols(), csr.nnz());
        let hit = |plans: &PlanMap| {
            let Some(slot) = plans.get(&key.0) else {
                return false;
            };
            let resident = (slot.rows, slot.cols, slot.nnz);
            assert!(
                resident == shape,
                "fingerprint collision on {key}: resident plan is {resident:?}, \
                 prepared matrix is {shape:?} (rows, cols, nnz)"
            );
            self.inner.stats.plan_cache_hits.bump();
            true
        };
        if hit(&self.inner.plans_read()) {
            return key;
        }
        let mut plans = self
            .inner
            .plans
            .write()
            // nmpic-lint: allow(L2) — invariant: the build panic below is caught before it can unwind past this guard, so the lock is never poisoned
            .expect("plan cache lock");
        if hit(&plans) {
            return key;
        }
        // Build under the write lock so a concurrent duplicate first
        // prepare waits and hits; catch a build panic so it unwinds on
        // the caller without poisoning the cache for other tenants.
        match catch_unwind(AssertUnwindSafe(|| self.inner.engine.prepare(csr))) {
            Ok(plan) => {
                let (rows, cols, nnz) = shape;
                // nmpic-lint: allow(L7) — constructor for the audited `PlanSlot::plan` lock
                let plan = Mutex::new(plan);
                let slot = PlanSlot {
                    rows,
                    cols,
                    nnz,
                    plan,
                };
                plans.insert(key.0, Arc::new(slot));
                self.inner.stats.plans_prepared.bump();
                key
            }
            Err(payload) => {
                drop(plans);
                resume_unwind(payload);
            }
        }
    }

    /// `true` when `key` names a resident plan.
    pub fn contains(&self, key: MatrixKey) -> bool {
        self.inner.plans_read().contains_key(&key.0)
    }

    /// `(rows, cols)` of the keyed matrix, for submission validation.
    fn shape(&self, key: MatrixKey) -> Result<(usize, usize), ServiceError> {
        let plans = self.inner.plans_read();
        let slot = plans.get(&key.0).ok_or(ServiceError::UnknownMatrix(key))?;
        Ok((slot.rows, slot.cols))
    }

    /// Enqueues one request (`y = A·x` for the keyed matrix) on the
    /// key's lane and returns the ticket its result is redeemable under
    /// once the drain publishes it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownMatrix`] for an unprepared key,
    /// [`ServiceError::WrongVectorLength`] for a mis-sized vector,
    /// [`ServiceError::LaneQuarantined`] for a quarantined lane, and
    /// [`ServiceError::TenantQuotaExceeded`] once the lane is full.
    pub fn submit(&self, key: MatrixKey, x: Vec<f64>) -> Result<Ticket, ServiceError> {
        let (_, cols) = self.shape(key)?;
        if x.len() != cols {
            return Err(ServiceError::WrongVectorLength {
                expected: cols,
                got: x.len(),
            });
        }
        self.admit(key, Work::Spmv(x))
    }

    /// Enqueues one iterative solve on the same lane as the keyed
    /// matrix's one-shot SpMVs (they share the quota); redeemed with
    /// [`SpmvService::take_solve`] / [`SpmvService::wait_solve`].
    ///
    /// # Errors
    ///
    /// As [`SpmvService::submit`] (the vector being a CG right-hand
    /// side), plus [`ServiceError::InvalidDamping`] for a damping
    /// factor outside `(0, 1]` and [`ServiceError::NotSquare`] when
    /// `rows != cols`.
    pub fn submit_solve(
        &self,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
    ) -> Result<Ticket, ServiceError> {
        if !opts.damping.is_finite() || opts.damping <= 0.0 || opts.damping > 1.0 {
            return Err(ServiceError::InvalidDamping);
        }
        let (rows, cols) = self.shape(key)?;
        if rows != cols {
            return Err(ServiceError::NotSquare { rows, cols });
        }
        if let SolveRequest::Cg { b } = &request {
            if b.len() != cols {
                return Err(ServiceError::WrongVectorLength {
                    expected: cols,
                    got: b.len(),
                });
            }
        }
        self.admit(key, Work::Solve(request, opts))
    }

    /// The admission path: ticket allocation, quarantine check,
    /// per-lane quota, enqueue, and worker wakeup.
    fn admit(&self, key: MatrixKey, work: Work) -> Result<Ticket, ServiceError> {
        let inner = &self.inner;
        let li = key.lane();
        // Relaxed: the sequence counter only needs uniqueness and
        // per-thread monotonicity for ticket ids.
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let ticket = Ticket::new(seq, li, matches!(work, Work::Solve(..)));
        let pending = Pending {
            ticket,
            key,
            enqueued_at: inner.clock.now_ns(),
            work,
        };
        {
            let mut st = inner.lanes[li].lock();
            // Checked under the lock quarantine() flushes the queue
            // under, so no request lands in a queue nobody drains.
            if st.quarantined {
                return Err(ServiceError::LaneQuarantined { key });
            }
            if st.queue.len() >= inner.lane_quota {
                drop(st);
                inner.stats.rejected.bump();
                return Err(ServiceError::TenantQuotaExceeded {
                    key,
                    quota: inner.lane_quota,
                });
            }
            st.tickets.insert(ticket.0, None);
            st.queue.push_back(pending);
            // Counted before the drain can see the request, so
            // `in_flight` never dips below the truth.
            inner.stats.submitted.bump();
            inner.in_flight.fetch_add(1, Ordering::AcqRel);
        }
        for w in &self.workers {
            w.unpark();
        }
        Ok(ticket)
    }

    /// Runs the drain on the calling thread until every lane is empty
    /// and returns the number of requests brought to a terminal state:
    /// *the* execution path in synchronous mode, a donation of the
    /// caller's thread otherwise.
    pub fn drain_now(&self) -> usize {
        let mut total = 0;
        loop {
            match self.inner.drain_tick() {
                0 => return total,
                n => total += n,
            }
        }
    }

    /// One blocking step of `quiesce`/`wait`: without background
    /// workers the caller is the worker and drains inline. It parks,
    /// until a publish newer than epoch `seen` or for one slice, when
    /// the work is in other hands: a worker's, or — the inline drain
    /// finding nothing — another caller's.
    fn park_or_drive(&self, seen: u64) {
        if !self.workers.is_empty() || self.drain_now() == 0 {
            self.inner.signal.wait_since(seen);
        }
    }

    /// Blocks until every accepted request has reached a terminal
    /// state (published, failed, or evicted-after-publish).
    pub fn quiesce(&self) {
        loop {
            let seen = self.inner.signal.epoch();
            // Acquire pairs with the AcqRel decrement in publish().
            if self.inner.in_flight.load(Ordering::Acquire) == 0 {
                return;
            }
            self.park_or_drive(seen);
        }
    }

    /// The one redemption path under `take`/`take_solve`/`wait`/
    /// `wait_solve`: consumes the ticket's terminal entry from its
    /// lane. Non-blocking, a ticket with nothing to take yet is a
    /// [`ServiceError::WaitTimeout`] after zero slices.
    fn redeem(
        &self,
        ticket: Ticket,
        solve: bool,
        blocking: bool,
    ) -> Result<DoneEntry, ServiceError> {
        if ticket.is_solve() != solve {
            return Err(ServiceError::WrongTicketKind);
        }
        let Some(lane) = self.inner.lanes.get(ticket.lane()) else {
            return Err(ServiceError::ResultEvicted);
        };
        for _ in 0..WAIT_SLICES {
            let seen = self.inner.signal.epoch();
            let published = lane.lock().redeem(ticket.0, blocking)?;
            if let Some(entry) = published {
                self.inner.stats.taken.bump();
                return match entry {
                    DoneEntry::Failed { key } => Err(ServiceError::ExecutionFailed { key }),
                    entry => Ok(entry),
                };
            }
            if !blocking {
                break;
            }
            self.park_or_drive(seen);
        }
        Err(ServiceError::WaitTimeout)
    }

    /// Non-blocking redemption: removes and returns the completed
    /// result. `None` while the request is in flight, for a solve
    /// ticket, once the result is taken or evicted, and for a failed
    /// request ([`SpmvService::wait`] reports the failure).
    pub fn take(&self, ticket: Ticket) -> Option<Completed> {
        match self.redeem(ticket, false, false) {
            Ok(DoneEntry::Spmv(c)) => Some(c),
            _ => None,
        }
    }

    /// Non-blocking redemption of a solve ticket; mirror of
    /// [`SpmvService::take`].
    pub fn take_solve(&self, ticket: Ticket) -> Option<CompletedSolve> {
        match self.redeem(ticket, true, false) {
            Ok(DoneEntry::Solve(c)) => Some(c),
            _ => None,
        }
    }

    /// Blocks until the ticket's result is published, then removes and
    /// returns it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WrongTicketKind`] for a solve ticket,
    /// [`ServiceError::ExecutionFailed`] for a failed request,
    /// [`ServiceError::ResultEvicted`] when the result is gone (taken,
    /// aged out, or never issued), and [`ServiceError::WaitTimeout`]
    /// after the 60 s safety valve.
    pub fn wait(&self, ticket: Ticket) -> Result<Completed, ServiceError> {
        match self.redeem(ticket, false, true)? {
            DoneEntry::Spmv(c) => Ok(c),
            // The kind bit checked by redeem() rules this arm out.
            _ => Err(ServiceError::ResultEvicted),
        }
    }

    /// Mirror of [`SpmvService::wait`] for a solve ticket.
    ///
    /// # Errors
    ///
    /// As [`SpmvService::wait`], with [`ServiceError::WrongTicketKind`]
    /// for a non-solve ticket.
    pub fn wait_solve(&self, ticket: Ticket) -> Result<CompletedSolve, ServiceError> {
        match self.redeem(ticket, true, true)? {
            DoneEntry::Solve(c) => Ok(c),
            _ => Err(ServiceError::ResultEvicted),
        }
    }

    /// Convenience for a single request: submit and wait.
    ///
    /// # Errors
    ///
    /// Those of [`SpmvService::submit`] and [`SpmvService::wait`].
    pub fn run(&self, key: MatrixKey, x: Vec<f64>) -> Result<Completed, ServiceError> {
        let ticket = self.submit(key, x)?;
        self.wait(ticket)
    }

    /// Convenience for a single solve: submit and wait.
    ///
    /// # Errors
    ///
    /// Those of [`SpmvService::submit_solve`] and
    /// [`SpmvService::wait_solve`].
    pub fn solve(
        &self,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
    ) -> Result<CompletedSolve, ServiceError> {
        let ticket = self.submit_solve(key, request, opts)?;
        self.wait_solve(ticket)
    }

    /// Chaos-testing hook: the next drain execution for `key` panics
    /// before touching the plan, exercising the lane-quarantine path
    /// end to end. One shot: the hook disarms when it fires.
    pub fn inject_batch_panic(&self, key: MatrixKey) {
        self.inner.chaos_key.store(key.0, Ordering::Release);
        // Release pairs with maybe_chaos()'s Acquire load; armed is
        // stored after the key so an armed observer sees the key.
        self.inner.chaos_armed.store(true, Ordering::Release);
    }
}

// The whole point of the type: it is shared across submitting threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpmvService>();
};
