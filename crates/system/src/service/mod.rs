//! Multi-tenant SpMV serving: a concurrency-native façade over
//! [`SpmvEngine`] with sharded submission lanes, a background drain, and
//! tail-latency accounting.
//!
//! The session API ([`SpmvEngine::prepare`] → [`SpmvPlan::run`])
//! amortizes preparation across one caller's vectors, but a serving
//! deployment has many callers: tenants submit (matrix, vector) requests
//! concurrently, and most of them hit a small set of resident matrices.
//! [`SpmvService`] closes that gap with four mechanisms:
//!
//! 1. **Plan cache** — plans are keyed by [`Csr::fingerprint`]
//!    (dimensions + nnz + content hash). [`SpmvService::prepare`] returns
//!    a [`MatrixKey`]; re-preparing an already-resident matrix is a cache
//!    hit that reuses the warm DRAM image instead of rebuilding layout
//!    and partitions. Hits and misses are counted in [`ServiceStats`].
//! 2. **Sharded submission lanes** — requests hash by [`MatrixKey`] into
//!    a fixed array of independent lanes, each with its own bounded
//!    queue, so tenants of different matrices never contend on a shared
//!    lock at submission. Admission is a per-lane decision: once a
//!    lane holds its quota, further submissions for its keys get
//!    [`ServiceError::TenantQuotaExceeded`] naming the rejecting tenant
//!    key — one hub tenant's burst cannot close the door on the others.
//! 3. **Background drain** — dedicated drain worker threads
//!    ([`nmpic_sim::pool::BackgroundWorker`]) pull lanes round-robin,
//!    a bounded batch per lane per turn (SparseP-style fairness: a
//!    skewed tenant cannot starve the rest), group same-matrix requests
//!    into **one** [`SpmvPlan::run_batch`] call each, and publish
//!    results into per-lane completion maps. [`SpmvService::take`] is a
//!    non-blocking single-lane lookup for completed tickets;
//!    [`SpmvService::wait`] blocks until the drain publishes. Retention
//!    and eviction run on the drain side. With
//!    [`ServiceBuilder::drain_workers`]`(0)` the service is synchronous:
//!    callers drive the same drain via [`SpmvService::drain_now`] — the
//!    deterministic mode tests use.
//! 4. **Latency accounting** — every request records its
//!    enqueue→publish latency (through an injectable [`Clock`], so
//!    library code never reads the wall clock and tests stay
//!    deterministic) into a streaming
//!    [`nmpic_sim::stats::Histogram`]; [`SpmvService::latency`] reports
//!    p50/p99/p999/mean/max.
//!
//! Every execution is byte-identical to the serial single-tenant path
//! ([`SpmvPlan::run`]): batching, lanes, and drain concurrency change
//! *when* work happens, never what the simulated hardware computes.
//!
//! # Migration from the single-mutex service (PR 9 → PR 10)
//!
//! | old API | new API |
//! |---------|---------|
//! | `collect()` (caller-driven batch) | background drain ([`ServiceBuilder::drain_workers`], default 1); `drain_now()` in synchronous mode; `quiesce()` to wait for in-flight work |
//! | `take(t)` → `None` until collected | unchanged contract, now per-lane and non-blocking; `wait(t)` blocks until published |
//! | `ServiceError::QueueFull { capacity }` | [`ServiceError::TenantQuotaExceeded`]` { key, quota }` — admission is per-lane and names the rejecting tenant |
//! | `with_queue_capacity(engine, n)` | `SpmvService::builder(engine).lane_quota(n).build()` |
//! | poisoned-mutex recovery (`lock_state`) | retired: plan building happens such that no panic unwinds while a lock is held; a drain-worker panic **quarantines one lane** ([`ServiceError::LaneQuarantined`]) and the rest keep serving |
//! | `stats()` under the state mutex | lock-free atomic counters, same [`ServiceStats`] snapshot (plus `failed`/`taken`) |
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
// nmpic-lint: allow(L7) — the audited lock inventory of this module: the per-plan execution mutexes and the plan-cache RwLock; each construction site carries its own audit marker
use std::sync::{Arc, Mutex, RwLock};

use nmpic_sim::pool::BackgroundWorker;
use nmpic_sim::stats::Histogram;
use nmpic_sparse::Csr;

use crate::engine::{SpmvEngine, SpmvPlan};
use crate::solve::{SolveOptions, SolveReport};

use lane::{DoneEntry, Lane, Pending, Signal, WAIT_SLICES};
use stats::AtomicStats;
pub use stats::{Clock, LatencySnapshot, LogicalClock, ServiceStats};

/// Identifies a prepared matrix inside a [`SpmvService`]'s plan cache.
///
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
}

impl fmt::Display for MatrixKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix:{:016x}", self.0)
    }
}

/// Lane index bits packed into the low end of a ticket id.
const LANE_BITS: u32 = 8;
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;
/// Bit distinguishing solve tickets from one-shot SpMV tickets.
const SOLVE_BIT: u64 = 1 << LANE_BITS;
const SEQ_SHIFT: u32 = LANE_BITS + 1;

/// Hard upper bound on [`ServiceBuilder::lanes`] (lane index must fit
/// in a ticket's `LANE_BITS`).
pub const MAX_LANES: usize = 1 << LANE_BITS;

/// A claim on one submitted request's result: redeemed non-blocking with
/// [`SpmvService::take`] once the background drain has published it, or
/// blocking with [`SpmvService::wait`].
///
/// Tickets encode their lane and request kind, so redemption touches
/// only the one lane the request lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    fn new(seq: u64, lane: usize, solve: bool) -> Self {
        let kind = if solve { SOLVE_BIT } else { 0 };
        Ticket((seq << SEQ_SHIFT) | kind | lane as u64)
    }

    /// The submission lane this ticket's request was queued on.
    pub fn lane(&self) -> usize {
        (self.0 & LANE_MASK) as usize
    }

    fn is_solve(&self) -> bool {
        self.0 & SOLVE_BIT != 0
    }

    fn seq(&self) -> u64 {
        self.0 >> SEQ_SHIFT
    }
}

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket:{}@lane{}", self.seq(), self.lane())
    }
}

/// Why a submission or redemption failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The key does not name a prepared matrix (call
    /// [`SpmvService::prepare`] first).
    UnknownMatrix(MatrixKey),
    /// The tenant's lane already holds its admission quota of pending
    /// requests; back off until the drain catches up. Replaces the old
    /// global `QueueFull`: admission is per-lane, and the error names
    /// the rejecting tenant key instead of a service-wide capacity.
    TenantQuotaExceeded {
        /// The tenant key whose lane refused admission.
        key: MatrixKey,
        /// The per-lane quota that was hit.
        quota: usize,
    },
    /// The vector length does not match the matrix's column count.
    WrongVectorLength {
        /// Columns of the keyed matrix.
        expected: usize,
        /// Length of the submitted vector.
        got: usize,
    },
    /// A solve was submitted against a non-square matrix — iterative
    /// solvers apply the same operator repeatedly, which needs
    /// `rows == cols`.
    NotSquare {
        /// Rows of the keyed matrix.
        rows: usize,
        /// Columns of the keyed matrix.
        cols: usize,
    },
    /// A solve was submitted with a damping factor outside `(0, 1]`.
    /// Rejected eagerly so the solver cannot panic inside a drain
    /// worker and quarantine the whole lane.
    InvalidDamping,
    /// The request executed, but its unredeemed result aged out of the
    /// bounded retention window before it could be taken (see
    /// [`RESULT_RETENTION_FACTOR`]), was already taken, or the ticket
    /// was never issued by this service.
    ResultEvicted,
    /// The request's lane was quarantined after a drain-worker panic;
    /// its queued requests were failed and new submissions are refused.
    /// Other lanes keep serving.
    LaneQuarantined {
        /// The tenant key whose lane is quarantined.
        key: MatrixKey,
    },
    /// The request was accepted but its execution panicked mid-batch
    /// (the lane is quarantined; see [`ServiceError::LaneQuarantined`]).
    ExecutionFailed {
        /// The matrix the failed request ran against.
        key: MatrixKey,
    },
    /// [`SpmvService::wait`] gave up after its safety-valve timeout
    /// without the result appearing — the ticket may still complete.
    WaitTimeout,
    /// A solve ticket was redeemed through the SpMV channel or vice
    /// versa (`wait` vs `wait_solve`).
    WrongTicketKind,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownMatrix(k) => {
                write!(f, "no prepared plan for {k}; call prepare() first")
            }
            ServiceError::TenantQuotaExceeded { key, quota } => {
                write!(
                    f,
                    "tenant {key} exceeded its lane quota ({quota} pending); \
                     wait for the background drain or take results first"
                )
            }
            ServiceError::WrongVectorLength { expected, got } => {
                write!(
                    f,
                    "vector length {got} does not match the matrix's {expected} columns"
                )
            }
            ServiceError::NotSquare { rows, cols } => {
                write!(
                    f,
                    "iterative solves need a square matrix, got {rows}x{cols}"
                )
            }
            ServiceError::InvalidDamping => {
                write!(f, "solve damping must be in (0, 1]")
            }
            ServiceError::ResultEvicted => {
                write!(
                    f,
                    "the result aged out of the bounded retention window, was already \
                     taken, or the ticket was never issued"
                )
            }
            ServiceError::LaneQuarantined { key } => {
                write!(
                    f,
                    "the lane serving {key} is quarantined after a drain-worker panic; \
                     other lanes keep serving"
                )
            }
            ServiceError::ExecutionFailed { key } => {
                write!(
                    f,
                    "execution panicked mid-batch for {key}; lane quarantined"
                )
            }
            ServiceError::WaitTimeout => {
                write!(f, "timed out waiting for the result to be published")
            }
            ServiceError::WrongTicketKind => {
                write!(
                    f,
                    "ticket kind mismatch: redeem multiplies with take/wait and \
                     solves with take_solve/wait_solve"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One finished request, redeemed by [`Ticket`].
#[derive(Debug, Clone)]
pub struct Completed {
    /// The ticket this result answers.
    pub ticket: Ticket,
    /// The matrix the request ran against.
    pub key: MatrixKey,
    /// The computed result vector `y = A·x`.
    pub y: Vec<f64>,
    /// Whether the batch this request rode in verified against the
    /// golden SpMV.
    pub verified: bool,
    /// The plan's system label (`base`, `pack256`, `sharded x4 (...)`).
    pub label: String,
    /// How many same-matrix requests shared the [`SpmvPlan::run_batch`]
    /// call (≥ 1).
    pub batched_with: usize,
    /// Amortized per-vector runtime of that batch, in 1 GHz cycles.
    pub cycles_per_vector: f64,
}

/// One iterative-solve request, queued next to one-shot SpMVs with
/// [`SpmvService::submit_solve`].
#[derive(Debug, Clone)]
pub enum SolveRequest {
    /// Conjugate gradient for `A·x = b` ([`Solver::cg`]); the matrix
    /// behind the key must be symmetric positive definite.
    Cg {
        /// Right-hand side (length = matrix dimension).
        b: Vec<f64>,
    },
    /// Dominant-eigenpair power iteration
    /// ([`Solver::power_iteration`]); damping comes from the submitted
    /// [`SolveOptions`].
    PowerIteration,
}

/// One finished solve, redeemed by [`Ticket`] via
/// [`SpmvService::take_solve`] / [`SpmvService::wait_solve`].
#[derive(Debug, Clone)]
pub struct CompletedSolve {
    /// The ticket this result answers.
    pub ticket: Ticket,
    /// The matrix the solve ran against.
    pub key: MatrixKey,
    /// The full solver report (iterates, residual trajectory, simulated
    /// cycle/traffic totals).
    pub report: SolveReport,
}

/// A cached plan plus the shape echo used for collision checks and
/// submission validation without touching the plan's own lock.
struct PlanSlot {
    rows: usize,
    cols: usize,
    nnz: usize,
    // nmpic-lint: allow(L7) — audited: per-plan execution lock so two lanes' drains of the same matrix serialize on the plan, not on each other's lanes
    plan: Mutex<SpmvPlan>,
}

type PlanMap = HashMap<u64, Arc<PlanSlot>>;

/// Default number of submission lanes.
pub const DEFAULT_LANES: usize = 16;

/// Default per-lane admission quota (kept under its historical name:
/// before the lane refactor this was the single global queue bound).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Most requests a drain worker pops from one lane per turn — the
/// fairness bound that keeps a hub tenant from starving other lanes.
pub const DEFAULT_DRAIN_BATCH: usize = 32;

/// Unredeemed published results are retained per lane up to this
/// multiple of the lane quota; beyond that the drain evicts the oldest
/// first (counted in [`ServiceStats::evicted`]).
pub const RESULT_RETENTION_FACTOR: usize = 4;

/// Shared interior of a [`SpmvService`]: everything the drain workers
/// and the public handle both touch.
struct ServiceInner {
    engine: SpmvEngine,
    lanes: Vec<Lane>,
    lane_quota: usize,
    drain_batch: usize,
    drain_workers: usize,
    // nmpic-lint: allow(L7) — audited: plan-cache map lock; reads are short clone-an-Arc lookups, writes only on first preparation of a matrix
    plans: RwLock<PlanMap>,
    stats: AtomicStats,
    latency: Histogram,
    clock: Arc<dyn Clock>,
    next_seq: AtomicU64,
    /// Accepted requests not yet at a terminal state; `quiesce` waits
    /// for this to reach zero.
    in_flight: AtomicU64,
    /// Round-robin start cursor so multiple drain workers spread over
    /// the lanes instead of convoying on lane 0.
    cursor: AtomicUsize,
    /// Chaos hook: when armed, the drain panics before executing the
    /// keyed matrix's next group (see
    /// [`SpmvService::inject_batch_panic`]).
    chaos_armed: AtomicBool,
    chaos_key: AtomicU64,
    signal: Signal,
}

/// Configures and builds a [`SpmvService`]; obtained from
/// [`SpmvService::builder`].
pub struct ServiceBuilder {
    engine: SpmvEngine,
    lanes: usize,
    lane_quota: usize,
    drain_workers: usize,
    drain_batch: usize,
    clock: Arc<dyn Clock>,
}

impl ServiceBuilder {
    /// Number of submission lanes (1..=[`MAX_LANES`]); default
    /// [`DEFAULT_LANES`]. More lanes = less cross-tenant contention.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or exceeds [`MAX_LANES`].
    pub fn lanes(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&n),
            "lanes must be in 1..={MAX_LANES}"
        );
        self.lanes = n;
        self
    }

    /// Per-lane admission quota; default [`DEFAULT_QUEUE_CAPACITY`].
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
    /// **synchronous** service: nothing executes until a caller drives
    /// [`SpmvService::drain_now`] (or blocks in `wait`/`quiesce`, which
    /// drive it for them) — the deterministic mode for tests.
    pub fn drain_workers(mut self, n: usize) -> Self {
        self.drain_workers = n;
        self
    }

    /// Most requests the drain pops from one lane per turn; default
    /// [`DEFAULT_DRAIN_BATCH`].
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn drain_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "drain batch must be positive");
        self.drain_batch = n;
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
            lanes: (0..self.lanes).map(|_| Lane::new()).collect(),
            lane_quota: self.lane_quota,
            drain_batch: self.drain_batch,
            drain_workers: self.drain_workers,
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
            signal: Signal::new(),
        });
        let workers = (0..self.drain_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                BackgroundWorker::spawn(&format!("nmpic-drain-{i}"), move || inner.drain_tick())
            })
            .collect();
        SpmvService { inner, workers }
    }
}

/// A concurrent multi-tenant SpMV service: one [`SpmvEngine`]
/// configuration, a fingerprint-keyed plan cache, sharded per-tenant
/// submission lanes, and a background drain. `&self` everywhere — share
/// it across threads as `Arc<SpmvService>` or by reference from scoped
/// threads.
///
/// There is no global serving lock. Submission touches only the
/// tenant's lane; the drain executes outside all lane locks and
/// publishes under the one lane it drained; statistics are independent
/// atomics. A drain-worker panic quarantines the one lane it was
/// draining ([`ServiceError::LaneQuarantined`]) — the panic is caught,
/// the lane's requests fail loudly, and every other lane keeps serving.
///
/// See the module-level docs for the migration table from the old
/// single-mutex API.
pub struct SpmvService {
    inner: Arc<ServiceInner>,
    /// Drain worker handles; dropping the service stops and joins them.
    workers: Vec<BackgroundWorker>,
}

impl ServiceInner {
    fn lane_index(&self, key: MatrixKey) -> usize {
        // The fingerprint is already hash-quality; modulo spreads keys
        // evenly over the lane array.
        (key.0 % self.lanes.len() as u64) as usize
    }

    fn plans_read(&self) -> std::sync::RwLockReadGuard<'_, PlanMap> {
        self.plans
            .read()
            // nmpic-lint: allow(L2) — invariant: prepare() catches any build panic before unwinding past the write guard, so the plan-cache lock is never poisoned
            .expect("plan cache lock")
    }
}

impl SpmvService {
    /// A builder over `engine` with the defaults: [`DEFAULT_LANES`]
    /// lanes, a [`DEFAULT_QUEUE_CAPACITY`] per-lane quota, one drain
    /// worker, and the deterministic [`LogicalClock`].
    pub fn builder(engine: SpmvEngine) -> ServiceBuilder {
        ServiceBuilder {
            engine,
            lanes: DEFAULT_LANES,
            lane_quota: DEFAULT_QUEUE_CAPACITY,
            drain_workers: 1,
            drain_batch: DEFAULT_DRAIN_BATCH,
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

    /// Number of submission lanes.
    pub fn lane_count(&self) -> usize {
        self.inner.lanes.len()
    }

    /// The per-lane admission quota.
    pub fn lane_quota(&self) -> usize {
        self.inner.lane_quota
    }

    /// The lane a key's requests queue on — stable for the service's
    /// lifetime, exposed for tests and operational introspection.
    pub fn lane_of(&self, key: MatrixKey) -> usize {
        self.inner.lane_index(key)
    }

    /// Ensures a plan for `csr` is resident and returns its key.
    ///
    /// The key is the matrix's content fingerprint: preparing the same
    /// matrix again (any clone with identical content) is a cache hit
    /// that costs one hash of the arrays instead of a layout rebuild.
    /// Concurrent first preparations of the same matrix serialize on
    /// the cache's write lock — the second tenant waits and hits.
    ///
    /// # Panics
    ///
    /// Panics where [`SpmvEngine::prepare`] does (e.g. an empty matrix
    /// on the sharded engine) — the panic is re-raised on the calling
    /// thread *after* the cache lock is released, so a bad prepare no
    /// longer takes the service down with it — and on a 64-bit
    /// fingerprint collision (a cache hit whose resident matrix has a
    /// different shape than the one being prepared): failing loudly
    /// beats silently serving one tenant another tenant's plan.
    pub fn prepare(&self, csr: &Csr) -> MatrixKey {
        let key = MatrixKey(csr.fingerprint());
        {
            let plans = self.inner.plans_read();
            if let Some(slot) = plans.get(&key.0) {
                check_collision(slot, csr, key);
                self.inner.stats.plan_cache_hits.bump();
                return key;
            }
        }
        let mut plans = self
            .inner
            .plans
            .write()
            // nmpic-lint: allow(L2) — invariant: the build panic below is caught before it can unwind past this guard, so the lock is never poisoned
            .expect("plan cache lock");
        if let Some(slot) = plans.get(&key.0) {
            check_collision(slot, csr, key);
            self.inner.stats.plan_cache_hits.bump();
            return key;
        }
        // Build under the write lock so a concurrent duplicate first
        // prepare waits and hits; catch a build panic so it unwinds on
        // the caller without poisoning the cache for other tenants.
        match catch_unwind(AssertUnwindSafe(|| self.inner.engine.prepare(csr))) {
            Ok(plan) => {
                plans.insert(
                    key.0,
                    Arc::new(PlanSlot {
                        rows: csr.rows(),
                        cols: csr.cols(),
                        nnz: csr.nnz(),
                        // nmpic-lint: allow(L7) — constructor for the audited `PlanSlot::plan` lock
                        plan: Mutex::new(plan),
                    }),
                );
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

    /// Enqueues one request (`y = A·x` for the keyed matrix) on the
    /// key's lane and returns the ticket its result will be redeemable
    /// under once the background drain publishes it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownMatrix`] for an unprepared key,
    /// [`ServiceError::WrongVectorLength`] for a mis-sized vector,
    /// [`ServiceError::LaneQuarantined`] when the key's lane was
    /// quarantined by a drain panic, and
    /// [`ServiceError::TenantQuotaExceeded`] once the lane holds its
    /// quota of pending requests.
    pub fn submit(&self, key: MatrixKey, x: Vec<f64>) -> Result<Ticket, ServiceError> {
        let cols = {
            let plans = self.inner.plans_read();
            let Some(slot) = plans.get(&key.0) else {
                return Err(ServiceError::UnknownMatrix(key));
            };
            slot.cols
        };
        if x.len() != cols {
            return Err(ServiceError::WrongVectorLength {
                expected: cols,
                got: x.len(),
            });
        }
        let li = self.inner.lane_index(key);
        self.admit(li, key, |id, enqueued_at| Pending::Spmv {
            id,
            key,
            x,
            enqueued_at,
        })
    }

    /// Enqueues one iterative solve against the keyed matrix on the same
    /// lane as its one-shot SpMVs (they share the lane quota). The
    /// result is redeemed with [`SpmvService::take_solve`] /
    /// [`SpmvService::wait_solve`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidDamping`] for a damping factor outside
    /// `(0, 1]`, [`ServiceError::UnknownMatrix`] for an unprepared key,
    /// [`ServiceError::NotSquare`] when the keyed matrix cannot be
    /// iterated (`rows != cols`), [`ServiceError::WrongVectorLength`]
    /// when a CG right-hand side is mis-sized,
    /// [`ServiceError::LaneQuarantined`] for a quarantined lane, and
    /// [`ServiceError::TenantQuotaExceeded`] once the lane is full.
    pub fn submit_solve(
        &self,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
    ) -> Result<Ticket, ServiceError> {
        if !opts.damping.is_finite() || opts.damping <= 0.0 || opts.damping > 1.0 {
            return Err(ServiceError::InvalidDamping);
        }
        {
            let plans = self.inner.plans_read();
            let Some(slot) = plans.get(&key.0) else {
                return Err(ServiceError::UnknownMatrix(key));
            };
            if slot.rows != slot.cols {
                return Err(ServiceError::NotSquare {
                    rows: slot.rows,
                    cols: slot.cols,
                });
            }
            if let SolveRequest::Cg { b } = &request {
                if b.len() != slot.cols {
                    return Err(ServiceError::WrongVectorLength {
                        expected: slot.cols,
                        got: b.len(),
                    });
                }
            }
        }
        let li = self.inner.lane_index(key);
        self.admit(li, key, |id, enqueued_at| Pending::Solve {
            id,
            key,
            request,
            opts,
            enqueued_at,
        })
    }

    /// Shared admission path: quarantine check, per-lane quota, ticket
    /// allocation, enqueue, and worker wakeup.
    fn admit(
        &self,
        li: usize,
        key: MatrixKey,
        make: impl FnOnce(u64, u64) -> Pending,
    ) -> Result<Ticket, ServiceError> {
        let inner = &self.inner;
        let lane = &inner.lanes[li];
        // Acquire pairs with the Release store in quarantine().
        if lane.quarantined.load(Ordering::Acquire) {
            return Err(ServiceError::LaneQuarantined { key });
        }
        // Relaxed: the sequence counter only needs uniqueness and
        // per-thread monotonicity for ticket ids.
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let enqueued_at = inner.clock.now_ns();
        let mut st = lane.lock();
        if st.queue.len() >= inner.lane_quota {
            drop(st);
            inner.stats.rejected.bump();
            return Err(ServiceError::TenantQuotaExceeded {
                key,
                quota: inner.lane_quota,
            });
        }
        let pending = make(0, enqueued_at);
        let is_solve = matches!(pending, Pending::Solve { .. });
        let ticket = Ticket::new(seq, li, is_solve);
        let pending = match pending {
            Pending::Spmv {
                key,
                x,
                enqueued_at,
                ..
            } => Pending::Spmv {
                id: ticket.0,
                key,
                x,
                enqueued_at,
            },
            Pending::Solve {
                key,
                request,
                opts,
                enqueued_at,
                ..
            } => Pending::Solve {
                id: ticket.0,
                key,
                request,
                opts,
                enqueued_at,
            },
        };
        st.queue.push_back(pending);
        st.outstanding.insert(ticket.0);
        lane.queued.store(st.queue.len(), Ordering::Release);
        drop(st);
        inner.stats.submitted.bump();
        inner.in_flight.fetch_add(1, Ordering::AcqRel);
        for w in &self.workers {
            w.unpark();
        }
        Ok(ticket)
    }

    /// Drives the drain on the calling thread until every lane is
    /// empty, returning the number of requests brought to a terminal
    /// state. This is *the* execution path in synchronous mode
    /// ([`ServiceBuilder::drain_workers`]`(0)`); with background
    /// workers it is a way to donate the caller's thread to the drain.
    pub fn drain_now(&self) -> usize {
        let mut total = 0;
        loop {
            let mut round = 0;
            for li in 0..self.inner.lanes.len() {
                round += self.inner.drain_lane(li);
            }
            if round == 0 {
                return total;
            }
            total += round;
        }
    }

    /// Blocks until every accepted request has reached a terminal
    /// state (published, failed, or evicted-after-publish). In
    /// synchronous mode this drives the drain itself.
    pub fn quiesce(&self) {
        // Acquire pairs with the AcqRel decrements on the publish paths.
        while self.inner.in_flight.load(Ordering::Acquire) > 0 {
            if self.inner.drain_workers == 0 {
                self.drain_now();
            } else {
                self.inner.signal.wait_slice();
            }
        }
    }

    /// Non-blocking redemption: removes and returns the completed
    /// result. `None` while the request is queued or executing, for a
    /// solve ticket, after the result was already taken or evicted, and
    /// for a failed request (use [`SpmvService::wait`] to observe the
    /// failure as an error).
    pub fn take(&self, ticket: Ticket) -> Option<Completed> {
        if ticket.is_solve() {
            return None;
        }
        let lane = self.inner.lanes.get(ticket.lane())?;
        let mut st = lane.lock();
        match st.done.get(&ticket.0) {
            Some(DoneEntry::Spmv(_)) => match st.done.remove(&ticket.0) {
                Some(DoneEntry::Spmv(c)) => {
                    drop(st);
                    self.inner.stats.taken.bump();
                    Some(c)
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Non-blocking redemption of a solve ticket; mirror of
    /// [`SpmvService::take`].
    pub fn take_solve(&self, ticket: Ticket) -> Option<CompletedSolve> {
        if !ticket.is_solve() {
            return None;
        }
        let lane = self.inner.lanes.get(ticket.lane())?;
        let mut st = lane.lock();
        match st.done.get(&ticket.0) {
            Some(DoneEntry::Solve(_)) => match st.done.remove(&ticket.0) {
                Some(DoneEntry::Solve(c)) => {
                    drop(st);
                    self.inner.stats.taken.bump();
                    Some(c)
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Blocks until the ticket's result is published, then removes and
    /// returns it. In synchronous mode this drives the drain itself.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WrongTicketKind`] for a solve ticket,
    /// [`ServiceError::ExecutionFailed`] when the request's batch
    /// panicked, [`ServiceError::ResultEvicted`] when the result is
    /// gone (already taken, aged out, or the ticket was never issued),
    /// and [`ServiceError::WaitTimeout`] after the 60 s safety valve.
    pub fn wait(&self, ticket: Ticket) -> Result<Completed, ServiceError> {
        if ticket.is_solve() {
            return Err(ServiceError::WrongTicketKind);
        }
        match self.wait_entry(ticket)? {
            DoneEntry::Spmv(c) => Ok(c),
            // wait_entry only returns the matching-kind or Failed entry.
            _ => Err(ServiceError::ResultEvicted),
        }
    }

    /// Blocks until the solve ticket's result is published; mirror of
    /// [`SpmvService::wait`].
    ///
    /// # Errors
    ///
    /// As [`SpmvService::wait`], with [`ServiceError::WrongTicketKind`]
    /// for a non-solve ticket.
    pub fn wait_solve(&self, ticket: Ticket) -> Result<CompletedSolve, ServiceError> {
        if !ticket.is_solve() {
            return Err(ServiceError::WrongTicketKind);
        }
        match self.wait_entry(ticket)? {
            DoneEntry::Solve(c) => Ok(c),
            _ => Err(ServiceError::ResultEvicted),
        }
    }

    /// Core of `wait`/`wait_solve`: polls the ticket's lane between
    /// completion signals, consuming the terminal entry.
    fn wait_entry(&self, ticket: Ticket) -> Result<DoneEntry, ServiceError> {
        let Some(lane) = self.inner.lanes.get(ticket.lane()) else {
            return Err(ServiceError::ResultEvicted);
        };
        for _ in 0..WAIT_SLICES {
            if self.inner.drain_workers == 0 {
                self.drain_now();
            }
            {
                let mut st = lane.lock();
                if st.done.contains_key(&ticket.0) {
                    let entry = match st.done.remove(&ticket.0) {
                        Some(e) => e,
                        None => return Err(ServiceError::ResultEvicted),
                    };
                    drop(st);
                    self.inner.stats.taken.bump();
                    if let DoneEntry::Failed { key } = entry {
                        return Err(ServiceError::ExecutionFailed { key });
                    }
                    return Ok(entry);
                }
                if !st.outstanding.contains(&ticket.0) {
                    // Not published and not in flight: taken, evicted,
                    // or never issued.
                    return Err(ServiceError::ResultEvicted);
                }
            }
            self.inner.signal.wait_slice();
        }
        Err(ServiceError::WaitTimeout)
    }

    /// Convenience for a single request: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates [`SpmvService::submit`] and [`SpmvService::wait`]
    /// errors.
    pub fn run(&self, key: MatrixKey, x: Vec<f64>) -> Result<Completed, ServiceError> {
        let ticket = self.submit(key, x)?;
        self.wait(ticket)
    }

    /// Convenience for a single solve: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates [`SpmvService::submit_solve`] and
    /// [`SpmvService::wait_solve`] errors.
    pub fn solve(
        &self,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
    ) -> Result<CompletedSolve, ServiceError> {
        let ticket = self.submit_solve(key, request, opts)?;
        self.wait_solve(ticket)
    }

    /// Requests currently queued across all lanes (excludes batches a
    /// drain worker has already popped).
    pub fn pending(&self) -> usize {
        self.inner
            .lanes
            .iter()
            // Acquire pairs with the Release stores under the lane lock.
            .map(|l| l.queued.load(Ordering::Acquire))
            .sum()
    }

    /// Published results currently retained (un-taken) across all
    /// lanes. Bounded by `lane_count × `[`RESULT_RETENTION_FACTOR`]` ×
    /// lane_quota`.
    pub fn retained(&self) -> usize {
        self.inner.lanes.iter().map(|l| l.lock().done.len()).sum()
    }

    /// Number of lanes currently quarantined by drain panics.
    pub fn quarantined_lanes(&self) -> usize {
        self.inner
            .lanes
            .iter()
            // Acquire pairs with quarantine()'s Release store.
            .filter(|l| l.quarantined.load(Ordering::Acquire))
            .count()
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

    /// Chaos-testing hook: the next drain execution for `key` panics
    /// before touching the plan, exercising the lane-quarantine path
    /// end to end (the hook the quarantine robustness tests use). One
    /// shot: the hook disarms when it fires.
    pub fn inject_batch_panic(&self, key: MatrixKey) {
        self.inner.chaos_key.store(key.0, Ordering::Release);
        // Release pairs with maybe_chaos()'s Acquire load; armed is
        // stored after the key so an armed observer sees the key.
        self.inner.chaos_armed.store(true, Ordering::Release);
    }
}

/// Shape cross-check on every cache hit so a 64-bit fingerprint
/// collision between different matrices fails loudly instead of
/// silently serving one tenant another tenant's plan.
fn check_collision(slot: &PlanSlot, csr: &Csr, key: MatrixKey) {
    assert!(
        (slot.rows, slot.cols, slot.nnz) == (csr.rows(), csr.cols(), csr.nnz()),
        "fingerprint collision on {key}: resident plan is {}x{} ({} nnz), \
         prepared matrix is {}x{} ({} nnz)",
        slot.rows,
        slot.cols,
        slot.nnz,
        csr.rows(),
        csr.cols(),
        csr.nnz()
    );
}

// The whole point of the type: it is shared across submitting threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpmvService>();
};
