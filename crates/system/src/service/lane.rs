//! The vocabulary of a lane: the [`Ticket`] that routes a redemption
//! back to its lane, the queued [`Pending`] request, what a ticket
//! redeems to ([`Completed`], [`CompletedSolve`], [`ServiceError`]), the
//! lane's queue and ticket map, and the completion [`Signal`] waiters
//! park on.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
// nmpic-lint: allow(L7) — the audited lock inventory of this file: the per-lane state mutex and the completion-signal mutex; each construction site carries its own audit marker
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use super::MatrixKey;
#[cfg(doc)]
use super::{SpmvService, RESULT_RETENTION_FACTOR};
use crate::solve::{SolveOptions, SolveReport};
#[cfg(doc)]
use crate::{engine::SpmvPlan, solve::Solver};

/// Lane index bits packed into the low end of a ticket id.
const LANE_BITS: u32 = 8;
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;
/// Bit distinguishing solve tickets from one-shot SpMV tickets.
const SOLVE_BIT: u64 = 1 << LANE_BITS;
const SEQ_SHIFT: u32 = LANE_BITS + 1;

/// Most lanes a ticket can address (`LANE_BITS` of lane index).
pub(super) const MAX_LANES: usize = 1 << LANE_BITS;

/// A claim on one submitted request's result: redeemed non-blocking with
/// [`SpmvService::take`] once the drain has published it, or blocking
/// with [`SpmvService::wait`]. Tickets encode their lane and request
/// kind, so redemption touches only the lane the request lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub(super) u64);

impl Ticket {
    pub(super) fn new(seq: u64, lane: usize, solve: bool) -> Self {
        let kind = if solve { SOLVE_BIT } else { 0 };
        Ticket((seq << SEQ_SHIFT) | kind | lane as u64)
    }

    /// The submission lane this ticket's request was queued on.
    pub fn lane(&self) -> usize {
        (self.0 & LANE_MASK) as usize
    }

    pub(super) fn is_solve(&self) -> bool {
        self.0 & SOLVE_BIT != 0
    }

    pub(super) fn seq(&self) -> u64 {
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
    /// requests; back off until the drain catches up.
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
    /// A solve was submitted against a non-square matrix — iterating
    /// an operator needs `rows == cols`.
    NotSquare {
        /// Rows of the keyed matrix.
        rows: usize,
        /// Columns of the keyed matrix.
        cols: usize,
    },
    /// A solve was submitted with a damping factor outside `(0, 1]`;
    /// rejected eagerly so the solver cannot panic inside a drain
    /// worker and quarantine the whole lane.
    InvalidDamping,
    /// The unredeemed result aged out of the bounded retention window
    /// ([`RESULT_RETENTION_FACTOR`]), was already taken, or the ticket
    /// was never issued by this service.
    ResultEvicted,
    /// The key's lane was quarantined after a drain panic: its queued
    /// requests failed and it refuses new ones. Other lanes keep serving.
    LaneQuarantined {
        /// The tenant key whose lane is quarantined.
        key: MatrixKey,
    },
    /// The request was accepted but its execution panicked (the lane is
    /// quarantined; see [`ServiceError::LaneQuarantined`]).
    ExecutionFailed {
        /// The matrix the failed request ran against.
        key: MatrixKey,
    },
    /// [`SpmvService::wait`] hit its safety-valve timeout — the ticket
    /// may still complete.
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

/// What a queued request asks the drain to run.
pub(super) enum Work {
    /// One `y = A·x`.
    Spmv(Vec<f64>),
    Solve(SolveRequest, SolveOptions),
}

/// One request parked in a lane queue.
pub(super) struct Pending {
    pub(super) ticket: Ticket,
    pub(super) key: MatrixKey,
    pub(super) enqueued_at: u64,
    pub(super) work: Work,
}

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
/// [`SpmvService::take_solve`] /
/// [`SpmvService::wait_solve`].
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

/// A published terminal state for one ticket.
pub(super) enum DoneEntry {
    Spmv(Completed),
    Solve(CompletedSolve),
    /// The job carrying this request panicked or found its plan
    /// poisoned, or the lane was quarantined while it was queued.
    Failed {
        key: MatrixKey,
    },
}

/// Everything a lane's mutex guards; cross-lane traffic never contends.
#[derive(Default)]
pub(super) struct LaneState {
    pub(super) queue: VecDeque<Pending>,
    /// Every ticket accepted here and neither redeemed nor evicted yet:
    /// `None` while in flight, `Some` once published. Ids grow with
    /// submission order, so the first `Some` is the oldest result.
    pub(super) tickets: BTreeMap<u64, Option<DoneEntry>>,
    /// Number of `Some` entries in `tickets`.
    pub(super) retained: usize,
    /// Set (never cleared) when a drain panics executing this lane's
    /// batch; the lane then refuses admission.
    pub(super) quarantined: bool,
}

impl LaneState {
    /// Removes and returns the ticket's published entry; `Ok(None)`
    /// while it is in flight, and for a failure notice unless the
    /// caller takes `failures` (`take` leaves it for `wait` to report).
    /// [`ServiceError::ResultEvicted`] for a ticket neither published
    /// nor in flight: taken, evicted, or never issued.
    pub(super) fn redeem(
        &mut self,
        id: u64,
        failures: bool,
    ) -> Result<Option<DoneEntry>, ServiceError> {
        let Entry::Occupied(slot) = self.tickets.entry(id) else {
            return Err(ServiceError::ResultEvicted);
        };
        match slot.get() {
            None => Ok(None),
            Some(DoneEntry::Failed { .. }) if !failures => Ok(None),
            Some(_) => {
                self.retained -= 1;
                Ok(slot.remove())
            }
        }
    }

    /// Drops the oldest published entries beyond the `retention` window
    /// and returns how many went.
    pub(super) fn evict_overflow(&mut self, retention: usize) -> u64 {
        let mut evicted = 0;
        while self.retained > retention {
            let oldest = self.tickets.iter().find(|(_, e)| e.is_some());
            let Some((&id, _)) = oldest else { break };
            self.tickets.remove(&id);
            self.retained -= 1;
            evicted += 1;
        }
        evicted
    }
}

#[derive(Default)]
pub(super) struct Lane {
    // nmpic-lint: allow(L7) — audited: the one lane lock; held only for queue push/pop and ticket-map insert/remove, never across plan execution
    state: Mutex<LaneState>,
}

impl Lane {
    pub(super) fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state
            .lock()
            // nmpic-lint: allow(L2) — invariant: no panic can unwind while this lock is held (queue and map ops only; plan execution happens outside it), so it is never poisoned
            .expect("lane state lock")
    }
}

/// Completion signal: the drain bumps the epoch after every publish;
/// waiters read the epoch, check their condition, then park until the
/// epoch moves on — a publish between check and park is not lost.
#[derive(Default)]
pub(super) struct Signal {
    // nmpic-lint: allow(L7) — audited: condvar companion mutex guarding only the wakeup epoch; held for a handful of instructions
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Signal {
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.epoch
            .lock()
            // nmpic-lint: allow(L2) — invariant: only the three tiny methods below take the lock and none can panic while holding it
            .expect("signal lock")
    }

    /// Read *before* checking the awaited condition; hand the value
    /// to [`Signal::wait_since`].
    pub(super) fn epoch(&self) -> u64 {
        *self.lock()
    }

    pub(super) fn notify(&self) {
        let mut e = self.lock();
        *e = e.wrapping_add(1);
        self.cv.notify_all();
    }

    /// Blocks until the epoch differs from `seen` or one wait slice
    /// elapses; `true` when it was a notify that ended the wait.
    pub(super) fn wait_since(&self, seen: u64) -> bool {
        self.cv
            .wait_timeout_while(self.lock(), WAIT_SLICE, |e| *e == seen)
            .is_ok_and(|(_, timeout)| !timeout.timed_out())
    }
}

const WAIT_SLICE: Duration = Duration::from_millis(5);
/// `wait` safety valve: 12k slices × 5 ms = 60 s.
pub(super) const WAIT_SLICES: u32 = 12_000;
