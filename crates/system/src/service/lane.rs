//! One submission lane: its bounded queue, the accepted-ticket set, the
//! completion map, and the completion [`Signal`] waiters park on.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize};
// nmpic-lint: allow(L7) — the audited lock inventory of this module: the per-lane state mutex and the completion-signal mutex; each construction site carries its own audit marker
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use super::{Completed, CompletedSolve, MatrixKey, SolveRequest};
use crate::solve::SolveOptions;

/// One request parked in a lane queue.
pub(super) enum Pending {
    Spmv {
        id: u64,
        key: MatrixKey,
        x: Vec<f64>,
        enqueued_at: u64,
    },
    Solve {
        id: u64,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
        enqueued_at: u64,
    },
}

impl Pending {
    pub(super) fn id(&self) -> u64 {
        match self {
            Pending::Spmv { id, .. } | Pending::Solve { id, .. } => *id,
        }
    }

    pub(super) fn key(&self) -> MatrixKey {
        match self {
            Pending::Spmv { key, .. } | Pending::Solve { key, .. } => *key,
        }
    }
}

/// A published terminal state for one ticket.
pub(super) enum DoneEntry {
    Spmv(Completed),
    Solve(CompletedSolve),
    /// The batch carrying this request panicked (or its lane was
    /// quarantined while it was queued).
    Failed {
        key: MatrixKey,
    },
}

/// Everything a lane guards: its bounded queue, the set of accepted but
/// not-yet-published ticket ids, and its completion map. One short-held
/// mutex per lane — cross-lane traffic never contends.
pub(super) struct LaneState {
    pub(super) queue: VecDeque<Pending>,
    /// Ticket ids accepted into this lane and not yet published, so
    /// `wait` can distinguish "still in flight" from "gone".
    pub(super) outstanding: HashSet<u64>,
    /// Published results keyed by ticket id (monotone per lane), so
    /// retention eviction drops the **oldest** first.
    pub(super) done: BTreeMap<u64, DoneEntry>,
}

pub(super) struct Lane {
    // nmpic-lint: allow(L7) — audited: the one lane lock; held only for queue push/pop and completion-map insert/remove, never across plan execution
    state: Mutex<LaneState>,
    /// Mirror of `queue.len()` maintained under the lock, so
    /// [`SpmvService::pending`] needs no locks.
    pub(super) queued: AtomicUsize,
    /// Set (never cleared) when a drain worker panics executing this
    /// lane's batch; the lane fails its queue and refuses admission.
    pub(super) quarantined: AtomicBool,
}

impl Lane {
    pub(super) fn new() -> Self {
        Lane {
            // nmpic-lint: allow(L7) — constructor for the audited `Lane::state` lock
            state: Mutex::new(LaneState {
                queue: VecDeque::new(),
                outstanding: HashSet::new(),
                done: BTreeMap::new(),
            }),
            queued: AtomicUsize::new(0),
            quarantined: AtomicBool::new(false),
        }
    }

    pub(super) fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state
            .lock()
            // nmpic-lint: allow(L2) — invariant: no panic can unwind while this lock is held (queue and map ops only; plan execution happens outside it), so it is never poisoned
            .expect("lane state lock")
    }
}

/// Completion signal: waiters park here between checks; the drain
/// notifies after every publish.
pub(super) struct Signal {
    // nmpic-lint: allow(L7) — audited: condvar companion mutex guarding only a wakeup epoch; held for a handful of instructions
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Signal {
    pub(super) fn new() -> Self {
        Signal {
            // nmpic-lint: allow(L7) — constructor for the audited `Signal::epoch` lock
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    pub(super) fn notify(&self) {
        let mut e = self
            .epoch
            .lock()
            // nmpic-lint: allow(L2) — invariant: only the two tiny methods of this type take the lock and neither can panic while holding it
            .expect("signal lock");
        *e = e.wrapping_add(1);
        self.cv.notify_all();
    }

    /// Blocks for at most one wait slice (or until a notify).
    pub(super) fn wait_slice(&self) {
        let guard = self
            .epoch
            .lock()
            // nmpic-lint: allow(L2) — invariant: only the two tiny methods of this type take the lock and neither can panic while holding it
            .expect("signal lock");
        // A notify between the caller's condition check and this wait is
        // lost, but the timeout bounds the stall to one slice.
        let _ = self.cv.wait_timeout(guard, WAIT_SLICE);
    }
}

const WAIT_SLICE: Duration = Duration::from_millis(5);
/// `wait` safety valve: 12k slices × 5 ms = 60 s.
pub(super) const WAIT_SLICES: u32 = 12_000;
