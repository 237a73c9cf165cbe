//! The drain side of the service: pop a bounded batch from a lane,
//! execute it outside the lane lock, publish terminal states, and
//! quarantine the lane when execution panics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::lane::{DoneEntry, LaneState, Pending};
use super::{
    Completed, CompletedSolve, MatrixKey, PlanSlot, ServiceInner, SolveRequest, Ticket,
    RESULT_RETENTION_FACTOR,
};
use crate::solve::{SolveOptions, Solver};

impl ServiceInner {
    /// One fairness turn: every lane gets at most one bounded batch,
    /// starting from a rotating cursor so concurrent workers spread
    /// out. Returns `true` when any lane had work (the worker loops
    /// again immediately).
    pub(super) fn drain_tick(&self) -> bool {
        let n = self.lanes.len();
        // Relaxed: the cursor is only a load-spreading hint; any
        // interleaving of fetch_adds still visits every lane below.
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut did = false;
        for off in 0..n {
            did |= self.drain_lane((start + off) % n) > 0;
        }
        did
    }

    /// Pops one bounded batch from a lane and executes it, catching
    /// panics into a lane quarantine. Returns the number of requests
    /// popped (all of which reach a terminal state before return).
    pub(super) fn drain_lane(&self, li: usize) -> usize {
        let lane = &self.lanes[li];
        // Acquire pairs with the Release store in quarantine().
        if lane.quarantined.load(Ordering::Acquire) {
            return 0;
        }
        let batch: Vec<Pending> = {
            let mut st = lane.lock();
            let take = self.drain_batch.min(st.queue.len());
            let batch: Vec<Pending> = st.queue.drain(..take).collect();
            lane.queued.store(st.queue.len(), Ordering::Release);
            batch
        };
        if batch.is_empty() {
            return 0;
        }
        let n = batch.len();
        // Identity metadata survives the batch being moved into the
        // execution closure, so a panic mid-batch can still fail the
        // exact tickets that were lost. `published[pos]` flips (under
        // the lane lock) the moment item `pos`'s result is inserted.
        let meta: Vec<(u64, MatrixKey)> = batch.iter().map(|p| (p.id(), p.key())).collect();
        let published: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        // AssertUnwindSafe: on Err every touched structure is either
        // lock-protected (poisoning is handled at each lock site) or
        // repaired by quarantine() below.
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.execute_batch(li, batch, &published)
        }));
        if run.is_err() {
            self.quarantine(li, &meta, &published);
        }
        n
    }

    /// Executes one popped batch: same-matrix one-shot requests group
    /// into a single `run_batch` (groups in first-appearance order),
    /// then solves run in pop order. Everything here runs **outside**
    /// the lane lock.
    fn execute_batch(&self, li: usize, batch: Vec<Pending>, published: &[AtomicBool]) {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<SpmvItemOwned>> = HashMap::new();
        let mut solves: Vec<(usize, u64, MatrixKey, SolveRequest, SolveOptions, u64)> = Vec::new();
        for (pos, p) in batch.into_iter().enumerate() {
            match p {
                Pending::Spmv {
                    id,
                    key,
                    x,
                    enqueued_at,
                } => {
                    if !groups.contains_key(&key.0) {
                        order.push(key.0);
                    }
                    groups
                        .entry(key.0)
                        .or_default()
                        .push((pos, id, x, enqueued_at, key));
                }
                Pending::Solve {
                    id,
                    key,
                    request,
                    opts,
                    enqueued_at,
                } => solves.push((pos, id, key, request, opts, enqueued_at)),
            }
        }
        for k in order {
            let items = groups
                .remove(&k)
                // nmpic-lint: allow(L2) — invariant: `order` holds exactly the keys inserted into `groups` by the loop above, each once
                .expect("grouped above");
            self.run_spmv_group(li, items, published);
        }
        for (pos, id, key, request, opts, enqueued_at) in solves {
            self.run_solve(li, pos, id, key, request, opts, enqueued_at, published);
        }
    }

    fn plan_slot(&self, key: MatrixKey) -> Arc<PlanSlot> {
        self.plans_read()
            .get(&key.0)
            .cloned()
            // nmpic-lint: allow(L2) — invariant: submit validated the key against the cache and plans are never evicted
            .expect("plan resident while queued")
    }

    fn maybe_chaos(&self, key: MatrixKey) {
        // Acquire pairs with the Release in inject_batch_panic().
        if self.chaos_armed.load(Ordering::Acquire)
            && self.chaos_key.load(Ordering::Acquire) == key.0
        {
            self.chaos_armed.store(false, Ordering::Release);
            // nmpic-lint: allow(L2) — deliberate: the documented chaos-testing hook; fires only after an explicit inject_batch_panic() call
            panic!("injected batch panic for {key} (chaos hook)");
        }
    }

    fn run_spmv_group(&self, li: usize, items: Vec<SpmvItemOwned>, published: &[AtomicBool]) {
        let key = items[0].4;
        self.maybe_chaos(key);
        let slot = self.plan_slot(key);
        let mut meta: Vec<(usize, u64, u64)> = Vec::with_capacity(items.len());
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(items.len());
        for (pos, id, x, enq, _) in items {
            meta.push((pos, id, enq));
            xs.push(x);
        }
        let report = match slot.plan.lock() {
            Ok(mut plan) => plan.run_batch(&xs),
            // A poisoned plan means a previous panic unwound mid-run on
            // another lane; its state is suspect, so this group fails
            // instead of recovering the lock (the old `into_inner`
            // policy is retired).
            Err(_) => {
                let failed: Vec<(u64, MatrixKey)> =
                    meta.iter().map(|&(_, id, _)| (id, key)).collect();
                let positions: Vec<usize> = meta.iter().map(|&(p, _, _)| p).collect();
                self.fail_items(li, &failed, &positions, published);
                return;
            }
        };
        let n = meta.len();
        let verified = report.verified;
        let label = report.label.clone();
        let cycles_per_vector = report.cycles_per_vector();
        let now = self.clock.now_ns();
        {
            let mut st = self.lanes[li].lock();
            for ((pos, id, enq), y) in meta.into_iter().zip(report.ys) {
                st.outstanding.remove(&id);
                st.done.insert(
                    id,
                    DoneEntry::Spmv(Completed {
                        ticket: Ticket(id),
                        key,
                        y,
                        verified,
                        label: label.clone(),
                        batched_with: n,
                        cycles_per_vector,
                    }),
                );
                // Relaxed: the flag is re-read only by this same thread's
                // quarantine path after catch_unwind returns.
                published[pos].store(true, Ordering::Relaxed);
                self.latency.record(now.saturating_sub(enq).max(1));
            }
            self.evict_overflow(&mut st);
        }
        self.stats.batches.bump();
        self.stats.completed.add(n as u64);
        self.in_flight.fetch_sub(n as u64, Ordering::AcqRel);
        self.signal.notify();
    }

    #[allow(clippy::too_many_arguments)]
    fn run_solve(
        &self,
        li: usize,
        pos: usize,
        id: u64,
        key: MatrixKey,
        request: SolveRequest,
        opts: SolveOptions,
        enqueued_at: u64,
        published: &[AtomicBool],
    ) {
        self.maybe_chaos(key);
        let slot = self.plan_slot(key);
        let report = match slot.plan.lock() {
            Ok(mut plan) => match &request {
                SolveRequest::Cg { b } => Solver::cg(&mut plan, b, &opts),
                SolveRequest::PowerIteration => Solver::power_iteration(&mut plan, &opts),
            },
            // Same policy as run_spmv_group: a poisoned plan fails the
            // request instead of being recovered.
            Err(_) => {
                self.fail_items(li, &[(id, key)], &[pos], published);
                return;
            }
        };
        let now = self.clock.now_ns();
        {
            let mut st = self.lanes[li].lock();
            st.outstanding.remove(&id);
            st.done.insert(
                id,
                DoneEntry::Solve(CompletedSolve {
                    ticket: Ticket(id),
                    key,
                    report,
                }),
            );
            // Relaxed: the flag is re-read only by this same thread's
            // quarantine path after catch_unwind returns.
            published[pos].store(true, Ordering::Relaxed);
            self.latency.record(now.saturating_sub(enqueued_at).max(1));
            self.evict_overflow(&mut st);
        }
        self.stats.solves_completed.bump();
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.signal.notify();
    }

    /// Publishes `Failed` terminal states for requests whose execution
    /// could not run (poisoned plan lock), without quarantining the
    /// lane.
    fn fail_items(
        &self,
        li: usize,
        items: &[(u64, MatrixKey)],
        positions: &[usize],
        published: &[AtomicBool],
    ) {
        {
            let mut st = self.lanes[li].lock();
            for (&(id, key), &pos) in items.iter().zip(positions) {
                st.outstanding.remove(&id);
                st.done.insert(id, DoneEntry::Failed { key });
                // Relaxed: re-read only by this thread after catch_unwind.
                published[pos].store(true, Ordering::Relaxed);
            }
            self.evict_overflow(&mut st);
        }
        self.stats.failed.add(items.len() as u64);
        self.in_flight
            .fetch_sub(items.len() as u64, Ordering::AcqRel);
        self.signal.notify();
    }

    /// A drain panic landed while executing this lane's batch: mark the
    /// lane quarantined, fail every not-yet-published request of the
    /// batch, and fail everything still queued — every accepted ticket
    /// reaches a terminal state (exact conservation), and other lanes
    /// keep serving.
    fn quarantine(&self, li: usize, meta: &[(u64, MatrixKey)], published: &[AtomicBool]) {
        let lane = &self.lanes[li];
        // Release pairs with the Acquire loads in submit/drain_lane.
        lane.quarantined.store(true, Ordering::Release);
        let mut failed = 0u64;
        {
            let mut st = lane.lock();
            for (pos, &(id, key)) in meta.iter().enumerate() {
                // Relaxed: set by this same thread before the panic.
                if !published[pos].load(Ordering::Relaxed) {
                    st.outstanding.remove(&id);
                    st.done.insert(id, DoneEntry::Failed { key });
                    failed += 1;
                }
            }
            while let Some(p) = st.queue.pop_front() {
                let (id, key) = (p.id(), p.key());
                st.outstanding.remove(&id);
                st.done.insert(id, DoneEntry::Failed { key });
                failed += 1;
            }
            lane.queued.store(0, Ordering::Release);
            self.evict_overflow(&mut st);
        }
        self.stats.failed.add(failed);
        self.in_flight.fetch_sub(failed, Ordering::AcqRel);
        self.signal.notify();
    }

    /// Drops the oldest published entries beyond the per-lane retention
    /// window. Called under the lane lock by every publish path.
    fn evict_overflow(&self, st: &mut LaneState) {
        let retention = RESULT_RETENTION_FACTOR * self.lane_quota;
        while st.done.len() > retention && st.done.pop_first().is_some() {
            self.stats.evicted.bump();
        }
    }
}

/// Alias for the tuple `execute_batch` hands `run_spmv_group`; kept out
/// of the signature for readability.
type SpmvItemOwned = (usize, u64, Vec<f64>, u64, MatrixKey);
