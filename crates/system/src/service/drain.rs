//! The drain side of the service: pop a bounded batch from a lane,
//! execute it outside the lane lock, publish terminal states, and
//! quarantine the lane when execution panics. Background workers and
//! synchronous callers run the same [`ServiceInner::drain_tick`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use super::lane::{DoneEntry, Pending, Work};
use super::{
    Completed, CompletedSolve, MatrixKey, ServiceInner, SolveRequest, DRAIN_BATCH, LANES,
    RESULT_RETENTION_FACTOR,
};
use crate::solve::Solver;

/// Whether two neighbours of an execution-ordered batch run as one job:
/// same-matrix one-shot SpMVs share a `run_batch`, a solve runs alone.
fn same_job(a: &Pending, b: &Pending) -> bool {
    a.key == b.key && matches!((&a.work, &b.work), (Work::Spmv(_), Work::Spmv(_)))
}

impl ServiceInner {
    /// One fairness turn: every lane gets at most one bounded batch,
    /// starting from a rotating cursor so concurrent workers spread
    /// out. Returns the number of requests brought to a terminal state.
    pub(super) fn drain_tick(&self) -> usize {
        // Relaxed: the cursor is only a load-spreading hint; any
        // interleaving of fetch_adds still visits every lane below.
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % LANES;
        (0..LANES)
            .map(|off| self.drain_lane((start + off) % LANES))
            .sum()
    }

    /// Pops one bounded batch from a lane and executes it, catching
    /// panics into a lane quarantine. Returns the number of requests
    /// popped (all of which reach a terminal state before return).
    fn drain_lane(&self, li: usize) -> usize {
        let mut batch: Vec<Pending> = {
            let mut st = self.lanes[li].lock();
            if st.quarantined {
                return 0;
            }
            let take = DRAIN_BATCH.min(st.queue.len());
            st.queue.drain(..take).collect()
        };
        // Execution order: same-matrix SpMVs side by side (groups in
        // first-appearance order), then solves in pop order.
        let mut order: Vec<MatrixKey> = Vec::new();
        for p in &batch {
            if !order.contains(&p.key) {
                order.push(p.key);
            }
        }
        batch.sort_by_key(|p| match p.work {
            Work::Spmv(_) => (false, order.iter().position(|k| *k == p.key)),
            Work::Solve(..) => (true, None),
        });
        // `batch[..done]` is published; a panic mid-job leaves the rest
        // for quarantine() to fail, so no ticket of the batch is lost.
        let mut done = 0;
        // AssertUnwindSafe: on Err every touched structure is either
        // lock-protected (poisoning is handled at each lock site) or
        // repaired by quarantine() below.
        let run = catch_unwind(AssertUnwindSafe(|| {
            for job in batch.chunk_by_mut(same_job) {
                let entries = self.execute(job);
                self.publish(li, job.iter().zip(entries));
                done += job.len();
            }
        }));
        if run.is_err() {
            self.quarantine(li, &batch[done..]);
        }
        batch.len()
    }

    /// Runs one job (see [`same_job`]) against its plan, **outside** the
    /// lane lock, and returns one terminal entry per request, in order.
    fn execute(&self, job: &mut [Pending]) -> Vec<DoneEntry> {
        let key = job[0].key;
        // Acquire pairs with the Release in inject_batch_panic().
        if self.chaos_armed.load(Ordering::Acquire)
            && self.chaos_key.load(Ordering::Acquire) == key.0
        {
            self.chaos_armed.store(false, Ordering::Release);
            // nmpic-lint: allow(L2) — deliberate: the documented chaos-testing hook; fires only after an explicit inject_batch_panic() call
            panic!("injected batch panic for {key} (chaos hook)");
        }
        let slot = self
            .plans_read()
            .get(&key.0)
            .cloned()
            // nmpic-lint: allow(L2) — invariant: submit validated the key against the cache and plans are never evicted
            .expect("plan resident while queued");
        // A poisoned plan means a previous panic unwound mid-run on
        // another lane; its state is suspect, so the job fails instead
        // of recovering the lock.
        let Ok(mut plan) = slot.plan.lock() else {
            return job.iter().map(|_| DoneEntry::Failed { key }).collect();
        };
        if let Work::Solve(request, opts) = &job[0].work {
            let report = match request {
                SolveRequest::Cg { b } => Solver::cg(&mut plan, b, opts),
                SolveRequest::PowerIteration => Solver::power_iteration(&mut plan, opts),
            };
            let ticket = job[0].ticket;
            return vec![DoneEntry::Solve(CompletedSolve {
                ticket,
                key,
                report,
            })];
        }
        // `same_job` admits no solve into a multi-request job, so this
        // keeps every request's vector.
        let xs: Vec<Vec<f64>> = job
            .iter_mut()
            .filter_map(|p| match &mut p.work {
                Work::Spmv(x) => Some(std::mem::take(x)),
                Work::Solve(..) => None,
            })
            .collect();
        let report = plan.run_batch(&xs);
        drop(plan);
        self.stats.batches.bump();
        let cycles_per_vector = report.cycles_per_vector();
        job.iter()
            .zip(report.ys)
            .map(|(p, y)| {
                DoneEntry::Spmv(Completed {
                    ticket: p.ticket,
                    key,
                    y,
                    verified: report.verified,
                    label: report.label.clone(),
                    batched_with: xs.len(),
                    cycles_per_vector,
                })
            })
            .collect()
    }

    /// The only code that moves a ticket to a terminal state: under the
    /// lane lock the ticket-map entry, the latency sample and retention
    /// eviction; then the counters, `in_flight`, and the completion
    /// signal. A ticket not in flight is skipped, so nothing is ever
    /// counted twice.
    fn publish<'a>(&self, li: usize, entries: impl Iterator<Item = (&'a Pending, DoneEntry)>) {
        let now = self.clock.now_ns();
        let (mut spmvs, mut solves, mut failed) = (0u64, 0u64, 0u64);
        let evicted = {
            let mut guard = self.lanes[li].lock();
            let st = &mut *guard;
            for (p, entry) in entries {
                let Some(slot @ None) = st.tickets.get_mut(&p.ticket.0) else {
                    continue;
                };
                match entry {
                    DoneEntry::Spmv(_) => spmvs += 1,
                    DoneEntry::Solve(_) => solves += 1,
                    DoneEntry::Failed { .. } => failed += 1,
                }
                if !matches!(entry, DoneEntry::Failed { .. }) {
                    self.latency
                        .record(now.saturating_sub(p.enqueued_at).max(1));
                }
                *slot = Some(entry);
                st.retained += 1;
            }
            st.evict_overflow(RESULT_RETENTION_FACTOR * self.lane_quota)
        };
        self.stats.completed.add(spmvs);
        self.stats.solves_completed.add(solves);
        self.stats.failed.add(failed);
        self.stats.evicted.add(evicted);
        self.in_flight
            .fetch_sub(spmvs + solves + failed, Ordering::AcqRel);
        self.signal.notify();
    }

    /// A panic landed while executing this lane's batch: mark the lane
    /// quarantined and fail the batch's unpublished requests and
    /// everything still queued, so every accepted ticket still reaches
    /// a terminal state (exact conservation).
    fn quarantine(&self, li: usize, unpublished: &[Pending]) {
        let flushed: Vec<Pending> = {
            let mut st = self.lanes[li].lock();
            st.quarantined = true;
            st.queue.drain(..).collect()
        };
        let failed = unpublished.iter().chain(&flushed);
        self.publish(li, failed.map(|p| (p, DoneEntry::Failed { key: p.key })));
    }
}
