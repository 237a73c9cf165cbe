//! Soak-style stress tests for `SpmvService`: several producer threads
//! pushing a sustained mix of SpMV and iterative-solve requests across
//! many tenant matrices against the live background drain, with
//! windowed redemption, deliberate ticket abandonment, and quota
//! backpressure — asserting **exact ticket conservation** (every
//! accepted ticket is eventually completed and then taken, evicted, or
//! retained; nothing is lost or double-counted) and byte-identity of
//! every redeemed result against serial single-tenant execution.
//!
//! The cycle-accurate simulator is not the subject here, so the tests
//! run on the analytic execution mode (bit-identical result vectors,
//! orders of magnitude faster).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use nmpic_sparse::gen::{banded_fem, spd};
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, CompletedSolve, ExecMode, MatrixKey, ServiceError, SolveOptions, SolveRequest,
    Solver, SpmvEngine, SpmvService, SystemKind, Ticket, RESULT_RETENTION_FACTOR,
};

const PRODUCERS: usize = 4;
const OPS_PER_PRODUCER: usize = 160;
const TENANTS: usize = 6;
const X_POOL: usize = 4;
const WINDOW: usize = 16;
const ABANDON_EVERY: usize = 13;

/// splitmix64 — deterministic per-(producer, op) traffic shaping.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Spmv { tenant: usize, slot: usize },
    Cg { tenant: usize },
    Power { tenant: usize },
}

/// Every 8th request is a solve on an SPD (even-index) tenant,
/// alternating CG and power iteration by hash; everything else is an
/// SpMV on a hash-picked tenant with a hash-picked pooled vector.
fn op_for(producer: usize, i: usize) -> Op {
    let h = mix(((producer as u64) << 32) ^ i as u64);
    if i.is_multiple_of(8) {
        let tenant = 2 * (h % (TENANTS as u64 / 2)) as usize;
        if (h >> 8) & 1 == 0 {
            Op::Cg { tenant }
        } else {
            Op::Power { tenant }
        }
    } else {
        Op::Spmv {
            tenant: (h % TENANTS as u64) as usize,
            slot: ((h >> 16) % X_POOL as u64) as usize,
        }
    }
}

fn engine() -> SpmvEngine {
    SpmvEngine::builder()
        .system(SystemKind::Base)
        .exec_mode(ExecMode::Analytic)
        .build()
}

/// Even tenants are SPD (solve-capable), odd tenants are asymmetric FEM
/// bands; sizes differ per tenant so vector-length bugs cannot hide.
fn tenant_matrix(t: usize) -> Csr {
    if t.is_multiple_of(2) {
        spd(96 + 8 * t, 5, 8, t as u64)
    } else {
        banded_fem(104 + 8 * t, 5, 10, t as u64)
    }
}

fn pooled_x(csr: &Csr, tenant: usize, slot: usize) -> Vec<f64> {
    (0..csr.cols())
        .map(|i| golden_x(i + 353 * slot + 7919 * tenant))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_solve(done: &CompletedSolve, want: &[u64]) {
    // Convergence is the solver's business; the service contract under
    // test is that the served iterate is byte-identical to serial.
    assert_eq!(bits(&done.report.x), want, "solve bytes diverged");
}

#[test]
fn soak_conserves_every_ticket_across_producers_and_tenants() {
    let mats: Vec<Csr> = (0..TENANTS).map(tenant_matrix).collect();
    let xs: Vec<Vec<Vec<f64>>> = (0..TENANTS)
        .map(|t| (0..X_POOL).map(|s| pooled_x(&mats[t], t, s)).collect())
        .collect();
    let bvecs: Vec<Vec<f64>> = (0..TENANTS)
        .map(|t| pooled_x(&mats[t], t, X_POOL))
        .collect();
    let opts = SolveOptions::default();

    // Serial single-tenant references, computed on an identical engine.
    let eng = engine();
    let mut spmv_ref: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut cg_ref: Vec<Option<Vec<u64>>> = Vec::new();
    let mut power_ref: Vec<Option<Vec<u64>>> = Vec::new();
    for t in 0..TENANTS {
        let mut plan = eng.prepare(&mats[t]);
        spmv_ref.push((0..X_POOL).map(|s| plan.run(&xs[t][s]).y_bits()).collect());
        if t % 2 == 0 {
            cg_ref.push(Some(bits(&Solver::cg(&mut plan, &bvecs[t], &opts).x)));
            power_ref.push(Some(bits(&Solver::power_iteration(&mut plan, &opts).x)));
        } else {
            cg_ref.push(None);
            power_ref.push(None);
        }
    }

    // One drain worker serializes every batch; two race each other on
    // the lanes. Conservation and byte-identity must hold for both.
    for workers in [1, 2] {
        let svc = SpmvService::builder(engine())
            .drain_workers(workers)
            .lane_quota(32)
            .build();
        let keys: Vec<MatrixKey> = mats.iter().map(|m| svc.prepare(m)).collect();

        let mut abandoned_total = 0usize;
        let mut redeemed_total = 0usize;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let svc = &svc;
                let keys = &keys;
                let xs = &xs;
                let bvecs = &bvecs;
                let spmv_ref = &spmv_ref;
                let cg_ref = &cg_ref;
                let power_ref = &power_ref;
                let opts = &opts;
                handles.push(s.spawn(move || {
                    let redeem = |op: Op, ticket: Ticket| match op {
                        Op::Spmv { tenant, slot } => {
                            let done = svc.wait(ticket).expect("spmv publishes");
                            assert!(done.verified);
                            assert_eq!(
                                bits(&done.y),
                                spmv_ref[tenant][slot],
                                "spmv bytes diverged"
                            );
                        }
                        Op::Cg { tenant } => {
                            let done = svc.wait_solve(ticket).expect("cg publishes");
                            check_solve(&done, cg_ref[tenant].as_ref().expect("SPD tenant"));
                        }
                        Op::Power { tenant } => {
                            let done = svc.wait_solve(ticket).expect("power publishes");
                            check_solve(&done, power_ref[tenant].as_ref().expect("SPD tenant"));
                        }
                    };
                    let mut window: VecDeque<(Op, Ticket)> = VecDeque::new();
                    let mut abandoned = 0usize;
                    let mut redeemed = 0usize;
                    for i in 0..OPS_PER_PRODUCER {
                        let op = op_for(p, i);
                        // Quota backpressure: on rejection, free capacity by
                        // redeeming the oldest windowed ticket, then retry.
                        let ticket = loop {
                            let attempt = match op {
                                Op::Spmv { tenant, slot } => {
                                    svc.submit(keys[tenant], xs[tenant][slot].clone())
                                }
                                Op::Cg { tenant } => svc.submit_solve(
                                    keys[tenant],
                                    SolveRequest::Cg {
                                        b: bvecs[tenant].clone(),
                                    },
                                    opts.clone(),
                                ),
                                Op::Power { tenant } => svc.submit_solve(
                                    keys[tenant],
                                    SolveRequest::PowerIteration,
                                    opts.clone(),
                                ),
                            };
                            match attempt {
                                Ok(t) => break t,
                                Err(ServiceError::TenantQuotaExceeded { .. }) => {
                                    match window.pop_front() {
                                        Some((op, t)) => {
                                            redeem(op, t);
                                            redeemed += 1;
                                        }
                                        None => std::thread::yield_now(),
                                    }
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        };
                        if i % ABANDON_EVERY == 5 {
                            // Deliberately never redeemed: must end up
                            // retained (or evicted), never lost.
                            abandoned += 1;
                        } else {
                            window.push_back((op, ticket));
                            if window.len() > WINDOW {
                                let (op, t) = window.pop_front().expect("nonempty");
                                redeem(op, t);
                                redeemed += 1;
                            }
                        }
                    }
                    for (op, t) in window {
                        redeem(op, t);
                        redeemed += 1;
                    }
                    (abandoned, redeemed)
                }));
            }
            for h in handles {
                let (a, r) = h.join().expect("producer");
                abandoned_total += a;
                redeemed_total += r;
            }
        });
        svc.quiesce();

        let total = (PRODUCERS * OPS_PER_PRODUCER) as u64;
        let stats = svc.stats();
        assert_eq!(
            stats.submitted, total,
            "{workers} workers: every op was eventually accepted"
        );
        assert_eq!(redeemed_total as u64 + abandoned_total as u64, total);
        assert!(stats.solves_completed > 0, "the mix includes solves");
        assert_eq!(stats.failed, 0);
        // Conservation invariant 1: every accepted ticket reached a
        // terminal state.
        assert_eq!(
            stats.completed + stats.solves_completed + stats.failed,
            stats.submitted,
            "{workers} workers: tickets lost between submission and terminal state"
        );
        // Conservation invariant 2: every terminal ticket is accounted for
        // exactly once as taken, evicted, or still retained.
        assert_eq!(
            stats.taken + stats.evicted + svc.retained() as u64,
            stats.submitted,
            "{workers} workers: terminal tickets lost between publication and redemption"
        );
        assert_eq!(stats.taken, redeemed_total as u64);
        // Bounded memory: retention never exceeds the documented cap.
        let retention_bound = svc.lane_count() * RESULT_RETENTION_FACTOR * svc.lane_quota();
        assert!(
            svc.retained() <= retention_bound,
            "{workers} workers: retained {} exceeds bound {retention_bound}",
            svc.retained()
        );
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.quarantined_lanes(), 0);
        let lat = svc.latency();
        assert_eq!(lat.count, total, "one latency sample per completed request");
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
    }
}

/// A drain worker panicking mid-batch (chaos hook) quarantines exactly
/// the panicking lane while other tenants keep being served by the same
/// background worker — and ticket conservation still holds, with the
/// poisoned lane's tickets reported as failed rather than lost.
#[test]
fn drain_panic_under_load_quarantines_one_lane_and_conserves_tickets() {
    const REQS: usize = 6;
    let svc = SpmvService::builder(engine()).drain_workers(1).build();
    let a = spd(64, 4, 6, 1);
    let ka = svc.prepare(&a);
    // Find a second tenant on a different submission lane.
    let (b, kb) = (2..64)
        .map(|seed| {
            let m = banded_fem(72, 4, 8, seed);
            let k = svc.prepare(&m);
            (m, k)
        })
        .find(|(_, k)| svc.lane_of(*k) != svc.lane_of(ka))
        .expect("some seed lands on another lane");
    let xa: Vec<f64> = (0..a.cols()).map(golden_x).collect();
    let xb: Vec<f64> = (0..b.cols()).map(golden_x).collect();
    let want_b = engine().prepare(&b).run(&xb).y_bits();

    // Arm the chaos hook before the first submission so the very first
    // drained group for tenant A panics the worker mid-batch.
    svc.inject_batch_panic(ka);
    let mut a_accepted = Vec::new();
    let mut a_rejected = 0usize;
    let mut b_tickets = Vec::new();
    // A second producer hammers lane A while the worker quarantines it:
    // each of its submissions must bounce or fail — one stranded in the
    // flushed queue would keep `quiesce` from ever returning. Capped so
    // the lane quota always has room for the REQS submissions below.
    let cap = svc.lane_quota() - REQS;
    let stop = AtomicBool::new(false);
    let hammered = std::thread::scope(|s| {
        let hammer = s.spawn(|| {
            let mut accepted = Vec::new();
            // Acquire pairs with the Release store after quiesce().
            while !stop.load(Ordering::Acquire) && accepted.len() < cap {
                match svc.submit(ka, xa.clone()) {
                    Ok(t) => accepted.push(t),
                    Err(ServiceError::LaneQuarantined { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            accepted
        });
        for _ in 0..REQS {
            // The worker may quarantine A's lane while we are still
            // submitting; later submissions then bounce eagerly.
            match svc.submit(ka, xa.clone()) {
                Ok(t) => a_accepted.push(t),
                Err(ServiceError::LaneQuarantined { key }) => {
                    assert_eq!(key, ka);
                    a_rejected += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            b_tickets.push(svc.submit(kb, xb.clone()).expect("healthy lane accepts"));
        }
        assert_eq!(a_accepted.len() + a_rejected, REQS);
        svc.quiesce();
        stop.store(true, Ordering::Release);
        hammer.join().expect("hammer")
    });
    a_accepted.extend(hammered);

    assert_eq!(svc.quarantined_lanes(), 1, "only the panicking lane");
    for t in a_accepted.iter() {
        assert_eq!(
            svc.wait(*t).unwrap_err(),
            ServiceError::ExecutionFailed { key: ka },
            "accepted tickets on the quarantined lane fail, not hang"
        );
    }
    for t in b_tickets {
        let done = svc.wait(t).expect("other lanes keep serving");
        assert!(done.verified);
        assert_eq!(
            done.y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            want_b
        );
    }
    // The quarantine is sticky for new traffic on that lane only.
    assert_eq!(
        svc.submit(ka, xa.clone()).unwrap_err(),
        ServiceError::LaneQuarantined { key: ka }
    );
    assert!(svc.submit(kb, xb.clone()).is_ok());
    svc.quiesce();

    let stats = svc.stats();
    assert_eq!(stats.failed, a_accepted.len() as u64);
    assert_eq!(
        stats.completed + stats.solves_completed + stats.failed,
        stats.submitted,
        "conservation holds through the quarantine"
    );
    assert_eq!(
        stats.taken + stats.evicted + svc.retained() as u64,
        stats.submitted
    );
}
