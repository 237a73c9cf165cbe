//! In-module tests of the serving front-end (synchronous and
//! background-drain modes).

use super::*;
use crate::engine::{SpmvEngine, SystemKind};
use crate::report::golden_x;
use crate::shard::PartitionStrategy;
use crate::solve::Solver;
use nmpic_core::AdapterConfig;
use nmpic_sparse::gen::banded_fem;

fn x_for(csr: &Csr, seed: usize) -> Vec<f64> {
    (0..csr.cols()).map(|i| golden_x(i + seed)).collect()
}

fn service(kind: SystemKind) -> SpmvService {
    SpmvService::new(SpmvEngine::builder().system(kind).build())
}

/// Synchronous-mode service: no background workers, callers drive
/// the drain — the deterministic harness for accounting tests.
fn sync_service(kind: SystemKind) -> SpmvService {
    SpmvService::builder(SpmvEngine::builder().system(kind).build())
        .drain_workers(0)
        .build()
}

#[test]
fn tickets_encode_kind_lane_and_sequence() {
    let t = Ticket::new(5, 3, true);
    assert_eq!(t.lane(), 3);
    assert!(t.is_solve());
    assert_eq!(t.seq(), 5);
    assert_eq!(t.to_string(), "ticket:5@lane3");
    let t = Ticket::new(1 << 40, MAX_LANES - 1, false);
    assert_eq!(t.lane(), MAX_LANES - 1);
    assert!(!t.is_solve());
    assert_eq!(t.seq(), 1 << 40);
}

#[test]
fn cache_hits_and_misses_are_counted() {
    let a = banded_fem(96, 4, 8, 1);
    let b = banded_fem(96, 4, 8, 2); // different content
    let svc = service(SystemKind::Base);
    let ka = svc.prepare(&a);
    let ka2 = svc.prepare(&a);
    let kb = svc.prepare(&b);
    assert_eq!(ka, ka2);
    assert_ne!(ka, kb);
    let s = svc.stats();
    assert_eq!(s.plans_prepared, 2);
    assert_eq!(s.plan_cache_hits, 1);
    assert!(svc.contains(ka) && svc.contains(kb));
    // A clone with identical content is the same tenant key.
    assert_eq!(svc.prepare(&a.clone()), ka);
    assert_eq!(svc.stats().plan_cache_hits, 2);
}

#[test]
fn served_results_match_the_plain_plan() {
    let csr = banded_fem(128, 6, 16, 3);
    for kind in [
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(64)),
        SystemKind::Sharded {
            units: 2,
            strategy: PartitionStrategy::ByNnz,
        },
    ] {
        let svc = service(kind.clone());
        let key = svc.prepare(&csr);
        let x = x_for(&csr, 0);
        // run() blocks on the background drain worker.
        let done = svc.run(key, x.clone()).unwrap();
        assert!(done.verified, "{kind}");
        let mut plan = svc.engine().clone().prepare(&csr);
        let want = plan.run(&x);
        assert_eq!(
            done.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.y_bits(),
            "{kind}: served bytes must equal the single-tenant plan"
        );
        assert_eq!(done.label, want.label);
    }
}

#[test]
fn same_matrix_requests_share_one_batch() {
    let csr = banded_fem(128, 6, 16, 5);
    let other = banded_fem(64, 4, 8, 9);
    let svc = sync_service(SystemKind::Pack(AdapterConfig::mlp(64)));
    let k1 = svc.prepare(&csr);
    let k2 = svc.prepare(&other);
    let t1 = svc.submit(k1, x_for(&csr, 1)).unwrap();
    let t2 = svc.submit(k2, x_for(&other, 2)).unwrap();
    let t3 = svc.submit(k1, x_for(&csr, 3)).unwrap();
    assert_eq!(svc.pending(), 3);
    assert_eq!(svc.drain_now(), 3);
    assert_eq!(svc.pending(), 0);
    let s = svc.stats();
    assert_eq!(s.batches, 2, "k1's pair shares one run_batch");
    assert_eq!(s.completed, 3);
    assert_eq!(svc.take(t1).unwrap().batched_with, 2);
    assert_eq!(svc.take(t3).unwrap().batched_with, 2);
    assert_eq!(svc.take(t2).unwrap().batched_with, 1);
    // Tickets are single-use.
    assert!(svc.take(t1).is_none());
    assert_eq!(svc.wait(t1).unwrap_err(), ServiceError::ResultEvicted);
}

#[test]
fn queue_is_bounded_and_rejections_counted() {
    let csr = banded_fem(64, 4, 8, 1);
    let svc = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .lane_quota(2)
        .build();
    let key = svc.prepare(&csr);
    let x = x_for(&csr, 0);
    svc.submit(key, x.clone()).unwrap();
    svc.submit(key, x.clone()).unwrap();
    assert_eq!(
        svc.submit(key, x.clone()),
        Err(ServiceError::TenantQuotaExceeded { key, quota: 2 })
    );
    assert_eq!(svc.stats().rejected, 1);
    // Draining the lane reopens it.
    svc.drain_now();
    svc.submit(key, x).unwrap();
}

/// A panicking `engine.prepare` (e.g. the empty-matrix assert) is
/// caught, the cache lock is released cleanly, and the panic re-raises
/// on the caller — every other tenant keeps serving.
#[test]
fn prepare_panics_propagate_without_poisoning_the_cache() {
    let svc = service(SystemKind::Base);
    let empty = Csr::from_parts(4, 4, vec![0; 5], vec![], vec![]).unwrap();
    let panicked = catch_unwind(AssertUnwindSafe(|| svc.prepare(&empty)));
    assert!(
        panicked.is_err(),
        "empty matrix must trip the engine assert"
    );
    // Surviving tenants carry on against an unpoisoned cache.
    let csr = banded_fem(64, 4, 8, 1);
    let key = svc.prepare(&csr);
    let x = x_for(&csr, 0);
    let done = svc.run(key, x.clone()).unwrap();
    assert!(done.verified);
    assert_eq!(done.y, csr.spmv(&x));
    assert_eq!(svc.stats().completed, 1);
}

/// A drain panicking **mid-batch** quarantines exactly the lane it was
/// draining. Its tickets fail loudly, its tenants get `LaneQuarantined`
/// on resubmission, and every other lane keeps serving byte-identical
/// results.
#[test]
fn drain_panic_quarantines_only_the_panicking_lane() {
    let svc = sync_service(SystemKind::Base);
    // Two matrices that land on different lanes (fingerprints spread
    // over 16 lanes; scan a few seeds for a differing pair).
    let a = banded_fem(64, 4, 8, 1);
    let ka = svc.prepare(&a);
    let (b, kb) = (2..64)
        .map(|seed| {
            let b = banded_fem(64, 4, 8, seed);
            let kb = svc.prepare(&b);
            (b, kb)
        })
        .find(|(_, kb)| svc.lane_of(*kb) != svc.lane_of(ka))
        .expect("some seed lands on another lane");
    let ta = svc.submit(ka, x_for(&a, 0)).unwrap();
    let tb = svc.submit(kb, x_for(&b, 0)).unwrap();
    svc.inject_batch_panic(ka);
    // The caller driving the drain survives the injected panic.
    svc.drain_now();
    // Lane A: its ticket failed, the lane refuses new work.
    assert_eq!(
        svc.wait(ta).unwrap_err(),
        ServiceError::ExecutionFailed { key: ka }
    );
    assert_eq!(
        svc.submit(ka, x_for(&a, 1)),
        Err(ServiceError::LaneQuarantined { key: ka })
    );
    assert_eq!(svc.quarantined_lanes(), 1);
    // Lane B: untouched, bytes still equal the serial plan.
    let done = svc.wait(tb).expect("other lanes keep serving");
    assert!(done.verified);
    assert_eq!(done.y, b.spmv(&x_for(&b, 0)));
    let s = svc.stats();
    assert_eq!(s.failed, 1);
    assert_eq!(s.completed, 1);
    // Conservation: both accepted requests reached a terminal state.
    svc.quiesce();
    assert_eq!(s.submitted, 2);
}

#[test]
fn bad_submissions_are_rejected_eagerly() {
    let csr = banded_fem(64, 4, 8, 1);
    let svc = service(SystemKind::Base);
    let key = svc.prepare(&csr);
    let bogus = MatrixKey(0xdead_beef);
    assert_eq!(
        svc.submit(bogus, x_for(&csr, 0)),
        Err(ServiceError::UnknownMatrix(bogus))
    );
    assert_eq!(
        svc.submit(key, vec![1.0; 3]),
        Err(ServiceError::WrongVectorLength {
            expected: csr.cols(),
            got: 3
        })
    );
    // Neither rejection consumed a ticket or queue slot.
    assert_eq!(svc.pending(), 0);
    assert_eq!(svc.stats().submitted, 0);
}

#[test]
fn unredeemed_results_are_bounded_and_evicted_oldest_first() {
    let csr = banded_fem(48, 3, 6, 1);
    // Quota 1 → retention window of RESULT_RETENTION_FACTOR (4).
    let svc = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .lane_quota(1)
        .build();
    let key = svc.prepare(&csr);
    let x = x_for(&csr, 0);
    let tickets: Vec<Ticket> = (0..6)
        .map(|_| {
            let t = svc.submit(key, x.clone()).unwrap();
            svc.drain_now();
            t
        })
        .collect();
    assert_eq!(svc.stats().evicted, 2, "two oldest results aged out");
    assert_eq!(svc.retained(), RESULT_RETENTION_FACTOR);
    assert!(svc.take(tickets[0]).is_none());
    assert_eq!(
        svc.wait(tickets[1]).unwrap_err(),
        ServiceError::ResultEvicted
    );
    for t in &tickets[2..] {
        assert!(svc.take(*t).is_some(), "{t} must survive retention");
    }
}

#[test]
fn drain_on_empty_lanes_is_a_noop() {
    let svc = sync_service(SystemKind::Base);
    assert_eq!(svc.drain_now(), 0);
    assert_eq!(svc.stats().batches, 0);
    svc.quiesce(); // nothing in flight — returns immediately
}

#[test]
fn solves_queue_next_to_one_shot_spmvs() {
    use nmpic_sparse::gen::spd;
    let a = spd(96, 6, 8, 3);
    let svc = sync_service(SystemKind::Base);
    let key = svc.prepare(&a);
    let b: Vec<f64> = (0..96).map(golden_x).collect();
    // One tenant queues a plain multiply, another a CG solve.
    let t_mul = svc.submit(key, b.clone()).unwrap();
    let t_cg = svc
        .submit_solve(
            key,
            SolveRequest::Cg { b: b.clone() },
            SolveOptions::default(),
        )
        .unwrap();
    assert_eq!(svc.pending(), 2, "solves share the lane accounting");
    assert_eq!(svc.drain_now(), 2);
    // Each redeems through its own channel; the ticket kind bit
    // keeps a solve from ever answering a multiply redemption.
    assert!(svc.take(t_cg).is_none(), "solve tickets are not multiplies");
    assert_eq!(svc.wait(t_cg).unwrap_err(), ServiceError::WrongTicketKind);
    assert!(svc.take(t_mul).is_some());
    let done = svc.take_solve(t_cg).expect("solved");
    assert!(done.report.converged && done.report.residual <= 1e-10);
    assert_eq!(done.key, key);
    // The served solution equals the single-tenant Solver's, bitwise.
    let mut plan = svc.engine().clone().prepare(&a);
    let want = Solver::cg(&mut plan, &b, &SolveOptions::default());
    assert_eq!(
        done.report
            .x
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        want.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "served solve must match the single-tenant solver bytes"
    );
    assert_eq!(done.report.residuals, want.residuals);
    let stats = svc.stats();
    assert_eq!(stats.solves_completed, 1);
    assert_eq!(stats.completed, 1, "the multiply");
}

#[test]
fn solve_submissions_validate_eagerly_and_share_the_bound() {
    use nmpic_sparse::gen::{random_uniform, spd};
    let a = spd(64, 4, 6, 1);
    let rect = random_uniform(8, 16, 2, 1);
    let svc = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .lane_quota(2)
        .build();
    let key = svc.prepare(&a);
    let rect_key = svc.prepare(&rect);
    // Unknown key, non-square matrix and mis-sized rhs all reject
    // without consuming queue slots.
    assert!(matches!(
        svc.submit_solve(
            MatrixKey(0xbad),
            SolveRequest::PowerIteration,
            SolveOptions::default()
        ),
        Err(ServiceError::UnknownMatrix(_))
    ));
    assert_eq!(
        svc.submit_solve(
            rect_key,
            SolveRequest::PowerIteration,
            SolveOptions::default()
        ),
        Err(ServiceError::NotSquare { rows: 8, cols: 16 })
    );
    assert_eq!(
        svc.submit_solve(
            key,
            SolveRequest::Cg { b: vec![1.0; 3] },
            SolveOptions::default()
        ),
        Err(ServiceError::WrongVectorLength {
            expected: 64,
            got: 3
        })
    );
    // Out-of-range damping rejects at submission — the solver would
    // otherwise panic inside a drain worker and quarantine the lane.
    for damping in [0.0, -0.5, 1.5, f64::NAN] {
        assert_eq!(
            svc.submit_solve(
                key,
                SolveRequest::PowerIteration,
                SolveOptions {
                    damping,
                    ..SolveOptions::default()
                }
            ),
            Err(ServiceError::InvalidDamping),
            "damping {damping}"
        );
    }
    assert_eq!(svc.pending(), 0);
    // A multiply plus a solve fill the tenant's quota-2 lane: the
    // next submission of either kind is rejected, naming the tenant.
    svc.submit(key, vec![1.0; 64]).unwrap();
    svc.submit_solve(key, SolveRequest::PowerIteration, SolveOptions::default())
        .unwrap();
    assert_eq!(
        svc.submit(key, vec![1.0; 64]),
        Err(ServiceError::TenantQuotaExceeded { key, quota: 2 })
    );
    assert_eq!(
        svc.submit_solve(key, SolveRequest::PowerIteration, SolveOptions::default()),
        Err(ServiceError::TenantQuotaExceeded { key, quota: 2 })
    );
    assert_eq!(svc.stats().rejected, 2);
    assert!(ServiceError::NotSquare { rows: 8, cols: 16 }
        .to_string()
        .contains("8x16"));
}

#[test]
fn solve_convenience_runs_power_iteration_through_the_background_drain() {
    use nmpic_sparse::gen::spd;
    let a = spd(64, 4, 6, 5);
    let svc = service(SystemKind::Base); // default: one drain worker
    let key = svc.prepare(&a);
    let done = svc
        .solve(
            key,
            SolveRequest::PowerIteration,
            SolveOptions {
                tol: 1e-8,
                max_iters: 5000,
                damping: 0.85,
            },
        )
        .unwrap();
    assert!(done.report.converged);
    assert!(done.report.eigenvalue.is_some());
    assert_eq!(done.report.method, "power");
}

#[test]
fn latency_is_recorded_per_request_in_clock_units() {
    let csr = banded_fem(64, 4, 8, 1);
    let svc = sync_service(SystemKind::Base);
    let key = svc.prepare(&csr);
    assert_eq!(svc.latency().count, 0);
    for seed in 0..3 {
        svc.submit(key, x_for(&csr, seed)).unwrap();
    }
    svc.drain_now();
    let lat = svc.latency();
    assert_eq!(lat.count, 3, "one sample per published request");
    assert!(lat.p50_ns >= 1, "logical latencies are at least one tick");
    assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
    assert!(lat.max_ns >= lat.p999_ns && lat.mean_ns > 0.0);
    svc.reset_latency();
    assert_eq!(svc.latency().count, 0);
}

#[test]
fn wait_blocks_until_the_background_drain_publishes() {
    let csr = banded_fem(96, 5, 12, 2);
    let svc = service(SystemKind::Base); // background worker live
    let key = svc.prepare(&csr);
    let x = x_for(&csr, 7);
    let t = svc.submit(key, x.clone()).unwrap();
    let done = svc.wait(t).expect("published by the worker");
    assert_eq!(done.y, csr.spmv(&x));
    // wait consumed the entry: it cannot be redeemed twice.
    assert!(svc.take(t).is_none());
    assert_eq!(svc.wait(t).unwrap_err(), ServiceError::ResultEvicted);
}

#[test]
fn waiting_on_a_never_issued_ticket_reports_eviction() {
    let svc = sync_service(SystemKind::Base);
    // Lane index beyond the lane array (forged or corrupted ticket).
    assert_eq!(
        svc.wait(Ticket::new(7, 200, false)).unwrap_err(),
        ServiceError::ResultEvicted
    );
    // Valid lane, but the ticket was never issued.
    assert_eq!(
        svc.wait(Ticket::new(99, 0, false)).unwrap_err(),
        ServiceError::ResultEvicted
    );
}

#[test]
fn conservation_invariants_hold_after_quiesce() {
    use nmpic_sparse::gen::spd;
    let a = spd(64, 4, 6, 2);
    let b = banded_fem(80, 4, 8, 3);
    let svc = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .lane_quota(3)
        .build();
    let (ka, kb) = (svc.prepare(&a), svc.prepare(&b));
    let tickets = [
        svc.submit(ka, x_for(&a, 0)).unwrap(),
        svc.submit(kb, x_for(&b, 1)).unwrap(),
    ];
    let ts = svc
        .submit_solve(ka, SolveRequest::PowerIteration, SolveOptions::default())
        .unwrap();
    // Overflow one lane for a rejection.
    svc.submit(ka, x_for(&a, 2)).unwrap();
    svc.submit(ka, x_for(&a, 3)).unwrap_err();
    svc.quiesce();
    // Redeem some, leave the rest retained.
    assert!(svc.take(tickets[0]).is_some());
    assert!(svc.take_solve(ts).is_some());
    let s = svc.stats();
    assert_eq!(s.submitted, s.completed + s.solves_completed + s.failed);
    assert_eq!(
        s.completed + s.solves_completed + s.failed,
        s.taken + s.evicted + svc.retained() as u64
    );
    assert_eq!(s.rejected, 1);
    assert_eq!(svc.latency().count, s.completed + s.solves_completed);
}

#[test]
fn errors_display_something_useful() {
    let key = MatrixKey(0xabcd);
    let e = ServiceError::TenantQuotaExceeded { key, quota: 4 };
    assert!(e.to_string().contains("4"));
    assert!(
        e.to_string().contains(&key.to_string()),
        "quota errors name the rejecting tenant key"
    );
    let e = ServiceError::WrongVectorLength {
        expected: 10,
        got: 3,
    };
    assert!(e.to_string().contains("10") && e.to_string().contains("3"));
    assert!(ServiceError::UnknownMatrix(MatrixKey(1))
        .to_string()
        .contains("prepare"));
    for e in [
        ServiceError::LaneQuarantined { key },
        ServiceError::ExecutionFailed { key },
        ServiceError::ResultEvicted,
        ServiceError::WaitTimeout,
        ServiceError::WrongTicketKind,
        ServiceError::InvalidDamping,
    ] {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn lanes_spread_keys_and_lane_of_is_stable() {
    let svc = sync_service(SystemKind::Base);
    assert_eq!(svc.lane_count(), LANES);
    assert_eq!(svc.lane_quota(), DEFAULT_LANE_QUOTA);
    for fp in 0..64u64 {
        let k = MatrixKey(fp);
        let li = svc.lane_of(k);
        assert!(li < svc.lane_count());
        assert_eq!(svc.lane_of(k), li, "lane assignment is stable");
    }
}

/// A clock that parks its reader on a barrier: `admit` reads it after
/// its pre-lock checks, so the test knows when a submitter is about to
/// take the lane lock.
struct BarrierClock(std::sync::Barrier);

impl Clock for BarrierClock {
    fn now_ns(&self) -> u64 {
        self.0.wait();
        0
    }
}

/// Regression: the quarantine flag is read under the lane lock, so a
/// submission that loses the lock to the quarantine flush bounces
/// instead of sitting in a queue no drain visits again.
#[test]
fn a_submission_racing_a_quarantine_bounces_instead_of_stranding() {
    let csr = banded_fem(64, 4, 8, 1);
    let clock = Arc::new(BarrierClock(std::sync::Barrier::new(2)));
    let svc = SpmvService::builder(SpmvEngine::builder().system(SystemKind::Base).build())
        .drain_workers(0)
        .clock(clock.clone())
        .build();
    let key = svc.prepare(&csr);
    let mut st = svc.inner.lanes[svc.lane_of(key)].lock();
    std::thread::scope(|s| {
        let submitter = s.spawn(|| svc.submit(key, x_for(&csr, 0)));
        // Past the barrier the submitter heads for the lock held here.
        clock.0.wait();
        st.quarantined = true;
        drop(st);
        assert_eq!(
            submitter.join().expect("submitter"),
            Err(ServiceError::LaneQuarantined { key })
        );
    });
    assert_eq!(svc.inner.in_flight.load(Ordering::Acquire), 0);
    assert_eq!((svc.pending(), svc.stats().submitted), (0, 0));
}

#[test]
fn a_notify_between_check_and_park_is_not_lost() {
    let s = Signal::default();
    let seen = s.epoch();
    s.notify();
    assert!(s.wait_since(seen), "woken by the epoch, not the timeout");
    assert!(!s.wait_since(s.epoch()), "no notify: the slice times out");
}

/// `publish` is the single path to a terminal state: whichever source
/// feeds it, tickets are conserved, redeem to exactly one outcome, and
/// are single-use.
#[test]
fn every_terminal_path_conserves_tickets_and_is_single_use() {
    type Arm = fn(&SpmvService, MatrixKey);
    let poison: Arm = |svc, key| {
        let slot = svc.inner.plans_read()[&key.0].clone();
        // A run panicking on another thread (wrong vector length)
        // poisons the plan lock.
        let run = std::thread::spawn(move || slot.plan.lock().unwrap().run(&[]));
        assert!(run.join().is_err());
    };
    let chaos: Arm = |svc, key| svc.inject_batch_panic(key);
    let cases: [(&str, usize, usize, Arm, bool); 4] = [
        ("spmv group", 3, 0, |_, _| {}, true),
        ("solve", 0, 1, |_, _| {}, true),
        ("poisoned plan", 2, 1, poison, false),
        // One more than a drain batch, so the panic finds a queued tail.
        ("quarantine", DRAIN_BATCH + 1, 1, chaos, false),
    ];
    let a = nmpic_sparse::gen::spd(48, 4, 6, 1);
    for (name, spmvs, solves, arm, ok) in cases {
        let svc = sync_service(SystemKind::Base);
        let key = svc.prepare(&a);
        let conserved = |taken: usize| {
            let s = svc.stats();
            let terminal = s.completed + s.solves_completed + s.failed;
            assert_eq!(s.submitted, terminal, "{name}");
            assert_eq!(terminal, s.taken + s.evicted + svc.retained() as u64);
            assert_eq!((s.taken, svc.pending()), (taken as u64, 0), "{name}");
        };
        let redeem = |t: Ticket| match t.is_solve() {
            true => svc.wait_solve(t).map(drop),
            false => svc.wait(t).map(drop),
        };
        let mut tickets: Vec<Ticket> = (0..spmvs)
            .map(|i| svc.submit(key, x_for(&a, i)).unwrap())
            .collect();
        let opts = SolveOptions::default();
        tickets.extend((0..solves).map(|_| {
            svc.submit_solve(key, SolveRequest::PowerIteration, opts.clone())
                .unwrap()
        }));
        arm(&svc, key);
        svc.quiesce();
        conserved(0);
        let want = if ok {
            Ok(())
        } else {
            Err(ServiceError::ExecutionFailed { key })
        };
        for &t in &tickets {
            assert_eq!(redeem(t), want, "{name}: {t}");
            assert_eq!(redeem(t), Err(ServiceError::ResultEvicted), "{name}");
        }
        conserved(tickets.len());
    }
}
