//! Solver-workload acceptance tests (ISSUE 5):
//!
//! 1. CG on a generated SPD matrix converges to `‖r‖₂ ≤ 1e-10` with a
//!    **bitwise-identical iterate trajectory** across every memory
//!    backend (ideal/hbm/hbm4/hbm8) and every system kind
//!    (base/pack/sharded) — the solver's math is a pure function of the
//!    SpMV result bytes, and every datapath reproduces the golden
//!    accumulation bytes;
//! 2. [`SpmvPlan::run_into`] results are byte-identical to
//!    [`SpmvPlan::run`] on the same plan, while allocating into the
//!    caller's buffer and (on the baseline) keeping matrix lines warm
//!    across calls;
//! 3. sharded solves are invariant to the worker count.

mod common;

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::gen::spd;
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, PartitionStrategy, SolveOptions, Solver, SpmvEngine, SpmvPlan, SystemKind,
};

fn backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

fn systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(64)),
        SystemKind::Sharded {
            units: 2,
            strategy: PartitionStrategy::ByNnz,
        },
    ]
}

fn plan_for(system: &SystemKind, backend: &BackendConfig, a: &Csr) -> SpmvPlan {
    SpmvEngine::builder()
        .backend(backend.clone())
        .system(system.clone())
        .build()
        .prepare(a)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The headline acceptance: one SPD system, twelve (backend × system)
/// plans, one bit-exact CG trajectory.
#[test]
fn cg_trajectory_is_bitwise_identical_across_backends_and_systems() {
    let a = spd(96, 6, 8, 42);
    assert!(a.is_symmetric());
    let b: Vec<f64> = (0..a.rows()).map(golden_x).collect();
    let mut reference: Option<(Vec<u64>, Vec<u64>, usize)> = None;
    for system in systems() {
        for backend in backends() {
            let mut plan = plan_for(&system, &backend, &a);
            let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
            assert!(
                r.converged && r.residual <= 1e-10,
                "{system}/{}: stalled at {} after {} iterations",
                backend.label(),
                r.residual,
                r.iterations
            );
            assert!(r.iterations > 0);
            let got = (bits(&r.x), bits(&r.residuals), r.iterations);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(
                        got.2,
                        want.2,
                        "{system}/{}: iteration count diverged",
                        backend.label()
                    );
                    assert_eq!(
                        got.1,
                        want.1,
                        "{system}/{}: residual trajectory diverged",
                        backend.label()
                    );
                    assert_eq!(
                        got.0,
                        want.0,
                        "{system}/{}: solution bytes diverged",
                        backend.label()
                    );
                }
            }
        }
    }
}

/// `run_into` must hand back exactly the bytes `run` would, for every
/// system kind and backend, on the same warm plan — and repeated calls
/// (the solver's reuse pattern) must stay byte-stable. The same holds on
/// the degenerate matrix for 8 row-split shards, three of which own rows
/// but no nonzeros and must still overwrite those rows.
#[test]
fn run_into_is_byte_identical_to_run() {
    let a = spd(96, 6, 8, 7);
    let sharded8 = SystemKind::Sharded {
        units: 8,
        strategy: PartitionStrategy::ByRows,
    };
    let cases = systems()
        .into_iter()
        .map(|system| (system, a.clone()))
        .chain([(sharded8, common::degenerate())]);
    for (system, a) in cases {
        let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
        for backend in backends() {
            let label = format!("{system}/{}", backend.label());
            let mut plan = plan_for(&system, &backend, &a);
            let want = plan.run(&x);
            assert!(want.verified, "{label}");
            // The buffer is overwritten, not accumulated into: a dirty
            // buffer yields the same bytes, also on the first call, which
            // a cycle-accurate pack or sharded plan simulates.
            let mut y = vec![f64::NAN; a.rows()];
            let iter = plan.run_into(&x, &mut y);
            assert_eq!(bits(&y), want.y_bits(), "{label}: run_into diverged");
            assert!(iter.cycles > 0 && iter.offchip_bytes > 0, "{label}");
            assert!(iter.indir_cycles <= iter.cycles, "{label}");
            y.fill(f64::NAN);
            plan.run_into(&x, &mut y);
            assert_eq!(bits(&y), want.y_bits(), "{label}: dirty-buffer reuse");
            // And a subsequent `run` on the same plan still agrees.
            let again = plan.run(&x);
            assert_eq!(again.y_bits(), want.y_bits(), "{label}: plan reuse");
        }
    }
}

/// The baseline's `run_into` keeps the LLC's matrix lines warm across a
/// solver's iterations: after the first (cold) call, repeated calls
/// move strictly less off-chip data and settle to a steady state.
#[test]
fn base_run_into_amortizes_matrix_traffic_across_iterations() {
    let a = spd(256, 8, 16, 13);
    let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
    let engine = SpmvEngine::builder().system(SystemKind::Base).build();
    let mut plan = engine.prepare(&a);
    let mut y = vec![0.0f64; a.rows()];
    let cold = plan.run_into(&x, &mut y);
    let warm1 = plan.run_into(&x, &mut y);
    let warm2 = plan.run_into(&x, &mut y);
    assert!(
        warm1.offchip_bytes < cold.offchip_bytes,
        "warm iteration must skip resident matrix lines: {} vs {}",
        warm1.offchip_bytes,
        cold.offchip_bytes
    );
    assert_eq!(
        warm1.offchip_bytes, warm2.offchip_bytes,
        "steady-state traffic must be deterministic"
    );
    assert_eq!(warm1.cycles, warm2.cycles, "steady-state cycles too");
}

/// Worker-count invariance carries over to whole solves: the sharded
/// engine's CG trajectory is bit-identical at any worker count.
#[test]
fn sharded_solves_are_worker_count_invariant() {
    let a = spd(128, 6, 10, 21);
    let b: Vec<f64> = (0..a.rows()).map(golden_x).collect();
    let mut reference: Option<(Vec<u64>, Vec<u64>, u64)> = None;
    for workers in [1usize, 2, 4] {
        let engine = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(4))
            .system(SystemKind::Sharded {
                units: 4,
                strategy: PartitionStrategy::ByNnz,
            })
            .shard_workers(workers)
            .build();
        let mut plan = engine.prepare(&a);
        let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
        assert!(r.converged, "{workers} workers");
        let got = (bits(&r.x), bits(&r.residuals), r.spmv_cycles);
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(&got.0, &want.0, "{workers} workers: solution diverged");
                assert_eq!(&got.1, &want.1, "{workers} workers: residuals diverged");
                assert_eq!(
                    got.2, want.2,
                    "{workers} workers: simulated cycles diverged"
                );
            }
        }
    }
}

/// Power iteration converges on the same plan machinery and its
/// eigenpair verifies against the golden SpMV.
#[test]
fn power_iteration_agrees_across_systems() {
    let a = spd(96, 6, 8, 33);
    let opts = SolveOptions {
        tol: 1e-8,
        max_iters: 5000,
        ..SolveOptions::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for system in systems() {
        let mut plan = plan_for(&system, &BackendConfig::hbm(), &a);
        let r = Solver::power_iteration(&mut plan, &opts);
        assert!(r.converged, "{system}: stalled at {}", r.residual);
        let lambda = r.eigenvalue.expect("estimated");
        let av = a.spmv(&r.x);
        for (got, want) in av.iter().zip(r.x.iter().map(|v| lambda * v)) {
            assert!((got - want).abs() < 1e-6, "{system}: {got} vs {want}");
        }
        match &reference {
            None => reference = Some(bits(&r.x)),
            Some(want) => assert_eq!(&bits(&r.x), want, "{system}: eigenvector diverged"),
        }
    }
}
