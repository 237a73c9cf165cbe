//! Analytic execution mode + native kernel acceptance tests:
//!
//! 1. [`Csr::spmv_fast_into`] is byte-identical to the golden
//!    [`Csr::spmv`] at every worker count (1/2/4/8) on structured and
//!    hub/power-law matrices — row-blocked parallelism must not change
//!    the reduction order;
//! 2. an [`ExecMode::Analytic`] plan fills the same [`RunReport`]
//!    cost fields within the pinned relative tolerance
//!    (`nmpic_system::PINNED_REL_TOL`) of [`ExecMode::CycleAccurate`]
//!    across every backend × system, with bit-identical result vectors;
//! 3. a CG solve in analytic mode reproduces the cycle-accurate
//!    residual trajectory exactly — values come from the plan's value
//!    kernel, only the cost metrics are modeled.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::gen::{banded_fem, circuit, spd, stencil27};
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, ExecMode, PartitionStrategy, SolveOptions, Solver, SpmvEngine, SpmvPlan, SystemKind,
    PINNED_REL_TOL,
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
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
    ]
}

fn plan_for(system: &SystemKind, backend: &BackendConfig, mode: ExecMode, a: &Csr) -> SpmvPlan {
    SpmvEngine::builder()
        .backend(backend.clone())
        .system(system.clone())
        .exec_mode(mode)
        .build()
        .prepare(a)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rel_err(analytic: f64, cycle: f64) -> f64 {
    if cycle == 0.0 {
        if analytic == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (analytic - cycle).abs() / cycle
    }
}

// ---------------------------------------------------------------------
// 1. spmv_fast byte-identity at every worker count
// ---------------------------------------------------------------------

#[test]
fn spmv_fast_is_byte_identical_to_golden_at_every_worker_count() {
    let matrices: Vec<(&str, Csr)> = vec![
        ("banded_fem", banded_fem(700, 6, 48, 5)),
        ("stencil27", stencil27(9, 9, 9)),
        // Hub/power-law: a few rows gather from everywhere, so a
        // reduction-order slip shows up immediately in the low bits.
        ("circuit", circuit(700, 6, 64, 0.05, 8, 7)),
    ];
    for (name, a) in &matrices {
        let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
        let golden = a.spmv(&x);
        let mut y = vec![0.0; a.rows()];
        a.spmv_fast_into(&x, &mut y);
        assert_eq!(
            bits(&golden),
            bits(&y),
            "{name}: spmv_fast (default workers) diverged from golden"
        );
        for jobs in [1usize, 2, 4, 8] {
            let mut y = vec![0.0; a.rows()];
            a.spmv_fast_into_jobs(jobs, &x, &mut y);
            assert_eq!(
                bits(&golden),
                bits(&y),
                "{name}: spmv_fast at {jobs} workers diverged from golden"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2. analytic cost metrics within the pinned tolerance
// ---------------------------------------------------------------------

#[test]
fn analytic_reports_match_cycle_accurate_within_pinned_tolerance() {
    let a = banded_fem(700, 6, 48, 5);
    let x: Vec<f64> = (0..a.cols()).map(golden_x).collect();
    for backend in backends() {
        for system in systems() {
            let cycle = plan_for(&system, &backend, ExecMode::CycleAccurate, &a).run(&x);
            let analytic = plan_for(&system, &backend, ExecMode::Analytic, &a).run(&x);
            let point = format!("{}/{}", cycle.label, backend.label());
            assert!(cycle.verified && analytic.verified, "{point}: unverified");
            assert_eq!(
                bits(&cycle.ys[0]),
                bits(&analytic.ys[0]),
                "{point}: result vectors must be bit-identical across modes"
            );
            for (what, e) in [
                (
                    "cycles",
                    rel_err(analytic.cycles as f64, cycle.cycles as f64),
                ),
                (
                    "offchip_bytes",
                    rel_err(analytic.offchip_bytes as f64, cycle.offchip_bytes as f64),
                ),
                ("gbps", rel_err(analytic.gbps(), cycle.gbps())),
            ] {
                assert!(
                    e <= PINNED_REL_TOL,
                    "{point}: {what} rel err {e:.3} exceeds pinned tolerance {PINNED_REL_TOL}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. CG in analytic mode: exact residual trajectory, modeled cost
// ---------------------------------------------------------------------

#[test]
fn analytic_cg_reproduces_the_cycle_accurate_residual_trajectory() {
    let a = spd(96, 6, 8, 42);
    assert!(a.is_symmetric());
    let b: Vec<f64> = (0..a.rows()).map(golden_x).collect();
    let opts = SolveOptions::default();
    for system in systems() {
        let backend = BackendConfig::hbm();
        let mut cycle_plan = plan_for(&system, &backend, ExecMode::CycleAccurate, &a);
        let mut analytic_plan = plan_for(&system, &backend, ExecMode::Analytic, &a);
        let cycle = Solver::cg(&mut cycle_plan, &b, &opts);
        let analytic = Solver::cg(&mut analytic_plan, &b, &opts);
        assert!(cycle.converged && analytic.converged, "{}", cycle.label);
        assert_eq!(
            cycle.iterations, analytic.iterations,
            "{}: iteration counts must match",
            cycle.label
        );
        assert_eq!(
            bits(&cycle.residuals),
            bits(&analytic.residuals),
            "{}: analytic CG must walk the exact cycle-accurate residual trajectory",
            cycle.label
        );
        assert_eq!(
            bits(&cycle.x),
            bits(&analytic.x),
            "{}: solutions must be bit-identical",
            cycle.label
        );
        // Cost is modeled, not stepped — but it must stay plausible.
        assert!(analytic.spmv_cycles > 0 && analytic.offchip_bytes > 0);
        let e = rel_err(analytic.spmv_cycles as f64, cycle.spmv_cycles as f64);
        assert!(
            e <= PINNED_REL_TOL,
            "{}: solve cycles rel err {e:.3} exceeds {PINNED_REL_TOL}",
            cycle.label
        );
    }
}
