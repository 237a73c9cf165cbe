//! Iterative-solver convergence on resident plans: conjugate gradient to
//! the paper's 1e-10 tolerance, one simulated SpMV per iteration.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::pool::parallel_map;
use nmpic_system::{golden_x, PartitionStrategy, SolveOptions, Solver, SpmvEngine, SystemKind};

use super::{col, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};

/// One solver-convergence measurement: a full CG solve on a prepared
/// plan, one simulated SpMV per iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverRow {
    /// System label of the plan (`base`, `pack256`, `sharded x4 (...)`).
    pub system: String,
    /// Memory-backend label (`ideal`, `hbm x8`).
    pub backend: String,
    /// Solver method (`cg`).
    pub method: &'static str,
    /// Iterations to tolerance (= simulated SpMVs).
    pub iters: usize,
    /// Whether `‖r‖₂ ≤ 1e-10` was reached within the cap.
    pub converged: bool,
    /// Final residual norm.
    pub residual: f64,
    /// Total simulated cycles across all iterations.
    pub total_cycles: u64,
    /// Amortized simulated cycles per iteration.
    pub cycles_per_iter: f64,
    /// Amortized off-chip traffic per iteration, in bytes.
    pub bytes_per_iter: f64,
    /// Amortized delivered off-chip bandwidth across the solve, GB/s at
    /// 1 GHz.
    pub gbps: f64,
}

/// The backends swept by [`solver_convergence`].
pub(crate) fn solver_backends() -> Vec<BackendConfig> {
    vec![BackendConfig::ideal(), BackendConfig::interleaved(8)]
}

/// The systems swept by [`solver_convergence`].
pub(crate) fn solver_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::default(),
        },
    ]
}

/// One engine per sweep point, system-major: [`solver_systems`] ×
/// [`solver_backends`].
fn engines() -> Vec<SpmvEngine> {
    let mut engines = Vec::new();
    for system in solver_systems() {
        for backend in solver_backends() {
            engines.push(
                SpmvEngine::builder()
                    .system(system.clone())
                    .backend(backend)
                    .build(),
            );
        }
    }
    engines
}

/// Runs the solver-convergence study: conjugate gradient to the paper's
/// `1e-10` tolerance on a generated SPD system, swept over
/// base/pack256/sharded4 × ideal/hbm8 (see [`engines`]), all points in
/// parallel.
///
/// This is the workload the session API exists for: every point
/// prepares its plan **once** and then drives the zero-realloc
/// [`nmpic_system::SpmvPlan::run_into`] hot path for every CG iteration
/// — no per-iteration layout, partitioning or format conversion, no
/// per-iteration result allocation. Reported per point:
/// iterations-to-tolerance, total simulated cycles, and the amortized
/// per-iteration cycle/traffic cost (the sustained GB/s an iterative
/// workload sees).
///
/// The CG trajectory is a pure function of the SpMV bytes, so every
/// (system × backend) point must converge in the **same** number of
/// iterations with bit-identical solutions — asserted in-experiment.
///
/// # Panics
///
/// Panics if any point fails to converge or its solution bytes diverge
/// from the first point's (a simulator bug, not a measurement).
pub(crate) fn solver_convergence(opts: &ExperimentOpts) -> Vec<SolverRow> {
    // Size the SPD system from the nonzero cap (~5 stored nonzeros per
    // row at these generator parameters).
    let rows = (opts.max_nnz / 5).clamp(64, 20_000) as usize;
    let a = nmpic_sparse::gen::spd(rows, 6, 16, 1105);
    assert!(a.is_symmetric(), "spd generator must emit symmetric output");
    let b: Vec<f64> = (0..a.rows()).map(golden_x).collect();
    let results = parallel_map(engines(), move |engine| {
        let backend = engine.backend();
        // Prepare once; every iteration below reuses the resident plan.
        let mut plan = engine.prepare(&a);
        let r = Solver::cg(&mut plan, &b, &SolveOptions::default());
        assert!(
            r.converged,
            "{}/{}: CG stalled at {} after {} iterations",
            r.label,
            backend.label(),
            r.residual,
            r.iterations
        );
        let bits: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
        let row = SolverRow {
            system: r.label.clone(),
            backend: backend.label(),
            method: r.method,
            iters: r.iterations,
            converged: r.converged,
            residual: r.residual,
            total_cycles: r.spmv_cycles,
            cycles_per_iter: r.cycles_per_iteration(),
            bytes_per_iter: r.bytes_per_iteration(),
            gbps: r.gbps(),
        };
        (row, bits)
    });
    let reference = results.first().map(|(_, bits)| bits.clone());
    results
        .into_iter()
        .map(|(row, bits)| {
            assert_eq!(
                Some(&bits),
                reference.as_ref(),
                "{}/{}: solution bytes diverged from the first point",
                row.system,
                row.backend
            );
            row
        })
        .collect()
}

fn table(rows: &[SolverRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::SYSTEM, |r| r.system.clone()),
            (col::BACKEND, |r| r.backend.clone()),
            ("method", |r| r.method.to_string()),
            ("iters", |r| r.iters.to_string()),
            ("converged", |r| r.converged.to_string()),
            ("residual", |r| format!("{:.3e}", r.residual)),
            ("total cycles", |r| r.total_cycles.to_string()),
            ("cycles/iter", |r| f(r.cycles_per_iter, 0)),
            ("bytes/iter", |r| f(r.bytes_per_iter, 0)),
            (col::GBPS, |r| f(r.gbps, 2)),
        ],
    )
}

/// A row with zero iterations means the solve never ran an SpMV; a
/// non-converged row means the tolerance was never reached.
pub(super) fn gates(rows: &[SolverRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if r.iters == 0 {
            failures.push(format!("{}/{}: zero-iteration solve", r.system, r.backend));
        }
        if !r.converged {
            failures.push(format!(
                "{}/{}: not converged (residual {:.3e})",
                r.system, r.backend, r.residual
            ));
        }
    }
    failures
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    let rows = solver_convergence(opts);
    let section = Section::new(
        "solver_convergence",
        "CG convergence to 1e-10 on a generated SPD system (one plan per point, run_into per iteration)",
        table(&rows),
    )
    .notes([
        "(identical iteration counts and bit-identical solutions across all points are",
        " asserted in-experiment; the sweep measures simulated cost, not different math)",
    ]);
    Outcome {
        tables: vec![section],
        failures: gates(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_row() -> SolverRow {
        SolverRow {
            system: "pack256".to_string(),
            backend: "hbm x8".to_string(),
            iters: 40,
            converged: true,
            residual: 5e-11,
            ..SolverRow::default()
        }
    }

    #[test]
    fn gates_flag_zero_iterations_and_non_convergence() {
        assert!(gates(&[clean_row()]).is_empty());
        let idle = SolverRow {
            iters: 0,
            ..clean_row()
        };
        let stalled = SolverRow {
            converged: false,
            residual: 1e-3,
            ..clean_row()
        };
        for bad in [idle, stalled] {
            let failures = gates(&[clean_row(), bad]);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("pack256/hbm x8"), "{failures:?}");
        }
    }
}
