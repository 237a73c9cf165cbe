//! Analytic-vs-cycle-accurate validation: per-point relative error of
//! the analytic execution mode's cost metrics on the backend × system
//! grid, plus — at full scale — an analytic-only large-matrix sweep and
//! the million-row wall-clock speedup of the analytic fast path.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::pool::parallel_map;
use nmpic_system::{golden_x, ExecMode, PartitionStrategy, SpmvEngine, SystemKind, PINNED_REL_TOL};

use super::{col, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};
use crate::timing::Stopwatch;

/// Headers the grid and the large-matrix table share.
const ROWS: &str = "rows";
const NNZ: &str = "nnz";

/// One analytic-vs-cycle-accurate validation point: the same prepared
/// matrix run through both execution modes on the same system × backend,
/// with relative errors on every reported cost metric.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnalyticValidationRow {
    /// Matrix label.
    pub matrix: String,
    /// System label (`base`, `pack256`, `sharded x4 (...)`).
    pub system: String,
    /// Backend label (`ideal`, `hbm`, `hbm x4`, `hbm x8`).
    pub backend: String,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix nonzeros.
    pub nnz: u64,
    /// Cycle-accurate total cycles.
    pub cycle_cycles: u64,
    /// Analytic total cycles.
    pub analytic_cycles: u64,
    /// |analytic − cycle| / cycle on total cycles.
    pub rel_err_cycles: f64,
    /// |analytic − cycle| / cycle on off-chip bytes.
    pub rel_err_bytes: f64,
    /// |analytic − cycle| / cycle on effective GB/s.
    pub rel_err_gbps: f64,
    /// Whether every relative error is within the pinned tolerance
    /// ([`PINNED_REL_TOL`]).
    pub within_tol: bool,
    /// Whether both modes produced bit-identical result vectors.
    pub values_match: bool,
}

impl AnalyticValidationRow {
    /// Largest of the three relative errors.
    pub fn max_rel_err(&self) -> f64 {
        self.rel_err_cycles
            .max(self.rel_err_bytes)
            .max(self.rel_err_gbps)
    }
}

/// Whether a relative error breaks the pinned tolerance; a non-finite
/// error (a zero cycle-accurate denominator, a NaN metric) does too.
fn out_of_tol(err: f64) -> bool {
    !err.is_finite() || err > PINNED_REL_TOL
}

fn rel_err(analytic: f64, cycle: f64) -> f64 {
    if cycle == 0.0 {
        if analytic == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (analytic - cycle).abs() / cycle.abs()
    }
}

/// The backends the analytic validation grid sweeps: single ideal
/// channel, one HBM2 channel, and 4-/8-channel interleaved stacks.
pub(crate) fn analytic_backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

/// The systems the analytic validation grid sweeps.
pub(crate) fn analytic_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
    ]
}

/// The grid's engines, backend-major then system, each point as a
/// (cycle-accurate, analytic) pair — the experiment runs both modes by
/// construction.
fn engines() -> Vec<SpmvEngine> {
    let mut engines = Vec::new();
    for backend in analytic_backends() {
        for system in analytic_systems() {
            for mode in [ExecMode::CycleAccurate, ExecMode::Analytic] {
                engines.push(
                    SpmvEngine::builder()
                        .backend(backend.clone())
                        .system(system.clone())
                        .exec_mode(mode)
                        .build(),
                );
            }
        }
    }
    engines
}

/// Validates [`ExecMode::Analytic`] against cycle-accurate execution on
/// a structured and a hub-heavy matrix across every backend × system of
/// the grid ([`engines`]): both modes run the same prepared matrix and
/// the row records the relative error of every cost metric plus
/// bit-equality of the result vectors.
///
/// # Panics
///
/// Panics if any run fails verification — that is a simulator bug, not
/// a measurement.
pub(crate) fn analytic_validation(opts: &ExperimentOpts) -> Vec<AnalyticValidationRow> {
    let per_row = 6usize;
    let rows = (opts.max_nnz as usize / per_row).clamp(64, usize::MAX);
    let matrices = vec![
        (
            "banded_fem",
            nmpic_sparse::gen::banded_fem(rows, per_row, 48, 5),
        ),
        (
            "circuit",
            nmpic_sparse::gen::circuit(rows, per_row, 64, 0.02, 8, 7),
        ),
    ];
    let engines = engines();
    let mut jobs = Vec::new();
    for (name, csr) in &matrices {
        for pair in engines.chunks(2) {
            jobs.push((name.to_string(), csr, pair));
        }
    }
    parallel_map(jobs, |(name, csr, pair)| {
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        let (system, backend) = (pair[0].system(), pair[0].backend());
        let cycle = pair[0].prepare(csr).run(&x);
        let analytic = pair[1].prepare(csr).run(&x);
        assert!(
            cycle.verified && analytic.verified,
            "{name}/{system}/{}: golden mismatch",
            backend.label()
        );
        let rel_err_cycles = rel_err(analytic.cycles as f64, cycle.cycles as f64);
        let rel_err_bytes = rel_err(analytic.offchip_bytes as f64, cycle.offchip_bytes as f64);
        let rel_err_gbps = rel_err(analytic.gbps(), cycle.gbps());
        AnalyticValidationRow {
            matrix: name,
            system: system.to_string(),
            backend: backend.label(),
            rows: csr.rows(),
            nnz: csr.nnz() as u64,
            cycle_cycles: cycle.cycles,
            analytic_cycles: analytic.cycles,
            rel_err_cycles,
            rel_err_bytes,
            rel_err_gbps,
            within_tol: ![rel_err_cycles, rel_err_bytes, rel_err_gbps]
                .into_iter()
                .any(out_of_tol),
            values_match: cycle.y_bits() == analytic.y_bits(),
        }
    })
}

fn table(rows: &[AnalyticValidationRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::MATRIX, |r| r.matrix.clone()),
            (col::SYSTEM, |r| r.system.clone()),
            (col::BACKEND, |r| r.backend.clone()),
            (ROWS, |r| r.rows.to_string()),
            (NNZ, |r| r.nnz.to_string()),
            ("cycle cycles", |r| r.cycle_cycles.to_string()),
            ("analytic cycles", |r| r.analytic_cycles.to_string()),
            ("rel err cycles", |r| f(r.rel_err_cycles, 3)),
            ("rel err bytes", |r| f(r.rel_err_bytes, 3)),
            ("rel err GB/s", |r| f(r.rel_err_gbps, 3)),
            ("within tol", |r| r.within_tol.to_string()),
            ("values match", |r| r.values_match.to_string()),
        ],
    )
}

/// Every relative error must sit within [`PINNED_REL_TOL`], and both
/// modes must have produced bit-identical result vectors — analytic mode
/// models cost, never values.
pub(super) fn gates(rows: &[AnalyticValidationRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let point = format!("{}/{}/{}", r.matrix, r.system, r.backend);
        for (metric, err) in [
            ("cycles", r.rel_err_cycles),
            ("bytes", r.rel_err_bytes),
            ("GB/s", r.rel_err_gbps),
        ] {
            if out_of_tol(err) {
                failures.push(format!(
                    "{point}: rel err {metric} {err:.3} above the pinned tolerance {PINNED_REL_TOL}"
                ));
            }
        }
        if !r.values_match {
            failures.push(format!("{point}: result vectors differ between modes"));
        }
    }
    failures
}

/// The engine of the two full-scale sections: `sharded4` over hbm x4.
fn scale_engine(mode: ExecMode) -> SpmvEngine {
    SpmvEngine::builder()
        .backend(BackendConfig::interleaved(4))
        .system(SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::default(),
        })
        .exec_mode(mode)
        .build()
}

/// Analytic-only sweep over shapes 10–80× beyond CI scale — the sweeps a
/// cycle-accurate run cannot reach interactively.
fn large_matrix_sweep() -> Section {
    let mut table = Table::new(vec![
        col::MATRIX,
        ROWS,
        NNZ,
        col::CYCLES,
        col::GBPS,
        "prep ms",
        "run ms",
    ]);
    let engine = scale_engine(ExecMode::Analytic);
    for rows in [250_000usize, 1_000_000, 2_000_000] {
        for (name, csr) in [
            ("banded_fem", nmpic_sparse::gen::banded_fem(rows, 6, 48, 5)),
            (
                "circuit",
                nmpic_sparse::gen::circuit(rows, 6, 64, 0.02, 8, 7),
            ),
        ] {
            let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
            let t0 = Stopwatch::start();
            let mut plan = engine.prepare(&csr);
            let prep = t0.elapsed();
            let t1 = Stopwatch::start();
            let r = plan.run(&x);
            let run = t1.elapsed();
            assert!(
                r.verified,
                "{name}/{rows}: analytic run failed verification"
            );
            table.row(vec![
                name.to_string(),
                rows.to_string(),
                r.nnz.to_string(),
                r.cycles.to_string(),
                f(r.gbps(), 2),
                f(prep.as_secs_f64() * 1e3, 1),
                f(run.as_secs_f64() * 1e3, 1),
            ]);
        }
    }
    Section::new(
        "analytic_scale",
        "Large-matrix analytic sweep (sharded x4, hbm x4; cycle-accurate at this scale takes minutes per point)",
        table,
    )
}

/// Rows of the matrix used for the full-scale speedup measurement.
const SPEEDUP_ROWS: usize = 1_000_000;
/// Vectors per batch in the speedup measurement (iterative workloads
/// amortize one plan across many runs; so does the analytic model).
const SPEEDUP_BATCH: usize = 8;

/// Times the same million-row batched SpMV on a fresh plan in both modes
/// and reports the wall-clock speedup of the analytic fast path.
fn speedup_measurement() -> Section {
    let csr = nmpic_sparse::gen::banded_fem(SPEEDUP_ROWS, 6, 48, 5);
    let xs: Vec<Vec<f64>> = (0..SPEEDUP_BATCH)
        .map(|b| {
            (0..csr.cols())
                .map(|i| golden_x(i) + b as f64 * 0.01)
                .collect()
        })
        .collect();
    let wall_ms = |mode: ExecMode| {
        let mut plan = scale_engine(mode).prepare(&csr);
        let t0 = Stopwatch::start();
        let r = plan.run_batch(&xs);
        let ms = t0.elapsed_ms();
        assert!(r.verified, "{mode}: speedup run failed verification");
        ms
    };
    let analytic = wall_ms(ExecMode::Analytic);
    let cycle = wall_ms(ExecMode::CycleAccurate);
    let mut table = Table::new(vec!["mode", col::WALL_MS, col::SPEEDUP]);
    for (mode, ms) in [
        (ExecMode::Analytic, analytic),
        (ExecMode::CycleAccurate, cycle),
    ] {
        table.row(vec![mode.to_string(), f(ms, 1), f(cycle / ms, 1)]);
    }
    Section::new(
        "analytic_speedup",
        format!(
            "Speedup measurement: {SPEEDUP_ROWS} rows x batch {SPEEDUP_BATCH} (sharded x4, hbm x4)"
        ),
        table,
    )
    .notes([format!(
        "analytic fast-path wall-clock speedup: {:.0}x (target >= 100x) on a {SPEEDUP_ROWS}-row matrix",
        cycle / analytic
    )])
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    let rows = analytic_validation(opts);
    let worst = rows.iter().map(|r| r.max_rel_err()).fold(0.0f64, f64::max);
    let grid = Section::new(
        "analytic_validation",
        format!("Analytic vs cycle-accurate cost metrics (pinned tolerance {PINNED_REL_TOL})"),
        table(&rows),
    )
    .notes([format!(
        "worst relative error across the grid: {worst:.3} (bound {PINNED_REL_TOL}); \
         result vectors bit-identical on every point"
    )]);
    // The large-matrix sections only make sense at full scale: under
    // NMPIC_QUICK the grid above is the whole (CI) story.
    let tables = if opts.max_nnz < 150_000 {
        vec![grid.notes(["(quick scale: skipping large-matrix sweep and speedup measurement)"])]
    } else {
        vec![grid, large_matrix_sweep(), speedup_measurement()]
    };
    Outcome {
        tables,
        failures: gates(&rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_row() -> AnalyticValidationRow {
        AnalyticValidationRow {
            matrix: "circuit".to_string(),
            system: "pack256".to_string(),
            backend: "hbm x4".to_string(),
            rel_err_cycles: 0.1,
            rel_err_gbps: 0.09,
            values_match: true,
            ..AnalyticValidationRow::default()
        }
    }

    #[test]
    fn gates_flag_out_of_tolerance_errors_and_value_mismatches() {
        assert!(gates(&[clean_row()]).is_empty());
        let at_the_bound = AnalyticValidationRow {
            rel_err_cycles: PINNED_REL_TOL,
            ..clean_row()
        };
        assert!(gates(&[at_the_bound]).is_empty(), "the bound is inclusive");
        let broken = [
            AnalyticValidationRow {
                rel_err_cycles: PINNED_REL_TOL + 1e-9,
                ..clean_row()
            },
            AnalyticValidationRow {
                rel_err_bytes: f64::NAN,
                ..clean_row()
            },
            AnalyticValidationRow {
                rel_err_gbps: f64::INFINITY,
                ..clean_row()
            },
            AnalyticValidationRow {
                values_match: false,
                ..clean_row()
            },
        ];
        for bad in broken {
            let failures = gates(&[clean_row(), bad]);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(
                failures[0].starts_with("circuit/pack256/hbm x4"),
                "{failures:?}"
            );
        }
    }
}
