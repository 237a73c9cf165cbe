//! `analytic_sweep`: `ExecMode::Analytic` the way a sweep uses it — every
//! point pays `prepare` and then multiplies a small batch. One rep is one
//! sweep over systems × matrices. The model's accuracy against the
//! cycle-accurate simulator is measured once per set-up on a small grid.

use crate::clock::{ms_since, now_ns, timed};
use crate::harness::{rep_loop, Outcome, Rep, Setup, Workload};
use crate::inputs::{cycle_set, fold, fold_bits, kernel_set, same_bits, Mat};
use crate::metrics::{Better, Decl};
use crate::trace::Tracer;
use crate::workloads::{engine, exact, pack256, run_ok, sharded4};
use nmpic_bench::batch_x;
use nmpic_mem::BackendConfig;
use nmpic_system::{ExecMode, RunReport, SystemKind};

/// Rows of the swept matrices (fem ~1.9M nnz, circuit ~0.9M nnz): far
/// beyond what the cycle-accurate mode sweeps, and one sweep still takes
/// about a second.
const ROWS: usize = 150_000;
/// Vectors per sweep point.
const BATCH: usize = 2;
/// Stored nonzeros of each accuracy-grid matrix.
const GRID_NNZ: usize = 30_000;

fn systems() -> [SystemKind; 3] {
    [SystemKind::Base, pack256(), sharded4()]
}

/// |analytic − cycle| / cycle.
pub fn rel_err(analytic: f64, cycle: f64) -> f64 {
    (analytic - cycle).abs() / cycle
}

/// Largest relative error of the analytic cycle count over
/// `mats` × systems × {hbm, hbm x8}; also counts the runs it verified.
fn accuracy_grid(mats: &[Mat], attempted: &mut u64, failed: &mut u64) -> f64 {
    let mut worst = 0.0f64;
    for backend in [BackendConfig::hbm(), BackendConfig::interleaved(8)] {
        for system in systems() {
            for mat in mats {
                let mut run = |mode| {
                    let r = engine(system.clone(), backend.clone(), mode)
                        .build()
                        .prepare(&mat.csr)
                        .run(&mat.x);
                    *attempted += 1;
                    *failed += u64::from(!run_ok(mat, &r));
                    r.cycles as f64
                };
                let cycle = run(ExecMode::CycleAccurate);
                worst = worst.max(rel_err(run(ExecMode::Analytic), cycle));
            }
        }
    }
    worst
}

pub struct AnalyticSweep {
    mats: Vec<Mat>,
    /// `BATCH` vectors per matrix with their golden results.
    xs: Vec<Vec<Vec<f64>>>,
    golden: Vec<Vec<Vec<f64>>>,
    rel_err: f64,
}

impl AnalyticSweep {
    fn sweep(&self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::empty();
        for system in systems() {
            let engine = engine(system, BackendConfig::interleaved(8), ExecMode::Analytic)
                .batch_capacity(BATCH)
                .build();
            for (k, mat) in self.mats.iter().enumerate() {
                let t0 = now_ns();
                let mut plan =
                    tr.call("system", "SpmvEngine::prepare", || engine.prepare(&mat.csr));
                let r: RunReport = tr.call("system", "SpmvPlan::run_batch", || {
                    plan.run_batch(&self.xs[k])
                });
                rep.ms += ms_since(t0);
                let ok = r.verified
                    && r.ys.len() == BATCH
                    && r.ys
                        .iter()
                        .zip(&self.golden[k])
                        .all(|(y, g)| same_bits(y, g));
                rep.nnz += mat.nnz() * BATCH as u64;
                rep.attempted += BATCH as u64;
                rep.failed += if ok { 0 } else { BATCH as u64 };
                rep.sig = fold(fold(rep.sig, r.cycles), r.offchip_bytes);
                for y in &r.ys {
                    rep.sig = fold_bits(rep.sig, y);
                }
            }
        }
        rep
    }
}

impl Workload for AnalyticSweep {
    const SETUP_REPS: usize = 5;

    fn setup(seed: u64) -> Setup<Self> {
        let mats = kernel_set(ROWS, seed);
        let xs: Vec<Vec<Vec<f64>>> = mats
            .iter()
            .map(|m| {
                (0..BATCH)
                    .map(|b| (0..m.csr.cols()).map(|i| batch_x(b, i)).collect())
                    .collect()
            })
            .collect();
        let golden = mats
            .iter()
            .zip(&xs)
            .map(|(m, xs)| xs.iter().map(|x| m.csr.spmv(x)).collect())
            .collect();
        let (mut attempted, mut failed) = (0, 0);
        let rel_err = accuracy_grid(&cycle_set(GRID_NNZ, seed), &mut attempted, &mut failed);
        let state = AnalyticSweep {
            mats,
            xs,
            golden,
            rel_err,
        };
        // The first sweep is the cold path: nothing is resident here, so
        // it is also what every later rep costs.
        let (first, cold_ms) = timed(|| state.sweep(&mut Tracer::off()));
        Setup {
            state,
            cold_ms,
            attempted: attempted + first.attempted,
            failed: failed + first.failed,
        }
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        rep_loop(budget_s, tr, |tr| self.sweep(tr))
    }

    fn detail(&self) -> Vec<(Decl, f64)> {
        vec![(
            exact("analytic_rel_err", "ratio", Better::Lower),
            self.rel_err,
        )]
    }
}
