//! `solve_sharded`: time to a CG solution of stated accuracy on the
//! sharded engine. One rep is one full solve on the warm resident plan.

use crate::clock::timed;
use crate::harness::{rep_loop, Outcome, Rep, Setup, Workload};
use crate::inputs::{fold, fold_bits, spd, Mat, FOLD_SEED};
use crate::metrics::{Better, Decl};
use crate::trace::Tracer;
use crate::workloads::{engine, exact, sharded4};
use nmpic_mem::BackendConfig;
use nmpic_system::{ExecMode, SolveOptions, SolveReport, Solver, SpmvPlan};

/// Rows of the SPD system: one solve (~45 CG iterations) takes about a
/// second of host time, so a run holds eight or more.
const ROWS: usize = 3_000;
pub const TOL: f64 = 1e-10;

pub struct SolveSharded {
    mat: Mat,
    /// Right-hand side: `A·x` for the matrix's golden vector.
    b: Vec<f64>,
    plan: SpmvPlan,
    opts: SolveOptions,
    last: Option<SolveReport>,
}

impl SolveSharded {
    pub fn with(rows: usize, workers: usize, seed: u64) -> Setup<Self> {
        let mat = Mat::new("spd", spd(rows, seed));
        let b = mat.golden.clone();
        let (plan, prepare_ms) = timed(|| {
            engine(
                sharded4(),
                BackendConfig::interleaved(8),
                ExecMode::CycleAccurate,
            )
            .shard_workers(workers)
            .build()
            .prepare(&mat.csr)
        });
        let mut state = SolveSharded {
            mat,
            b,
            plan,
            opts: SolveOptions {
                tol: TOL,
                ..SolveOptions::default()
            },
            last: None,
        };
        // A solver's first result is its first solution: the cold path
        // is `prepare` plus one full solve.
        let first = state.rep(&mut Tracer::off());
        Setup {
            attempted: first.attempted,
            failed: first.failed,
            cold_ms: prepare_ms + first.ms,
            state,
        }
    }

    pub fn last(&self) -> Option<&SolveReport> {
        self.last.as_ref()
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let (r, ms) = timed(|| {
            tr.call("system", "Solver::cg", || {
                Solver::cg(&mut self.plan, &self.b, &self.opts)
            })
        });
        // Accuracy is checked against the golden kernel, not the solver's
        // own residual: ‖b − A·x‖₂ recomputed with `Csr::spmv`.
        let back = self.mat.csr.spmv(&r.x);
        let residual = back
            .iter()
            .zip(&self.b)
            .map(|(y, b)| (y - b) * (y - b))
            .sum::<f64>()
            .sqrt();
        let ok = r.converged && residual <= 10.0 * TOL;
        let sig = fold_bits(
            fold(
                fold(fold(FOLD_SEED, r.iterations as u64), r.spmv_cycles),
                r.offchip_bytes,
            ),
            &r.x,
        );
        let rep = Rep {
            ms,
            nnz: self.mat.nnz() * r.iterations as u64,
            attempted: 1,
            failed: u64::from(!ok),
            sig,
        };
        self.last = Some(r);
        rep
    }
}

impl Workload for SolveSharded {
    const SETUP_REPS: usize = 5;

    fn setup(seed: u64) -> Setup<Self> {
        SolveSharded::with(ROWS, 2, seed)
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        rep_loop(budget_s, tr, |tr| self.rep(tr))
    }

    fn detail(&self) -> Vec<(Decl, f64)> {
        let Some(r) = &self.last else {
            return Vec::new();
        };
        vec![
            (
                exact("sim_cycles", "cycles", Better::Lower),
                r.spmv_cycles as f64,
            ),
            (
                exact("sim_offchip_bytes", "bytes", Better::Lower),
                r.offchip_bytes as f64,
            ),
            (
                exact("cg_iters", "count", Better::Lower),
                r.iterations as f64,
            ),
        ]
    }
}
