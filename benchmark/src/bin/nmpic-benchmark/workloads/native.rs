//! `native_spmv`: the host kernels alone — the golden `Csr::spmv` every
//! simulated result is checked against, the `spmv_fast` value path of the
//! analytic mode at one and two jobs, and `Sell::spmv`. One rep calls
//! each kernel once on each matrix.

use crate::clock::timed;
use crate::harness::{rep_loop, Outcome, Rep, Setup, Workload};
use crate::inputs::{fold_bits, kernel_set, Mat};
use crate::trace::Tracer;
use nmpic_sparse::Sell;

/// Rows per matrix: fem ~6.4M nnz (77 MB of values and indices), circuit
/// ~2.9M nnz (35 MB) — each at least four times the 4 MiB per-core L2,
/// but resident in the reference box's 260 MiB shared L3, so bandwidth
/// figures are computed from array sizes, not measured DRAM traffic.
const ROWS: usize = 500_000;

/// Bytes the CSR kernel moves per stored nonzero, computed from array
/// element sizes: three 4-byte index reads and one 8-byte value.
pub const BYTES_PER_NNZ: f64 = 3.0 * 4.0 + 8.0;

pub struct NativeSpmv {
    mats: Vec<Mat>,
    sells: Vec<Sell>,
    y: Vec<Vec<f64>>,
}

impl NativeSpmv {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::empty();
        for ((mat, sell), y) in self.mats.iter().zip(&self.sells).zip(&mut self.y) {
            let (csr, x) = (&mat.csr, &mat.x);
            let mut check = |got: &[f64], ms: f64| {
                rep.ms += ms;
                rep.nnz += mat.nnz();
                rep.attempted += 1;
                rep.failed += u64::from(!mat.matches(got));
                rep.sig = fold_bits(rep.sig, got);
            };
            let (got, ms) = timed(|| tr.call("sparse", "Csr::spmv", || csr.spmv(x)));
            check(&got, ms);
            for jobs in [1, 2] {
                let ((), ms) = timed(|| {
                    tr.call("sparse", "Csr::spmv_fast_into_jobs", || {
                        csr.spmv_fast_into_jobs(jobs, x, y)
                    })
                });
                check(y, ms);
            }
            let (got, ms) = timed(|| tr.call("sparse", "Sell::spmv", || sell.spmv(x)));
            check(&got, ms);
        }
        rep
    }
}

impl Workload for NativeSpmv {
    const SETUP_REPS: usize = 5;

    fn setup(seed: u64) -> Setup<Self> {
        let mats = kernel_set(ROWS, seed);
        let y = mats.iter().map(|m| vec![0.0; m.csr.rows()]).collect();
        // Cold path: SELL conversion plus the first call of every kernel.
        let ((state, first), cold_ms) = timed(|| {
            let sells = mats
                .iter()
                .map(|m| Sell::from_csr_default(&m.csr))
                .collect();
            let mut state = NativeSpmv { mats, sells, y };
            let first = state.rep(&mut Tracer::off());
            (state, first)
        });
        Setup {
            state,
            cold_ms,
            attempted: first.attempted,
            failed: first.failed,
        }
    }

    fn measure(&mut self, budget_s: f64, tr: &mut Tracer) -> Outcome {
        rep_loop(budget_s, tr, |tr| self.rep(tr))
    }
}
