//! Benchmark inputs: everything comes from `nmpic_sparse::gen` seeded
//! from `--seed`; the program under test sees only the matrices and
//! vectors built here.
//!
//! The two axes the related work says decide SpMV cost are covered by
//! `fem` (banded, high locality, even rows) and `circuit` (hub rows and
//! far couplings, low locality, skewed rows); `stencil` is the regular
//! best case and `spd` the solver's input.

use nmpic_sparse::{gen, Csr};
use nmpic_system::golden_x;

pub fn fem(rows: usize, seed: u64) -> Csr {
    gen::banded_fem(rows, 12, 200, seed)
}

pub fn circuit(rows: usize, seed: u64) -> Csr {
    gen::circuit(rows, 5, 64, 0.1, 16, seed)
}

pub fn stencil(n: usize) -> Csr {
    gen::stencil27(n, n, n)
}

pub fn spd(rows: usize, seed: u64) -> Csr {
    gen::spd(rows, 12, 200, seed)
}

/// A matrix with the vector it is multiplied by and the golden
/// `Csr::spmv` result every other path must reproduce bit for bit.
pub struct Mat {
    pub name: &'static str,
    pub csr: Csr,
    pub x: Vec<f64>,
    pub golden: Vec<f64>,
}

impl Mat {
    pub fn new(name: &'static str, csr: Csr) -> Mat {
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        let golden = csr.spmv(&x);
        Mat {
            name,
            csr,
            x,
            golden,
        }
    }

    pub fn nnz(&self) -> u64 {
        self.csr.nnz() as u64
    }

    pub fn matches(&self, y: &[f64]) -> bool {
        same_bits(y, &self.golden)
    }
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// `fem`, `circuit` and `stencil` with about `nnz` stored nonzeros each
/// (12.7, 5.9 and ~25 per row at these generator parameters).
pub fn cycle_set(nnz: usize, seed: u64) -> Vec<Mat> {
    let side = ((nnz as f64 / 25.0).cbrt().round() as usize).max(4);
    vec![
        Mat::new("fem", fem(nnz * 10 / 127, seed)),
        Mat::new("circuit", circuit(nnz * 10 / 59, seed)),
        Mat::new("stencil", stencil(side)),
    ]
}

/// `fem` and `circuit` with `rows` rows each.
pub fn kernel_set(rows: usize, seed: u64) -> Vec<Mat> {
    vec![
        Mat::new("fem", fem(rows, seed)),
        Mat::new("circuit", circuit(rows, seed)),
    ]
}

/// FNV-1a over 64-bit words: the signature a rep's simulated counts and
/// result bits are folded into, so reps can be compared with rep 1.
pub fn fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

pub const FOLD_SEED: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fold_bits(acc: u64, v: &[f64]) -> u64 {
    v.iter().fold(acc, |a, x| fold(a, x.to_bits()))
}
