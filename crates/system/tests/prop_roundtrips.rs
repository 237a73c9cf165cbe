//! Property-style tests over the core invariants: format equivalence,
//! file-format roundtrips, and adapter gather/scatter correctness on
//! arbitrary index streams.
//!
//! These are hand-rolled property tests driven by the deterministic
//! [`SimRng`] generator (the workspace deliberately has no external
//! dependencies, so proptest is not available). Each property runs a
//! fixed number of seeded cases; failures print the seed so a case can be
//! replayed exactly.

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_sim::SimRng;
use nmpic_sparse::{read_matrix_market, write_matrix_market, Coo, Csr, Sell};

/// A small random sparse matrix with `0..120` entries.
fn arb_matrix(rng: &mut SimRng) -> Csr {
    let rows = rng.gen_u64(2, 40) as usize;
    let cols = rng.gen_u64(2, 40) as usize;
    let n = rng.gen_u64(0, 120) as usize;
    let mut coo = Coo::new(rows, cols);
    for _ in 0..n {
        let r = rng.gen_u64(0, rows as u64) as u32;
        let c = rng.gen_u64(0, cols as u64) as u32;
        let v = rng.gen_u64(0, 200) as i64 - 100;
        coo.push(r, c, v as f64 * 0.25);
    }
    coo.to_csr()
}

/// SELL SpMV equals CSR SpMV for every matrix and slice height.
#[test]
fn sell_equals_csr_spmv() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed + 1);
        let csr = arb_matrix(&mut rng);
        let height = rng.gen_u64(1, 40) as usize;
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.5) - 3.0).collect();
        let sell = Sell::from_csr(&csr, height);
        assert_eq!(sell.spmv(&x), csr.spmv(&x), "seed {seed}, height {height}");
        assert_eq!(sell.nnz(), csr.nnz(), "seed {seed}");
        assert!(sell.padded_len() >= csr.nnz(), "seed {seed}");
    }
}

/// MatrixMarket write → read is the identity on CSR.
#[test]
fn matrix_market_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x1000 + seed);
        let csr = arb_matrix(&mut rng);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &csr).expect("write");
        let back = read_matrix_market(buf.as_slice()).expect("read");
        assert_eq!(back, csr, "seed {seed}");
    }
}

/// COO → CSR sums duplicates: total matrix action is preserved.
#[test]
fn coo_duplicates_sum() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x2000 + seed);
        let n = rng.gen_u64(1, 60) as usize;
        let mut coo = Coo::new(16, 16);
        let mut dense = vec![0.0f64; 16 * 16];
        for _ in 0..n {
            let r = rng.gen_u64(0, 16) as u32;
            let c = rng.gen_u64(0, 16) as u32;
            let v = rng.gen_u64(0, 100) as i64 - 50;
            coo.push(r, c, v as f64);
            dense[(r as usize) * 16 + c as usize] += v as f64;
        }
        let csr = coo.to_csr();
        let x = vec![1.0; 16];
        let y = csr.spmv(&x);
        for (r, got) in y.iter().enumerate() {
            let want: f64 = dense[r * 16..(r + 1) * 16].iter().sum();
            assert!((got - want).abs() < 1e-9, "seed {seed}, row {r}");
        }
    }
}

/// The adapter delivers exactly the golden gather for arbitrary index
/// streams, for every variant family.
#[test]
fn adapter_gathers_any_stream() {
    for seed in 0..12u64 {
        let mut rng = SimRng::new(0x3000 + seed);
        let n = rng.gen_u64(1, 400) as usize;
        let indices: Vec<u32> = (0..n).map(|_| rng.gen_u64(0, 500) as u32).collect();
        let cfg = match seed % 4 {
            0 => AdapterConfig::mlp_nc(),
            1 => AdapterConfig::mlp(8),
            2 => AdapterConfig::mlp(64),
            _ => AdapterConfig::seq(32),
        };
        let r = run_indirect_stream(&cfg, &indices, 500, &StreamOptions::default());
        assert!(
            r.verified,
            "{} failed on {} indices (seed {seed})",
            cfg.variant_name(),
            indices.len()
        );
        assert_eq!(r.elements, indices.len() as u64, "seed {seed}");
    }
}

mod scatter_props {
    use nmpic_axi::ElemSize;
    use nmpic_core::{AdapterConfig, ScatterRequest, ScatterUnit};
    use nmpic_mem::{ChannelPort, HbmChannel, HbmConfig, Memory};
    use nmpic_sim::SimRng;

    /// Reference scatter: last writer wins, everything else untouched.
    fn golden_scatter(indices: &[u32], values: &[u64], dst_len: usize) -> Vec<u64> {
        let mut out: Vec<u64> = (0..dst_len as u64).map(|i| i * 11).collect();
        for (k, &idx) in indices.iter().enumerate() {
            out[idx as usize] = values[k];
        }
        out
    }

    fn run_scatter(indices: &[u32], values: &[u64], dst_len: usize) -> Vec<u64> {
        let size = (4 * indices.len() + 8 * dst_len + 4096)
            .next_multiple_of(64)
            .next_power_of_two();
        let mut mem = Memory::new(size);
        let idx_base = mem.alloc_array(indices.len() as u64, 4);
        let dst = mem.alloc_array(dst_len as u64, 8);
        mem.write_u32_slice(idx_base, indices);
        for i in 0..dst_len as u64 {
            mem.write_u64(dst + 8 * i, i * 11);
        }
        let mut chan = HbmChannel::new(HbmConfig::default(), mem);
        let req = ScatterRequest {
            idx_base,
            idx_size: ElemSize::B4,
            count: indices.len() as u64,
            elem_base: dst,
            elem_size: ElemSize::B8,
        };
        ScatterUnit::new(AdapterConfig::mlp(64))
            .run_burst(&mut chan, req, values.iter().copied())
            .expect("fresh unit");
        (0..dst_len as u64)
            .map(|i| chan.memory().read_u64(dst + 8 * i))
            .collect()
    }

    /// Scatter through the unit equals the golden last-writer-wins
    /// semantics for arbitrary index/value streams (with duplicates).
    #[test]
    fn scatter_matches_golden() {
        for seed in 0..10u64 {
            let mut rng = SimRng::new(0x4000 + seed);
            let n = rng.gen_u64(1, 300) as usize;
            let indices: Vec<u32> = (0..n).map(|_| rng.gen_u64(0, 200) as u32).collect();
            let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let got = run_scatter(&indices, &values, 200);
            let want = golden_scatter(&indices, &values, 200);
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
