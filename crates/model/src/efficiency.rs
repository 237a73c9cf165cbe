//! On-chip efficiency comparison against state-of-the-art HBM vector
//! processors (Fig. 6b).
//!
//! The paper compares two ratios, both normalized to the *maximum
//! achievable* main-memory bandwidth (STREAM copy):
//!
//! * **on-chip cost** — total on-chip memory (register files + caches +
//!   scratchpads + adapter storage) per GB/s, in kB/(GB/s); lower is
//!   better;
//! * **SpMV performance efficiency** — sustained SpMV GFLOP/s per GB/s.
//!
//! A64FX and SX-Aurora numbers are encoded as documented constants taken
//! from the paper's references ([15] Gómez et al., PPoPP'21; [16] Alappat
//! et al., PMBS'20); "This Work" is computed from this repository's own
//! simulations plus the system configuration.

use nmpic_core::AdapterConfig;

/// One platform's data point in Fig. 6b.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyPoint {
    /// Platform name.
    pub name: String,
    /// Total on-chip memory in kB (register files, L1/L2/LLC, scratchpads,
    /// streaming-unit storage).
    pub onchip_kb: f64,
    /// STREAM-copy main-memory bandwidth in GB/s.
    pub stream_gbps: f64,
    /// Sustained double-precision SpMV GFLOP/s on the evaluation suite.
    pub spmv_gflops: f64,
}

impl EfficiencyPoint {
    /// On-chip cost in kB/(GB/s) — Fig. 6b's right axis; lower is better.
    pub fn onchip_cost(&self) -> f64 {
        self.onchip_kb / self.stream_gbps
    }

    /// SpMV performance efficiency in GFLOP/s per GB/s — Fig. 6b's left
    /// axis; higher is better.
    pub fn perf_efficiency(&self) -> f64 {
        self.spmv_gflops / self.stream_gbps
    }
}

/// Fujitsu A64FX reference point (48 cores, 64 KiB L1D each, 4×8 MiB L2,
/// HBM2; STREAM and SELL-C-σ SpMV figures from Alappat et al., reference \[16\] of the paper).
pub fn a64fx() -> EfficiencyPoint {
    EfficiencyPoint {
        name: "A64FX".to_string(),
        onchip_kb: 36_000.0,
        stream_gbps: 830.0,
        spmv_gflops: 100.0,
    }
}

/// NEC SX-Aurora TSUBASA reference point (8 vector cores, 16 MiB LLC,
/// large vector register files; figures from Gómez et al., reference \[15\] of the paper).
pub fn sx_aurora() -> EfficiencyPoint {
    EfficiencyPoint {
        name: "SX-Aurora".to_string(),
        onchip_kb: 19_000.0,
        stream_gbps: 780.0,
        spmv_gflops: 62.0,
    }
}

/// On-chip memory of this work's vector processor system in kB: Ara's
/// vector register file (16 lanes), CVA6 L1 caches, the 384 kB L2
/// scratchpad, and the adapter's queue storage.
pub fn this_work_onchip_kb(adapter: &AdapterConfig) -> f64 {
    let vrf_kb = 64.0; // 32 vregs × (16 lanes × 64 b × 16) = 64 KiB
    let l1_kb = 32.0; // CVA6 16 KiB I$ + 16 KiB D$
    let l2_kb = 384.0;
    let adapter_kb = adapter.storage_bytes() as f64 / 1024.0;
    vrf_kb + l1_kb + l2_kb + adapter_kb
}

/// Builds this work's Fig. 6b point from simulation results.
///
/// `spmv_gflops` should come from the pack-system simulation
/// (`RunReport::gflops` averaged over the evaluation matrices);
/// `stream_gbps` is the channel's achievable copy bandwidth (the paper's
/// single HBM2 channel sustains close to its 32 GB/s ideal on streaming).
pub fn this_work(adapter: &AdapterConfig, spmv_gflops: f64, stream_gbps: f64) -> EfficiencyPoint {
    EfficiencyPoint {
        name: "This Work".to_string(),
        onchip_kb: this_work_onchip_kb(adapter),
        stream_gbps,
        spmv_gflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_points_have_expected_magnitudes() {
        let a = a64fx();
        let s = sx_aurora();
        assert!(a.onchip_cost() > 40.0, "A64FX is storage-heavy");
        assert!(s.onchip_cost() > 20.0 && s.onchip_cost() < 30.0);
        assert!(a.perf_efficiency() > 0.1);
        assert!(s.perf_efficiency() > 0.06);
    }

    #[test]
    fn this_work_is_more_onchip_efficient() {
        // The paper's headline: 1.4× vs SX-Aurora and 2.6× vs A64FX in
        // on-chip efficiency.
        let tw = this_work(&AdapterConfig::mlp(256), 2.0, 30.0);
        let vs_sx = sx_aurora().onchip_cost() / tw.onchip_cost();
        let vs_a64 = a64fx().onchip_cost() / tw.onchip_cost();
        assert!(
            vs_sx > 1.2 && vs_sx < 1.9,
            "vs SX-Aurora: {vs_sx:.2} (paper: 1.4)"
        );
        assert!(
            vs_a64 > 2.0 && vs_a64 < 3.3,
            "vs A64FX: {vs_a64:.2} (paper: 2.6)"
        );
    }

    #[test]
    fn onchip_storage_includes_adapter() {
        let small = this_work_onchip_kb(&AdapterConfig::mlp(64));
        let big = this_work_onchip_kb(&AdapterConfig::mlp(256));
        assert!(big > small, "bigger window stores more metadata");
        assert!(big > 480.0 && big < 520.0, "~507 kB total, got {big}");
    }
}
