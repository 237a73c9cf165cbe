//! Data-movement energy model — quantifies the paper's Fig. 5b remark
//! that pack0's 5.6× redundant off-chip traffic "significantly increases
//! the energy waste on off-chip data movement".
//!
//! Energy coefficients are representative published figures for the
//! technologies in the paper's system (HBM2 access energy ≈ 3.9 pJ/bit,
//! 12 nm SRAM scratchpad access ≈ 0.18 pJ/bit, register/queue traffic
//! ≈ 0.05 pJ/bit) and are exposed as fields so studies can re-calibrate.

/// Energy coefficients in picojoules per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Off-chip DRAM access energy (HBM2, includes PHY/IO).
    pub dram_pj_per_byte: f64,
    /// On-chip SRAM (L2 scratchpad / LLC) access energy.
    pub sram_pj_per_byte: f64,
    /// Queue/register-file movement energy inside the adapter.
    pub queue_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            dram_pj_per_byte: 31.2, // 3.9 pJ/bit
            sram_pj_per_byte: 1.44, // 0.18 pJ/bit
            queue_pj_per_byte: 0.4, // 0.05 pJ/bit
        }
    }
}

/// Energy of one SpMV run, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Off-chip DRAM movement energy.
    pub dram_nj: f64,
    /// On-chip SRAM movement energy.
    pub onchip_nj: f64,
}

impl EnergyReport {
    /// Total data-movement energy.
    pub fn total_nj(&self) -> f64 {
        self.dram_nj + self.onchip_nj
    }

    /// Energy per nonzero in picojoules.
    pub fn pj_per_nnz(&self, nnz: u64) -> f64 {
        if nnz == 0 {
            0.0
        } else {
            self.total_nj() * 1e3 / nnz as f64
        }
    }
}

impl EnergyModel {
    /// Estimates data-movement energy from the byte counts an
    /// [`RunReport`](../nmpic_system/struct.RunReport.html)-style run
    /// exposes: off-chip traffic plus on-chip stream traffic (each
    /// element's value and gathered operand cross the L2 twice: fill and
    /// consume).
    pub fn spmv_energy(&self, offchip_bytes: u64, onchip_bytes: u64) -> EnergyReport {
        EnergyReport {
            dram_nj: offchip_bytes as f64 * self.dram_pj_per_byte * 1e-3,
            onchip_nj: onchip_bytes as f64 * self.sram_pj_per_byte * 1e-3
                + onchip_bytes as f64 * self.queue_pj_per_byte * 1e-3,
        }
    }

    /// On-chip stream bytes for a pack-system SpMV over `entries` padded
    /// elements: values and packed operands are written to and read from
    /// the L2 scratchpad once each (2 × 2 × 8 B per entry), plus the
    /// 4 B index per entry through the adapter queues.
    pub fn pack_onchip_bytes(&self, entries: u64) -> u64 {
        entries * (2 * 2 * 8 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_for_redundant_traffic() {
        let m = EnergyModel::default();
        // pack0-like: 6x ideal traffic off-chip.
        let e = m.spmv_energy(6 * 1_000_000, m.pack_onchip_bytes(50_000));
        assert!(e.dram_nj > 5.0 * e.onchip_nj, "{e:?}");
    }

    #[test]
    fn energy_scales_linearly_with_traffic() {
        let m = EnergyModel::default();
        let a = m.spmv_energy(1_000_000, 0);
        let b = m.spmv_energy(3_000_000, 0);
        assert!((b.dram_nj / a.dram_nj - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pj_per_nnz_is_finite_and_positive() {
        let m = EnergyModel::default();
        let e = m.spmv_energy(500_000, m.pack_onchip_bytes(40_000));
        let pj = e.pj_per_nnz(40_000);
        assert!(pj > 0.0 && pj.is_finite());
        assert_eq!(e.pj_per_nnz(0), 0.0);
    }

    #[test]
    fn coalescing_saves_energy() {
        // pack256 traffic ~1.3x ideal vs pack0 ~5.8x: energy ratio should
        // approach the traffic ratio because DRAM dominates.
        let m = EnergyModel::default();
        let ideal = 2_000_000u64;
        let onchip = m.pack_onchip_bytes(60_000);
        let p0 = m.spmv_energy((5.8 * ideal as f64) as u64, onchip);
        let p256 = m.spmv_energy((1.3 * ideal as f64) as u64, onchip);
        let ratio = p0.total_nj() / p256.total_nj();
        assert!(ratio > 3.0, "expected large energy saving, got {ratio:.2}");
    }
}
