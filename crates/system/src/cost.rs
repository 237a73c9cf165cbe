//! The memory side of the closed-form cost models behind
//! [`crate::ExecMode::Analytic`].
//!
//! The simulators step every queue and bank state machine once per
//! simulated cycle — faithful, but hundreds of host operations per
//! nonzero. Each system's model (`base_cost` in `base.rs`, `pack_cost` in
//! `pack.rs`, `shard_gather_cost` and `collect_cost` in `shard.rs`)
//! predicts the same three cost observables (`cycles`, `indir_cycles`,
//! `offchip_bytes`) from **structural replays** that cost O(1) work per
//! nonzero:
//!
//! * traffic comes from replaying the exact access streams through the
//!   shared structural models — the LLC tag array ([`nmpic_mem::Cache`])
//!   for the baseline system, the coalescer window/CSHR model
//!   ([`nmpic_core::CoalescerTrafficModel`]) for the adapter systems —
//!   so line counts are the counts the simulators produce, not curve
//!   fits;
//! * latency comes from closed-form per-phase formulas: each phase is
//!   either issue-rate-bound, upstream-port-bound, or DRAM-bound, and the
//!   phase cost is the max of those terms plus a channel latency
//!   constant ([`ChannelModel`]).
//!
//! Each model sums its phases in `f64` and rounds to whole cycles once,
//! when it returns. Result *values* are never modelled: the plan computes
//! them with the system's value kernel, so analytic runs stay verified
//! and iterative solvers reproduce their cycle-accurate residual
//! trajectories bit for bit. Only the cost metrics are approximate,
//! within [`PINNED_REL_TOL`] of cycle-accurate mode.

use nmpic_mem::{BackendConfig, BackendKind, BLOCK_BYTES};

/// Pinned relative tolerance between analytic and cycle-accurate cost
/// metrics (`cycles`, `offchip_bytes`, and the GB/s etc. derived from
/// them) on the validation grid: ideal/hbm/hbm4/hbm8 ×
/// base/pack/sharded at CI scale. The `analytic_validation` experiment's
/// result gate and `crates/system/tests/exec_mode.rs` read this constant
/// directly.
pub const PINNED_REL_TOL: f64 = 0.5;

/// Estimated loaded latency of one HBM read (ACT + CAS + burst +
/// controller overhead, with queueing slack), in channel cycles.
const HBM_LATENCY: u64 = 46;
/// Bytes per cycle the unit's single 512-bit AXI data-return path can
/// deliver. Multi-channel interleaved stacks raise the DRAM-side peak,
/// but every response still funnels through this one port, so the
/// deliverable bandwidth is capped here (matches the cycle-accurate
/// observation that pack on hbm×8 is no faster than hbm×4).
const PORT_PEAK_BPC: f64 = 64.0;
/// Bytes per cycle the port sustains for *scattered* lines specifically:
/// out-of-order single-line responses from many channels reassemble
/// through the crossbar at below the streaming port rate (calibrated
/// against pack's indirect stage on hbm×4/hbm×8).
const PORT_SCATTER_BPC: f64 = 40.0;
/// Fraction of peak bandwidth a *sequential* (streaming) access pattern
/// sustains on HBM (row hits dominate).
const HBM_STREAM_EFF: f64 = 0.80;
/// Fraction of peak bandwidth a *scattered* (gather) pattern sustains
/// on HBM (row conflicts, bank contention).
const HBM_SCATTER_EFF: f64 = 0.45;

/// Bandwidth/latency abstraction of one memory backend, derived from
/// the same [`BackendConfig`] the cycle-accurate channels are built
/// from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelModel {
    /// Loaded single-access latency in cycles.
    pub(crate) latency: u64,
    /// Peak deliverable bytes per cycle across all channels.
    pub(crate) peak_bpc: f64,
    /// Sustained fraction of peak for streaming access.
    pub(crate) stream_eff: f64,
    /// Sustained fraction of peak for scattered access.
    pub(crate) scatter_eff: f64,
}

impl ChannelModel {
    /// Derives the model for a backend configuration. The DRAM-side
    /// peak is capped at the unit's port width (`PORT_PEAK_BPC`).
    pub(crate) fn of(backend: &BackendConfig) -> Self {
        let peak_bpc = (backend.peak_bytes_per_cycle() as f64).min(PORT_PEAK_BPC);
        match backend.kind {
            BackendKind::Ideal => Self {
                latency: backend.ideal_latency,
                peak_bpc,
                stream_eff: 1.0,
                scatter_eff: 1.0,
            },
            BackendKind::Hbm { .. } => Self {
                latency: HBM_LATENCY,
                peak_bpc,
                stream_eff: HBM_STREAM_EFF,
                // Fold the scatter-path port cap into the efficiency so
                // scatter_cycles sees min(peak, PORT_SCATTER_BPC) × eff.
                scatter_eff: HBM_SCATTER_EFF * (peak_bpc.min(PORT_SCATTER_BPC) / peak_bpc),
            },
        }
    }

    /// Cycles to stream `bytes` sequentially.
    pub(crate) fn stream_cycles(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.peak_bpc * self.stream_eff)
    }

    /// Cycles to deliver `bytes` of scattered lines.
    pub(crate) fn scatter_cycles(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.peak_bpc * self.scatter_eff)
    }
}

/// Bytes of one wide access (a 64 B line).
pub(crate) const LINE: u64 = BLOCK_BYTES as u64;

/// The line holding `addr`.
pub(crate) fn line_of(addr: u64) -> u64 {
    addr & !(LINE - 1)
}

/// Number of distinct 64 B lines overlapped by `count` elements of
/// `elem_bytes` starting at `base`.
pub(crate) fn span_lines(base: u64, count: usize, elem_bytes: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let last = base + elem_bytes * (count as u64 - 1);
    line_of(last) / LINE - line_of(base) / LINE + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> ChannelModel {
        ChannelModel::of(&BackendConfig::ideal())
    }

    #[test]
    fn channel_model_reflects_backend_kind() {
        let i = ideal();
        assert_eq!(i.latency, 20);
        assert_eq!(i.peak_bpc, 32.0);
        assert_eq!(i.stream_eff, 1.0);
        let h = ChannelModel::of(&BackendConfig::hbm());
        assert!(h.latency > i.latency);
        assert!(h.scatter_eff < h.stream_eff);
        // Multi-channel DRAM peak is capped at the single return port.
        let m = ChannelModel::of(&BackendConfig::interleaved(8));
        assert_eq!(m.peak_bpc, PORT_PEAK_BPC);
        // …and the scatter path sustains even less of it.
        assert!(m.scatter_eff * m.peak_bpc <= PORT_SCATTER_BPC * HBM_SCATTER_EFF + 1e-9);
    }

    #[test]
    fn span_lines_counts_overlapped_blocks() {
        assert_eq!(span_lines(0, 0, 4), 0);
        assert_eq!(span_lines(0, 16, 4), 1);
        assert_eq!(span_lines(0, 17, 4), 2);
        assert_eq!(span_lines(56, 2, 4), 1);
        assert_eq!(span_lines(60, 2, 4), 2);
    }
}
