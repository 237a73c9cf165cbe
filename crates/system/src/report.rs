//! SpMV run reports: the unified [`RunReport`] of `run`/`run_batch` and
//! the lean per-call [`IterReport`] of `run_into`.

use nmpic_core::ScatterStats;
use nmpic_mem::HbmStats;

use crate::shard::ShardReport;

/// Sharded-execution detail carried by a [`RunReport`] when the plan ran
/// on the multi-unit engine ([`crate::SystemKind::Sharded`]).
#[derive(Debug, Clone)]
pub struct ShardDetail {
    /// Number of parallel indexing/coalescing units.
    pub units: usize,
    /// Gather-phase latency: the slowest unit's cycle count, summed over
    /// the batch's vectors.
    pub gather_cycles: u64,
    /// Merged write-back phase latency, summed over the batch's vectors.
    pub collect_cycles: u64,
    /// Aggregate delivered indirect bandwidth across units in GB/s at
    /// 1 GHz (payload bytes over gather latency).
    pub aggregate_gbps: f64,
    /// Cross-shard nonzero imbalance (`max/mean`, 1.0 = perfect).
    pub nnz_imbalance: f64,
    /// Cross-shard gather-cycle imbalance.
    pub cycle_imbalance: f64,
    /// Cross-shard DRAM bus-busy imbalance (1.0 when DRAM is not
    /// modelled).
    pub bus_imbalance: f64,
    /// Write-back scatter statistics (merged collection; one vector's
    /// worth).
    pub scatter: ScatterStats,
    /// DRAM statistics merged across every unit's backend slice (one
    /// vector's worth, like `scatter` and `per_shard`; DRAM behaviour
    /// does not depend on vector values, so every vector of a batch
    /// looks the same).
    pub dram: Option<HbmStats>,
    /// Per-shard detail rows (one vector's worth; identical across a
    /// batch's vectors since gather timing does not depend on vector
    /// values).
    pub per_shard: Vec<ShardReport>,
}

/// The unified report returned by [`crate::SpmvPlan::run`] and
/// [`crate::SpmvPlan::run_batch`] for **every** system kind.
///
/// `cycles`, `offchip_bytes` and `ideal_bytes` cover the whole run (all
/// `vectors` of a batch); the per-vector accessors divide by the batch
/// size so reports with different batch sizes compare directly.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// System label (`base`, `pack0`, `pack256`,
    /// `sharded x4 (pack256, hbm x8)`).
    pub label: String,
    /// Total runtime in 1 GHz cycles across the whole batch.
    pub cycles: u64,
    /// Number of vectors multiplied in this run (1 for [`crate::SpmvPlan::run`]).
    pub vectors: usize,
    /// Cycles attributed to indirect access (gather/indirect-burst time;
    /// the gather phase for sharded runs).
    pub indir_cycles: u64,
    /// True nonzeros of the matrix (per vector).
    pub nnz: u64,
    /// Stream entries per vector (padded SELL entries for pack, nnz
    /// otherwise).
    pub entries: u64,
    /// Total off-chip bytes moved across the whole batch (reads+writes).
    pub offchip_bytes: u64,
    /// Compulsory off-chip bytes for the whole batch: matrix arrays once,
    /// each vector and result once.
    pub ideal_bytes: u64,
    /// Whether every simulated result vector carried the bits of the
    /// system's value kernel (an analytic run's vectors come from that
    /// kernel, so it is always `true` there).
    pub verified: bool,
    /// The computed result vectors, one per input vector.
    pub ys: Vec<Vec<f64>>,
    /// Multi-unit detail, present iff the plan is sharded.
    pub shards: Option<ShardDetail>,
}

impl RunReport {
    /// Runtime per vector in cycles — the amortized cost the session API
    /// exists to lower.
    pub fn cycles_per_vector(&self) -> f64 {
        if self.vectors == 0 {
            0.0
        } else {
            self.cycles as f64 / self.vectors as f64
        }
    }

    /// Delivered off-chip bandwidth in GB/s at 1 GHz.
    pub fn gbps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.offchip_bytes as f64 / self.cycles as f64
        }
    }

    /// Off-chip traffic relative to the compulsory ideal (≥ 1 in
    /// practice).
    pub fn traffic_ratio(&self) -> f64 {
        if self.ideal_bytes == 0 {
            0.0
        } else {
            self.offchip_bytes as f64 / self.ideal_bytes as f64
        }
    }

    /// Memory bandwidth utilization against a peak of `peak_gbps`.
    pub fn bw_utilization(&self, peak_gbps: f64) -> f64 {
        if peak_gbps == 0.0 {
            0.0
        } else {
            self.gbps() / peak_gbps
        }
    }

    /// Achieved GFLOP/s at 1 GHz (2 FLOPs per nonzero per vector).
    pub fn gflops(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            2.0 * self.nnz as f64 * self.vectors as f64 / self.cycles as f64
        }
    }

    /// Runtime fraction spent on indirect access.
    pub fn indir_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.indir_cycles as f64 / self.cycles as f64
        }
    }

    /// Per-vector speedup of `self` over `other`
    /// (`other.cycles_per_vector() / self.cycles_per_vector()`), so
    /// batched and single-vector runs compare on equal footing.
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        let own = self.cycles_per_vector();
        if own == 0.0 {
            0.0
        } else {
            other.cycles_per_vector() / own
        }
    }

    /// The first (or only) result vector.
    pub fn y(&self) -> &[f64] {
        &self.ys[0]
    }

    /// The first result vector as raw bit patterns — byte-identity checks
    /// across plans, backends and batch sizes compare these.
    pub fn y_bits(&self) -> Vec<u64> {
        self.ys[0].iter().map(|v| v.to_bits()).collect()
    }

    /// Multi-unit detail (per-shard extrema, merged DRAM statistics),
    /// present iff the plan is sharded.
    pub fn shards(&self) -> Option<&ShardDetail> {
        self.shards.as_ref()
    }
}

/// The lean per-call report of [`crate::SpmvPlan::run_into`] — the
/// solver hot path. Unlike [`RunReport`] it owns no result vectors (the
/// caller's `y` buffer receives the result), carries no golden-model
/// verdict (an iterative solver checks convergence, not per-iteration
/// golden equality), and is `Copy`, so accumulating one per iteration
/// into a [`crate::SolveReport`] allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterReport {
    /// Runtime of this SpMV in 1 GHz cycles.
    pub cycles: u64,
    /// Cycles attributed to indirect access.
    pub indir_cycles: u64,
    /// Off-chip bytes moved by this SpMV (reads + writes).
    pub offchip_bytes: u64,
}

impl IterReport {
    /// Delivered off-chip bandwidth in GB/s at 1 GHz.
    pub fn gbps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.offchip_bytes as f64 / self.cycles as f64
        }
    }
}

/// Deterministic dense-vector entries used by both systems so results are
/// comparable and checkable: a bounded, non-trivial pattern.
pub fn golden_x(i: usize) -> f64 {
    // Keep magnitudes tame so accumulation order effects stay tiny.
    0.5 + ((i as u64).wrapping_mul(2654435761) % 1000) as f64 * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, indir: u64, bytes: u64, ideal: u64) -> RunReport {
        RunReport {
            label: "t".into(),
            cycles,
            vectors: 1,
            indir_cycles: indir,
            nnz: 1000,
            entries: 1100,
            offchip_bytes: bytes,
            ideal_bytes: ideal,
            verified: true,
            ys: vec![vec![]],
            shards: None,
        }
    }

    #[test]
    fn ratio_and_utilization_math() {
        let r = report(1000, 400, 16_000, 8_000);
        assert!((r.traffic_ratio() - 2.0).abs() < 1e-12);
        // 16 B/cycle over 32 GB/s peak = 50 %.
        assert!((r.bw_utilization(32.0) - 0.5).abs() < 1e-12);
        assert!((r.indir_fraction() - 0.4).abs() < 1e-12);
        assert!((r.gflops() - 2.0).abs() < 1e-12);
    }

    /// Regression: every metric must return a **finite** number (0.0 by
    /// convention) on zero denominators — an empty or all-zero matrix
    /// must never leak NaN/inf into reports, because the experiment
    /// result gate (`nmpic_bench::Table::gate`) rejects them.
    #[test]
    fn zero_denominators_yield_zero_not_nan() {
        let r = report(0, 0, 0, 0);
        for v in [
            r.traffic_ratio(),
            r.bw_utilization(32.0),
            r.bw_utilization(0.0),
            r.gflops(),
            r.indir_fraction(),
            r.speedup_over(&r),
        ] {
            assert!(v.is_finite(), "got {v}");
            assert_eq!(v, 0.0);
        }
        // Nonzero traffic against a zero peak is still a guarded case.
        let r = report(10, 5, 100, 0);
        assert_eq!(r.traffic_ratio(), 0.0);
        assert_eq!(r.bw_utilization(0.0), 0.0);

        let rr = RunReport {
            vectors: 0,
            nnz: 0,
            entries: 0,
            ..report(0, 0, 0, 0)
        };
        for v in [
            rr.cycles_per_vector(),
            rr.gbps(),
            rr.traffic_ratio(),
            rr.bw_utilization(32.0),
            rr.bw_utilization(0.0),
            rr.gflops(),
            rr.indir_fraction(),
            rr.speedup_over(&rr),
        ] {
            assert!(v.is_finite(), "got {v}");
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let fast = report(500, 0, 0, 1);
        let slow = report(2000, 0, 0, 1);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn golden_x_is_bounded_and_deterministic() {
        for i in 0..1000 {
            let v = golden_x(i);
            assert!((0.5..1.5).contains(&v));
            assert_eq!(v, golden_x(i));
        }
    }
}
