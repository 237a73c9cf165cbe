//! Unit scaling: the sharded multi-unit engine versus the number of
//! parallel indexing/coalescing units over an 8-channel HBM stack.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::pool::parallel_map;
use nmpic_system::{golden_x, PartitionStrategy, RunReport, ShardDetail, SpmvEngine, SystemKind};

use super::{col, suite_matrix, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};

/// One unit-scaling measurement: a sharded multi-unit SpMV run.
#[derive(Debug, Clone)]
pub(crate) struct UnitScalingRow {
    /// Number of parallel indexing/coalescing units (K).
    pub units: usize,
    /// Adapter variant name.
    pub variant: String,
    /// Aggregate peak bandwidth across all units' channel slices, GB/s.
    pub peak_gbps: f64,
    /// Full engine report; `report.shards()` carries the multi-unit
    /// detail (aggregate GB/s, imbalance metrics, per-shard rows).
    pub report: RunReport,
}

/// The unit counts swept by [`scaling_units`].
pub(crate) const SCALING_UNITS: [usize; 4] = [1, 2, 4, 8];

/// Runs the unit-scaling study: the sharded engine with 1/2/4/8
/// MLP256 (and MLPnc) units over an 8-channel interleaved HBM stack,
/// rows partitioned by nonzero count, all points in parallel.
///
/// One unit's 512 b upstream port caps delivered indirect bandwidth at
/// 64 GB/s regardless of channel count; replicating the unit per channel
/// group is what lets aggregate bandwidth keep scaling — the paper's
/// per-channel PIC organization. Each row also carries the cross-shard
/// imbalance metrics (`max/mean` nonzeros, cycles, bus busy), the other
/// axis of multi-unit behaviour.
///
/// # Panics
///
/// Panics if any run fails its byte-identical golden verification.
pub(crate) fn scaling_units(opts: &ExperimentOpts) -> Vec<UnitScalingRow> {
    let csr = suite_matrix("af_shell10", opts.max_nnz.min(100_000));

    let mut jobs = Vec::new();
    for units in SCALING_UNITS {
        for adapter in [AdapterConfig::mlp(256), AdapterConfig::mlp_nc()] {
            jobs.push((units, adapter));
        }
    }
    parallel_map(jobs, move |(units, adapter)| {
        let backend = BackendConfig::interleaved(8);
        let peak_gbps = (backend.split(units).peak_bytes_per_cycle() * units as u64) as f64;
        let engine = SpmvEngine::builder()
            .backend(backend)
            .system(SystemKind::Sharded {
                units,
                strategy: PartitionStrategy::ByNnz,
            })
            .sharded_adapter(adapter.clone())
            .build();
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        let report = engine.prepare(&csr).run(&x);
        assert!(
            report.verified,
            "scaling x{units}/{}: result bytes diverged from golden SpMV",
            adapter.variant_name()
        );
        UnitScalingRow {
            units,
            variant: adapter.variant_name(),
            peak_gbps,
            report,
        }
    })
}

fn table(rows: &[UnitScalingRow]) -> Table {
    // Every report of a sharded plan carries the shard detail.
    let detailed: Vec<(&UnitScalingRow, &ShardDetail)> = rows
        .iter()
        .filter_map(|r| Some((r, r.report.shards()?)))
        .collect();
    Table::of(
        &detailed,
        &[
            ("units", |(r, _)| r.units.to_string()),
            (col::VARIANT, |(r, _)| r.variant.clone()),
            (col::PEAK_GBPS, |(r, _)| f(r.peak_gbps, 0)),
            ("aggregate GB/s", |(_, d)| f(d.aggregate_gbps, 2)),
            ("gather cyc", |(_, d)| d.gather_cycles.to_string()),
            ("collect cyc", |(_, d)| d.collect_cycles.to_string()),
            ("nnz imb", |(_, d)| f(d.nnz_imbalance, 3)),
            ("cycle imb", |(_, d)| f(d.cycle_imbalance, 3)),
            ("bus imb", |(_, d)| f(d.bus_imbalance, 3)),
            (col::VERIFIED, |(r, _)| r.report.verified.to_string()),
        ],
    )
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "scaling_units",
        "sharded SpMV vs unit count (af_shell10 CSR, hbm8, nnz-balanced rows)",
        table(&scaling_units(opts)),
    )
    .notes([
        "(one unit's 512 b upstream port caps delivery at 64 GB/s however many",
        " channels sit behind it; K units over K channel slices break the cap,",
        " with max/mean imbalance showing how evenly the partition spread work)",
    ])
    .into()
}
