//! The sharded multi-unit SpMV engine: K parallel indexing/coalescing
//! units, one per shard of an nnz-balanced row partition.
//!
//! The paper replicates its near-memory unit per memory channel; the
//! single-unit harness in `nmpic-core` therefore under-reports what the
//! proposed organization can deliver on a multi-channel stack — one
//! adapter's 512 b upstream port caps delivered indirect bandwidth at
//! 64 GB/s no matter how many channels sit behind it. The sharded system
//! (built through [`crate::SpmvEngine`] with
//! [`crate::SystemKind::Sharded`]) removes that cap:
//!
//! 1. **Partition** — rows split K ways by
//!    [`nmpic_sparse::partition::by_nnz`] (prefix-sum nonzero balancing,
//!    SparseP-style) or [`nmpic_sparse::partition::by_rows`].
//! 2. **Gather + compute** — each shard gets its own
//!    [`IndirectStreamUnit`] bound to its slice of the memory system
//!    ([`BackendConfig::split`]), gathers `x[col]` for its portion of the
//!    index stream, and accumulates its rows of `y`. Units share nothing,
//!    so the phase's latency is the **slowest** shard's latency — the
//!    quantity the imbalance metrics explain.
//! 3. **Merged collection** — completed rows from all shards merge in a
//!    fixed round-robin order (one 64 B line of rows per shard per turn,
//!    computed once at prepare from the partition alone) into one
//!    [`ScatterUnit`] burst that writes the global result array with
//!    coalesced wide writes.
//!
//! The engine moves real data end to end: a pass's `y` is the result
//! array read back from the collection channel, and it must be
//! **byte-identical** to [`Csr::spmv_into`] (shards accumulate in the
//! same per-row order, so even floating-point rounding matches).

use std::fmt;

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_core::{
    stream_memory_size, AdapterConfig, AdapterStats, CoalescerTrafficModel, IndirectStreamUnit,
    ScatterRequest, ScatterStats, ScatterUnit,
};
use nmpic_mem::{BackendConfig, ChannelPort, HbmStats, Memory, BLOCK_BYTES};
use nmpic_sim::pool;
use nmpic_sim::stats::Extrema;
use nmpic_sparse::partition::{by_nnz, by_rows, CsrShard, Partition};
use nmpic_sparse::Csr;

use crate::cost::{span_lines, ChannelModel, LINE};
use crate::engine::{Executor, PlanFacts, ValueKernel};
use crate::report::{IterReport, ShardDetail};

/// How rows are divided across units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Nonzero-balanced prefix-sum split (the default; SparseP's lever).
    #[default]
    ByNnz,
    /// Equal row counts — the naive baseline, kept for comparison.
    ByRows,
}

impl fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionStrategy::ByNnz => write!(f, "nnz"),
            PartitionStrategy::ByRows => write!(f, "rows"),
        }
    }
}

/// Per-shard measurement inside a [`crate::ShardDetail`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Rows owned by the shard.
    pub rows: usize,
    /// Stored nonzeros (= gathered elements) of the shard.
    pub nnz: u64,
    /// Cycles this shard's unit needed to drain its gather stream.
    pub cycles: u64,
    /// Delivered indirect bandwidth of this unit in GB/s at 1 GHz.
    pub indir_gbps: f64,
    /// Adapter statistics of this unit.
    pub adapter: AdapterStats,
    /// DRAM statistics of this unit's backend slice, when modelled.
    pub dram: Option<HbmStats>,
}

/// One unit's resident state: its slice of the memory system and its
/// adapter.
struct ShardSlot {
    chan: Box<dyn ChannelPort>,
    unit: IndirectStreamUnit,
    idx_base: u64,
    x_base: u64,
    rows: usize,
    nnz: u64,
}

/// What one shard's gather contributed to the last SpMV: everything the
/// reports need, computed entirely on state the shard's worker owned
/// exclusively (the result rows themselves land in the worker's rows of
/// `y`).
#[derive(Default)]
struct ShardOut {
    cycles: u64,
    payload_bytes: u64,
    data_bytes: u64,
    stats: AdapterStats,
    dram: Option<HbmStats>,
}

/// What the merged write-back phase contributed to the last SpMV.
#[derive(Default)]
struct CollectOut {
    cycles: u64,
    data_bytes: u64,
    scatter: ScatterStats,
}

/// The sharded system's prepared plan: one warm channel/unit pair per
/// shard plus the single-channel write-back port.
pub(crate) struct ShardedPlan {
    adapter: AdapterConfig,
    backend: BackendConfig,
    csr: Csr,
    partition: Partition,
    slots: Vec<ShardSlot>,
    collect_chan: Box<dyn ChannelPort>,
    scatter: ScatterUnit,
    collect_idx_base: u64,
    collect_res_base: u64,
    merge_rows: Vec<u32>,
    /// Whether the index arrays (every shard's gather stream, the merge
    /// order) are in the channels' memories: written by the first
    /// `simulate`, never by an analytic plan.
    image_written: bool,
    /// Worker-thread override for the per-shard fan-out (`None` = the
    /// shared pool's `NMPIC_JOBS` policy).
    workers: Option<usize>,
    /// Per-shard and collection outcome of the last pass (`outs` is
    /// empty before the first).
    outs: Vec<ShardOut>,
    collect: CollectOut,
}

impl ShardedPlan {
    /// Partitions `csr` across `units` units, each on its
    /// [`BackendConfig::split`] share of `backend`, and lays out every
    /// index array (per-shard gather streams, merged write-back order).
    ///
    /// # Panics
    ///
    /// Panics on a zero unit count or an empty matrix.
    pub(crate) fn prepare(
        csr: &Csr,
        units: usize,
        strategy: PartitionStrategy,
        adapter: &AdapterConfig,
        backend: &BackendConfig,
        workers: Option<usize>,
    ) -> Self {
        assert!(units > 0, "at least one unit");
        assert!(csr.rows() > 0 && csr.nnz() > 0, "empty matrix");
        let partition = match strategy {
            PartitionStrategy::ByNnz => by_nnz(csr, units),
            PartitionStrategy::ByRows => by_rows(csr, units),
        };
        let per_unit_backend = backend.split(units);
        let slots: Vec<ShardSlot> = (0..units)
            .map(|i| {
                let shard = partition.csr_shard(csr, i);
                let indices = shard.col_idx();
                let mut chan = per_unit_backend
                    .build(Memory::new(stream_memory_size(indices.len(), csr.cols())));
                let mem = chan.memory_mut();
                let idx_base = mem.alloc_array(indices.len().max(1) as u64, 4);
                let x_base = mem.alloc_array(csr.cols() as u64, 8);
                ShardSlot {
                    chan,
                    unit: IndirectStreamUnit::new(adapter.clone()),
                    idx_base,
                    x_base,
                    rows: shard.n_rows(),
                    nnz: shard.nnz() as u64,
                }
            })
            .collect();

        // The write-back port is one channel wide: splitting by the full
        // channel count leaves exactly one channel of the configured
        // kind. Its index array (the merge order) depends only on the
        // partition, so it is computed once, here.
        let rows = csr.rows();
        let collect_backend = backend.split(backend.kind.channels());
        let mut collect_chan = collect_backend.build(Memory::new(stream_memory_size(rows, rows)));
        let merge_rows = merge_order(&partition, units);
        let mem = collect_chan.memory_mut();
        let collect_idx_base = mem.alloc_array(rows as u64, 4);
        let collect_res_base = mem.alloc_array(rows as u64, 8);

        Self {
            adapter: adapter.clone(),
            backend: backend.clone(),
            csr: csr.clone(),
            partition,
            slots,
            collect_chan,
            scatter: ScatterUnit::new(adapter.clone()),
            collect_idx_base,
            collect_res_base,
            merge_rows,
            image_written: false,
            workers,
            outs: Vec::new(),
            collect: CollectOut::default(),
        }
    }

    /// Writes every index array (each shard's gather stream, the merged
    /// write-back order) into its channel's memory unless an earlier pass
    /// did.
    fn write_image(&mut self) {
        if std::mem::replace(&mut self.image_written, true) {
            return;
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let indices = self.partition.csr_shard(&self.csr, i).col_idx();
            slot.chan
                .memory_mut()
                .write_u32_slice(slot.idx_base, indices);
        }
        self.collect_chan
            .memory_mut()
            .write_u32_slice(self.collect_idx_base, &self.merge_rows);
    }

    /// The one place the per-shard fan-out width is decided, for the
    /// cycle-accurate gathers and the analytic replays alike.
    fn workers(&self) -> usize {
        self.workers.unwrap_or_else(pool::parallel_jobs)
    }

    /// The cost of the last pass. Units share nothing, so the gather
    /// phase lasts as long as its slowest shard; collection starts once
    /// that one has drained.
    fn last_pass(&self) -> IterReport {
        let gather = self.outs.iter().map(|o| o.cycles).max().unwrap_or(0);
        let shard_bytes: u64 = self.outs.iter().map(|o| o.data_bytes).sum();
        IterReport {
            cycles: gather + self.collect.cycles,
            indir_cycles: gather,
            offchip_bytes: shard_bytes + self.collect.data_bytes,
        }
    }
}

impl Executor for ShardedPlan {
    fn facts(&self) -> PlanFacts {
        let label = format!(
            "sharded x{} ({}, {})",
            self.slots.len(),
            self.adapter.label(),
            self.backend.label()
        );
        PlanFacts::of_csr(label, &self.csr)
    }

    fn value_kernel(&self) -> ValueKernel<'_> {
        ValueKernel::Csr(&self.csr)
    }

    /// Parallel per-shard gathers into `y`, then the write-back phase,
    /// which reads `y` back from the result array it wrote.
    fn simulate(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        assert_eq!(xs.len(), 1, "the units gather one vector per pass");
        self.write_image();
        let x = xs[0];
        // Every shard's unit simulation runs on its own worker thread.
        // Each worker owns its slot (channel, unit) and its shard's
        // contiguous rows of `y` exclusively, so the simulations are
        // bit-for-bit the same as a serial loop and the reports and
        // result bytes are identical whatever the worker count.
        let workers = self.workers();
        let (csr, partition) = (&self.csr, &self.partition);
        let mut rest = &mut *ys[0];
        let jobs: Vec<(usize, &mut ShardSlot, &mut [f64])> = self
            .slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let (rows, tail) = std::mem::take(&mut rest).split_at_mut(slot.rows);
                rest = tail;
                (i, slot, rows)
            })
            .collect();
        self.outs = pool::parallel_map_jobs(workers, jobs, |(i, slot, y)| {
            exec_shard_gather(slot, x, &partition.csr_shard(csr, i), y)
        });
        self.collect = exec_merged_writeback(self, ys[0]);
        self.last_pass()
    }

    /// Analytic costs: the gather phase replays each shard's index
    /// stream through the coalescer traffic model, the collection phase
    /// streams the merged result rows. Both depend on the plan alone, so
    /// they are evaluated once and kept in `outs` / `collect`.
    fn model(&mut self, vectors: usize) -> IterReport {
        assert_eq!(vectors, 1, "the units gather one vector per pass");
        if !self.outs.is_empty() {
            return self.last_pass();
        }
        let unit_chan = ChannelModel::of(&self.backend.split(self.slots.len()));
        let collect_chan = ChannelModel::of(&self.backend.split(self.backend.kind.channels()));
        // Each shard's replay is independent; fan them across the work
        // pool (this is the analytic path's dominant cost on large
        // matrices). The jobs carry plain data only: the slots also own
        // channel ports, which are not Sync.
        let jobs: Vec<(usize, u64, u64, u64)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (i, slot.nnz, slot.idx_base, slot.x_base))
            .collect();
        let (partition, csr, adapter) = (&self.partition, &self.csr, &self.adapter);
        self.outs = pool::parallel_map_jobs(self.workers(), jobs, |(i, nnz, idx_base, x_base)| {
            if nnz == 0 {
                return ShardOut::default();
            }
            let shard = partition.csr_shard(csr, i);
            let cost = shard_gather_cost(adapter, &unit_chan, idx_base, x_base, shard.col_idx());
            ShardOut {
                cycles: cost.cycles,
                payload_bytes: 8 * nnz,
                data_bytes: cost.offchip_bytes,
                ..ShardOut::default()
            }
        });
        let collect = collect_cost(self.csr.rows(), &collect_chan);
        self.collect = CollectOut {
            cycles: collect.cycles,
            data_bytes: collect.offchip_bytes,
            scatter: ScatterStats::default(),
        };
        self.last_pass()
    }

    /// Gather timing, DRAM counters and scatter statistics do not depend
    /// on vector values, so the last vector's outcome stands for every
    /// vector of a batch: phase latencies and payload scale by
    /// `vectors`, the per-vector rows are reported once.
    fn shard_detail(&self, vectors: usize) -> Option<ShardDetail> {
        let n = vectors as u64;
        let mut gather = 0u64;
        let mut payload = 0u64;
        let mut cycle_ext = Extrema::new();
        let mut bus_ext = Extrema::new();
        let mut dram: Option<HbmStats> = None;
        let mut per_shard = Vec::with_capacity(self.slots.len());
        for (i, (slot, out)) in self.slots.iter().zip(&self.outs).enumerate() {
            gather = gather.max(out.cycles);
            payload += out.payload_bytes;
            cycle_ext.add(out.cycles as f64);
            if let Some(d) = out.dram {
                bus_ext.add(d.bus_busy_cycles as f64);
                dram = Some(match dram {
                    Some(acc) => acc.merge(&d),
                    None => d,
                });
            }
            per_shard.push(ShardReport {
                shard: i,
                rows: slot.rows,
                nnz: slot.nnz,
                cycles: out.cycles,
                indir_gbps: if out.cycles == 0 {
                    0.0
                } else {
                    out.payload_bytes as f64 / out.cycles as f64
                },
                adapter: out.stats,
                dram: out.dram,
            });
        }
        let gather_cycles = gather * n;
        Some(ShardDetail {
            units: self.slots.len(),
            gather_cycles,
            collect_cycles: self.collect.cycles * n,
            aggregate_gbps: if gather_cycles == 0 {
                0.0
            } else {
                (payload * n) as f64 / gather_cycles as f64
            },
            nnz_imbalance: self.partition.nnz_imbalance(),
            cycle_imbalance: cycle_ext.imbalance(),
            bus_imbalance: bus_ext.imbalance(),
            scatter: self.collect.scatter,
            dram,
            per_shard,
        })
    }

    /// Each shard's gather stream comes from its index array, the
    /// write-back from the merge order, and `simulate` resets every
    /// channel and unit first, so the report depends on the plan alone.
    fn timing_is_constant(&self) -> bool {
        true
    }
}

/// Builds the merged write-back row order for a partition: each shard
/// contributes its rows in ascending order, round robin over the shards
/// one 64 B line (8 rows) per turn, so the scatter unit's write warps
/// keep coalescing. A shard that has run out of rows drops out of the
/// rotation. Depends only on the partition, so prepared plans compute it
/// once.
fn merge_order(partition: &Partition, units: usize) -> Vec<u32> {
    let mut ranges: Vec<_> = (0..units).map(|i| partition.range(i)).collect();
    let rows = ranges.iter().map(ExactSizeIterator::len).sum();
    let mut order = Vec::with_capacity(rows);
    while order.len() < rows {
        for range in &mut ranges {
            for row in range.by_ref().take(BLOCK_BYTES / 8) {
                let Ok(row) = u32::try_from(row) else {
                    // nmpic-lint: allow(L2) — documented panic: merged write-back row ids are 32 b by the paper's index-width contract; a wrapped id would scatter y to the wrong line
                    panic!("row {row} does not fit the 32 b row-id width")
                };
                order.push(row);
            }
        }
    }
    order
}

/// Runs one shard's indirect gather of `x` on its warm channel/unit pair
/// (the index array at `idx_base` was written by the plan's first pass)
/// and accumulates `shard`'s rows into `y`, those rows of the result
/// (overwritten). A row cursor over the shard's row pointers follows the
/// stream positions as they arrive.
fn exec_shard_gather(slot: &mut ShardSlot, x: &[f64], shard: &CsrShard, y: &mut [f64]) -> ShardOut {
    y.fill(0.0);
    let values = shard.values();
    if values.is_empty() {
        return ShardOut::default();
    }
    let (chan, unit) = (&mut *slot.chan, &mut slot.unit);
    chan.reset_run_state();
    chan.memory_mut().write_f64_slice(slot.x_base, x);
    unit.reset();
    let req = PackRequest::Indirect {
        idx_base: slot.idx_base,
        idx_size: ElemSize::B4,
        count: values.len() as u64,
        elem_base: slot.x_base,
        elem_size: ElemSize::B8,
    };
    let (mut pos, mut row, mut row_end) = (0usize, 0usize, shard.row_nnz(0));
    let cycles = unit
        .run_burst(chan, req, |beat| {
            for bits in beat.elements() {
                // The packer restores stream order, so position `pos`
                // pairs the gathered x element with its nonzero value;
                // per-row accumulation order equals `Csr::spmv`'s.
                while pos == row_end {
                    row += 1;
                    row_end += shard.row_nnz(row);
                }
                y[row] += values[pos] * f64::from_bits(bits);
                pos += 1;
            }
        })
        // nmpic-lint: allow(L2) — invariant: the unit was reset just above and `values` is non-empty, so the burst is accepted
        .expect("reset unit accepts a non-empty burst");
    assert_eq!(pos, values.len(), "every element delivered exactly once");
    let stats = unit.stats();
    ShardOut {
        cycles,
        payload_bytes: stats.payload_bytes,
        data_bytes: chan.data_bytes(),
        stats,
        dram: chan.dram_stats(),
    }
}

/// Streams the merged `y` in merge order through the plan's warm scatter
/// unit (the merge-order index array was written by the plan's first
/// pass) into the result array, then reads that array back into `y`.
fn exec_merged_writeback(plan: &mut ShardedPlan, y: &mut [f64]) -> CollectOut {
    let (chan, unit) = (&mut *plan.collect_chan, &mut plan.scatter);
    chan.reset_run_state();
    unit.reset();
    let req = ScatterRequest {
        idx_base: plan.collect_idx_base,
        idx_size: ElemSize::B4,
        count: plan.merge_rows.len() as u64,
        elem_base: plan.collect_res_base,
        elem_size: ElemSize::B8,
    };
    let merged = plan.merge_rows.iter().map(|&r| y[r as usize].to_bits());
    let cycles = unit
        .run_burst(chan, req, merged)
        // nmpic-lint: allow(L2) — invariant: the scatter unit was reset just above and a prepared plan has at least one row, so the burst is accepted
        .expect("reset scatter unit accepts a non-empty burst");
    let mem = chan.memory();
    for (r, out) in y.iter_mut().enumerate() {
        *out = mem.read_f64(plan.collect_res_base + 8 * r as u64);
    }

    CollectOut {
        cycles,
        data_bytes: chan.data_bytes(),
        scatter: unit.stats(),
    }
}

/// Elements per cycle a shard unit's gather pipeline sustains: results
/// drain through the element-output path one element per cycle, which
/// bounds the burst regardless of coalescing (calibrated against
/// [`exec_shard_gather`]).
const SHARD_ELEMS_PER_CYCLE: f64 = 1.4;

/// The closed-form cost of one shard's gather burst: the unit fetches
/// its shard-local index stream at `idx_base`, gathers `x` elements from
/// `x_base` through the coalescer (window model), and packs results
/// upstream. `cycles` is the shard's gather-phase length; the sharded
/// pass's gather phase is the max across shards.
fn shard_gather_cost(
    adapter: &AdapterConfig,
    chan: &ChannelModel,
    idx_base: u64,
    x_base: u64,
    col_idx: &[u32],
) -> IterReport {
    let count = col_idx.len();
    let idx_lines = span_lines(idx_base, count, 4);
    let mut coal = CoalescerTrafficModel::new(adapter);
    for &c in col_idx {
        coal.push(x_base + 8 * c as u64);
    }
    coal.flush();
    let wide = coal.counts().wide_requests;
    let pipeline_bound = count as f64 / SHARD_ELEMS_PER_CYCLE;
    // Wide fetches count as *streams*, not scatters: the coalescer
    // emits each distinct line once, in the quasi-ascending order the
    // window marches through the shard's x slice, which is row-hit
    // friendly on the unit's private channel split.
    let dram = chan.stream_cycles((idx_lines + wide) * LINE);
    let cycles = (chan.latency as f64 + pipeline_bound.max(dram)).round() as u64;
    IterReport {
        cycles,
        indir_cycles: cycles,
        offchip_bytes: (idx_lines + wide) * LINE,
    }
}

/// The closed-form cost of the merged-collection phase over `rows`
/// result rows: the scatter unit streams the merged row-index array and
/// writes one masked 64 B result line per 8 rows through the collect
/// channel.
fn collect_cost(rows: usize, chan: &ChannelModel) -> IterReport {
    let idx_lines = (4 * rows as u64).div_ceil(LINE);
    let write_lines = (rows as u64).div_ceil(8);
    let upstream_beats = (rows as u64).div_ceil(8) as f64;
    let dram = chan.stream_cycles((idx_lines + write_lines) * LINE);
    IterReport {
        cycles: (chan.latency as f64 + upstream_beats.max(dram)).round() as u64,
        indir_cycles: 0,
        offchip_bytes: (idx_lines + write_lines) * LINE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunReport, SpmvEngine, SystemKind};
    use nmpic_sparse::gen::{banded_fem, circuit};

    /// One golden-vector SpMV on a fresh `units`-unit plan (MLP256 units)
    /// — the in-module tests' way into the datapath.
    fn run_on(
        csr: &Csr,
        units: usize,
        backend: BackendConfig,
        strategy: PartitionStrategy,
    ) -> RunReport {
        let engine = SpmvEngine::builder()
            .backend(backend)
            .system(SystemKind::Sharded { units, strategy })
            .build();
        crate::engine::run_golden(engine.prepare(csr))
    }

    /// [`run_on`] in the scaling-study configuration: nnz-balanced shards
    /// over an 8-channel interleaved HBM stack.
    fn run_sharded_spmv(csr: &Csr, units: usize) -> RunReport {
        run_on(
            csr,
            units,
            BackendConfig::interleaved(8),
            PartitionStrategy::ByNnz,
        )
    }

    fn detail(r: &RunReport) -> &ShardDetail {
        r.shards().expect("sharded plan carries detail")
    }

    #[test]
    fn sharded_result_is_byte_identical_across_unit_counts() {
        let csr = circuit(384, 4, 24, 0.1, 5, 11);
        let baseline = run_sharded_spmv(&csr, 1);
        assert!(baseline.verified);
        for units in [2, 3, 4, 8] {
            let r = run_sharded_spmv(&csr, units);
            assert!(r.verified, "x{units} failed golden verification");
            assert_eq!(r.y_bits(), baseline.y_bits(), "x{units} diverged");
        }
    }

    #[test]
    fn sharded_result_is_byte_identical_on_every_backend() {
        let csr = banded_fem(300, 8, 24, 13);
        let mut references: Option<Vec<u64>> = None;
        for backend in [
            BackendConfig::ideal(),
            BackendConfig::hbm(),
            BackendConfig::interleaved(4),
        ] {
            for units in [1usize, 4] {
                let r = run_on(&csr, units, backend.clone(), PartitionStrategy::ByNnz);
                assert!(r.verified, "{} x{units}", backend.label());
                match &references {
                    Some(bits) => assert_eq!(&r.y_bits(), bits, "{}", backend.label()),
                    None => references = Some(r.y_bits()),
                }
            }
        }
    }

    #[test]
    fn more_units_cut_gather_latency_and_raise_aggregate_bandwidth() {
        let csr = banded_fem(2048, 10, 48, 3);
        let r1 = run_sharded_spmv(&csr, 1);
        let r4 = run_sharded_spmv(&csr, 4);
        assert!(r1.verified && r4.verified);
        let (d1, d4) = (detail(&r1), detail(&r4));
        assert!(
            d4.gather_cycles < d1.gather_cycles,
            "4 units must drain faster: {} vs {}",
            d4.gather_cycles,
            d1.gather_cycles
        );
        assert!(
            d4.aggregate_gbps > d1.aggregate_gbps,
            "aggregate bandwidth must rise: {:.1} vs {:.1}",
            d4.aggregate_gbps,
            d1.aggregate_gbps
        );
    }

    /// A deterministically skewed matrix: the first quarter of the rows
    /// are dense (64 nnz), the rest sparse (4 nnz) — the hub-and-spoke
    /// shape where equal-row splitting collapses.
    fn skewed(rows: usize) -> Csr {
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            let width = if r < rows / 4 { 64 } else { 4 };
            for j in 0..width {
                col_idx.push(((r * 31 + j * 7) % rows) as u32);
                values.push((r + j) as f64 * 0.25 - 1.0);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Csr::from_parts(rows, rows, row_ptr, col_idx, values).unwrap()
    }

    #[test]
    fn by_nnz_beats_by_rows_on_skewed_matrices() {
        let csr = skewed(512);
        let hbm8 = BackendConfig::interleaved(8);
        let nnz = run_on(&csr, 4, hbm8.clone(), PartitionStrategy::ByNnz);
        let rows = run_on(&csr, 4, hbm8, PartitionStrategy::ByRows);
        assert!(nnz.verified && rows.verified);
        let (nnz, rows) = (detail(&nnz), detail(&rows));
        // Equal rows put all dense rows in shard 0: imbalance ≈ 2.6.
        assert!(
            nnz.nnz_imbalance < 1.1 && rows.nnz_imbalance > 2.0,
            "nnz split must balance what row split cannot: {:.3} vs {:.3}",
            nnz.nnz_imbalance,
            rows.nnz_imbalance
        );
        assert!(
            (nnz.gather_cycles as f64) < 0.7 * rows.gather_cycles as f64,
            "balanced shards must drain clearly faster: {} vs {}",
            nnz.gather_cycles,
            rows.gather_cycles
        );
    }

    #[test]
    fn report_accounts_phases_and_stats() {
        let csr = banded_fem(256, 6, 16, 5);
        let r = run_sharded_spmv(&csr, 2);
        let d = detail(&r);
        assert_eq!(r.cycles, d.gather_cycles + d.collect_cycles);
        assert!(d.collect_cycles > 0);
        assert_eq!(r.nnz, csr.nnz() as u64);
        assert!(d.nnz_imbalance >= 1.0 && d.cycle_imbalance >= 1.0);
        assert_eq!(d.scatter.elements_in, csr.rows() as u64);
        assert!(d.scatter.coalesce_rate() > 2.0, "rows coalesce into lines");
        let dram = d.dram.expect("hbm-backed run has dram stats");
        assert!(dram.reads > 0);
        assert_eq!(d.per_shard.len(), 2);
        assert!(r.label.contains("sharded x2"));
    }

    #[test]
    fn empty_shards_are_tolerated() {
        // 8 units over 3 rows: most shards own nothing.
        let csr = banded_fem(3, 2, 4, 1);
        let r = run_sharded_spmv(&csr, 8);
        assert!(r.verified);
        assert_eq!(
            detail(&r).per_shard.iter().map(|s| s.nnz).sum::<u64>(),
            r.nnz
        );
    }

    /// The merged write-back order, pinned literally: round robin over
    /// the shards, one 64 B line (8 rows) per turn. A shard with fewer
    /// rows left than a line ends its turn early, and a shard with no
    /// rows left never takes one.
    #[test]
    fn merge_order_takes_one_line_per_shard_per_turn() {
        // Row 2's 42 nonzeros cover two of `by_nnz`'s targets, which
        // leaves the last of four shards empty.
        let widths: Vec<u32> = [1, 1, 42]
            .into_iter()
            .chain([1; 20])
            .chain([2; 11])
            .collect();
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        for &w in &widths {
            col_idx.extend(0..w);
            row_ptr.push(col_idx.len() as u32);
        }
        let values = vec![1.0; col_idx.len()];
        let csr = Csr::from_parts(widths.len(), 42, row_ptr, col_idx, values).unwrap();
        let partition = by_nnz(&csr, 4);
        let lens: Vec<usize> = (0..4).map(|i| partition.range(i).len()).collect();
        assert_eq!(lens, [3, 20, 11, 0]);
        #[rustfmt::skip]
        let want: [u32; 34] = [
            0, 1, 2,                        // shard 0: all 3 rows
            3, 4, 5, 6, 7, 8, 9, 10,        // shard 1: one line
            23, 24, 25, 26, 27, 28, 29, 30, // shard 2: one line
            11, 12, 13, 14, 15, 16, 17, 18, // shard 1
            31, 32, 33,                     // shard 2: its last 3 rows
            19, 20, 21, 22,                 // shard 1: its last 4 rows
        ];
        assert_eq!(merge_order(&partition, 4), want);
    }

    #[test]
    fn shard_gather_is_pipeline_bound_on_local_streams() {
        let chan = ChannelModel::of(&BackendConfig::ideal());
        let cfg = AdapterConfig::mlp(256);
        // Highly local: every gather hits a handful of blocks, so the
        // element-drain pipeline — not DRAM — bounds the burst.
        let local: Vec<u32> = (0..4096).map(|k| (k / 64) as u32).collect();
        let c = shard_gather_cost(&cfg, &chan, 0, 1 << 20, &local);
        let drain = 4096.0 / SHARD_ELEMS_PER_CYCLE;
        assert!(c.cycles as f64 >= drain, "element drain bounds the burst");
        assert!((c.cycles as f64) < drain + 2.0 * chan.latency as f64 + 1.0);
        // Scattered: every element its own block → DRAM-bound.
        let scattered: Vec<u32> = (0..4096).map(|k| (k * 8 % 32768) as u32).collect();
        let s = shard_gather_cost(&cfg, &chan, 0, 1 << 20, &scattered);
        assert!(s.cycles > c.cycles);
        assert!(s.offchip_bytes > c.offchip_bytes);
    }

    #[test]
    fn collect_cost_counts_result_lines() {
        let ideal = ChannelModel::of(&BackendConfig::ideal());
        let c = collect_cost(1024, &ideal);
        // 1024 rows → 64 idx lines + 128 result lines.
        assert_eq!(c.offchip_bytes, (64 + 128) * LINE);
        assert!(c.cycles > 0);
        assert_eq!(collect_cost(0, &ideal).offchip_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let csr = banded_fem(8, 2, 4, 1);
        let _ = run_sharded_spmv(&csr, 0);
    }
}
