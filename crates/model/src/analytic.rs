//! Closed-form traffic/latency model behind the engine's analytic
//! execution mode (`ExecMode::Analytic` in `nmpic-system`).
//!
//! The cycle-accurate executors step every queue and bank state machine
//! once per simulated cycle — faithful, but hundreds of host operations
//! per nonzero. This module predicts the same three cost observables
//! (`cycles`, `indir_cycles`, `offchip_bytes`) from **structural
//! replays** that cost O(1) work per nonzero:
//!
//! * traffic comes from replaying the exact access streams through the
//!   shared structural models — the LLC tag array ([`nmpic_mem::Cache`])
//!   for the baseline system, the coalescer window/CSHR model
//!   ([`nmpic_core::CoalescerTrafficModel`]) for the adapter systems —
//!   so line counts are the counts the simulators produce, not
//!   curve fits;
//! * latency comes from closed-form per-phase formulas: each phase is
//!   either issue-rate-bound, upstream-port-bound, or DRAM-bound, and
//!   the phase cost is the max of those terms plus a channel latency
//!   constant ([`ChannelModel`]).
//!
//! Result *values* are never modeled: the engine computes them exactly
//! with each system's value kernel (`Csr::spmv_into` for base and
//! sharded, `Sell::spmv_into` for pack), so analytic runs stay verified
//! and iterative solvers reproduce their cycle-accurate residual
//! trajectories bit for bit. Only the cost metrics are approximate, within
//! [`PINNED_REL_TOL`] of cycle-accurate mode (enforced by
//! `crates/system/tests/exec_mode.rs` and the `analytic_validation` experiment).

use nmpic_core::{AdapterConfig, CoalescerTrafficModel};
use nmpic_mem::{BackendConfig, BackendKind, Cache, BLOCK_BYTES};

/// Pinned relative tolerance between analytic and cycle-accurate cost
/// metrics (`cycles`, `offchip_bytes`, and the GB/s etc. derived from
/// them) on the validation grid: ideal/hbm/hbm4/hbm8 ×
/// base/pack/sharded at CI scale. The `analytic_validation` experiment's
/// result gate and `crates/system/tests/exec_mode.rs` read this constant directly.
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
/// Elements per cycle a shard unit's gather pipeline sustains: results
/// drain through the element-output path one element per cycle, which
/// bounds the burst regardless of coalescing (calibrated against
/// `exec_shard_gather`).
const SHARD_ELEMS_PER_CYCLE: f64 = 1.4;
/// Fraction of peak bandwidth a *sequential* (streaming) access pattern
/// sustains on HBM (row hits dominate).
const HBM_STREAM_EFF: f64 = 0.80;
/// Fraction of peak bandwidth a *scattered* (gather) pattern sustains
/// on HBM (row conflicts, bank contention).
const HBM_SCATTER_EFF: f64 = 0.45;

/// One predicted execution cost, in the same units the cycle-accurate
/// executors report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyticCost {
    /// Total cycles.
    pub cycles: f64,
    /// Cycles attributable to indirect (index/gather) access.
    pub indir_cycles: f64,
    /// Off-chip bytes moved (64 B per wide access, reads + writes).
    pub offchip_bytes: u64,
}

impl AnalyticCost {
    /// Accumulates another cost (phases in sequence).
    pub fn add(&mut self, other: &AnalyticCost) {
        self.cycles += other.cycles;
        self.indir_cycles += other.indir_cycles;
        self.offchip_bytes += other.offchip_bytes;
    }
}

/// Bandwidth/latency abstraction of one memory backend, derived from
/// the same [`BackendConfig`] the cycle-accurate channels are built
/// from.
#[derive(Debug, Clone, Copy)]
pub struct ChannelModel {
    /// Loaded single-access latency in cycles.
    pub latency: u64,
    /// Peak deliverable bytes per cycle across all channels.
    pub peak_bpc: f64,
    /// Sustained fraction of peak for streaming access.
    pub stream_eff: f64,
    /// Sustained fraction of peak for scattered access.
    pub scatter_eff: f64,
}

impl ChannelModel {
    /// Derives the model for a backend configuration. The DRAM-side
    /// peak is capped at the unit's port width (`PORT_PEAK_BPC`).
    pub fn of(backend: &BackendConfig) -> Self {
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
    pub fn stream_cycles(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.peak_bpc * self.stream_eff)
    }

    /// Cycles to deliver `bytes` of scattered lines.
    pub fn scatter_cycles(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.peak_bpc * self.scatter_eff)
    }
}

const LINE: u64 = BLOCK_BYTES as u64;

fn line_of(addr: u64) -> u64 {
    addr & !(LINE - 1)
}

/// Number of distinct 64 B lines overlapped by `count` elements of
/// `elem_bytes` starting at `base`.
fn span_lines(base: u64, count: usize, elem_bytes: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let last = base + elem_bytes * (count as u64 - 1);
    line_of(last) / LINE - line_of(base) / LINE + 1
}

// ---------------------------------------------------------------------
// Baseline system
// ---------------------------------------------------------------------

/// The baseline-system knobs the analytic model shares with the
/// cycle-accurate `BaseConfig` (mirrored here because `nmpic-model`
/// sits below `nmpic-system` in the crate stack).
#[derive(Debug, Clone, Copy)]
pub struct BaseParams {
    /// Elements processed per coupled chunk.
    pub chunk: usize,
    /// LLC hit latency in cycles.
    pub llc_hit_latency: u64,
    /// Cycles between VLSU indexed-load issues.
    pub gather_issue_interval: u64,
    /// MAC throughput of the VPC.
    pub macs_per_cycle: u64,
    /// Coupled scalar overhead per retired row.
    pub row_overhead_cycles: u64,
    /// The memory behind the LLC.
    pub chan: ChannelModel,
}

/// DRAM base addresses of the baseline arrays (the plan's layout).
#[derive(Debug, Clone, Copy)]
pub struct BaseAddrs {
    /// Row-pointer array base.
    pub ptr_base: u64,
    /// Column-index array base.
    pub idx_base: u64,
    /// Nonzero-value array base.
    pub val_base: u64,
    /// Dense vector base.
    pub vec_base: u64,
    /// Result array base.
    pub res_base: u64,
}

/// The accesses one stream makes to one line within a chunk: the line
/// and its first and last position in the chunk's access order.
#[derive(Debug, Clone, Copy)]
struct LineRun {
    line: u64,
    first: u64,
    last: u64,
    is_idx: bool,
}

/// The line runs of one array of `1 << elem_shift`-byte elements
/// streamed over elements `k..k1`. Element `k`'s access sits at position
/// `2 * (k - k0) + slot` of the chunk's access order, which interleaves
/// the index (`slot` 0) and value (`slot` 1) streams. Addresses only
/// grow, so each line forms one run.
#[derive(Debug, Clone)]
struct StreamRuns {
    base: u64,
    elem_shift: u32,
    k: u64,
    k0: u64,
    k1: u64,
    slot: u64,
}

impl Iterator for StreamRuns {
    type Item = LineRun;

    fn next(&mut self) -> Option<LineRun> {
        if self.k >= self.k1 {
            return None;
        }
        let line = line_of(self.base + (self.k << self.elem_shift));
        // The last element whose first byte lies on `line`; the line
        // holds the element `k`, so `line + LINE - 1 >= base`.
        let last = ((line + LINE - 1 - self.base) >> self.elem_shift).min(self.k1 - 1);
        let run = LineRun {
            line,
            first: 2 * (self.k - self.k0) + self.slot,
            last: 2 * (last - self.k0) + self.slot,
            is_idx: self.slot == 0,
        };
        self.k = last + 1;
        Some(run)
    }
}

/// Calls `f` on the runs of `a` and `b` in ascending `key` order (every
/// position is unique, so there are no ties).
fn merge_runs(
    mut a: impl Iterator<Item = LineRun>,
    mut b: impl Iterator<Item = LineRun>,
    key: fn(&LineRun) -> u64,
    mut f: impl FnMut(LineRun),
) {
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some(p), Some(q)) if key(&p) < key(&q) => {
                f(p);
                x = a.next();
            }
            (_, Some(q)) => {
                f(q);
                y = b.next();
            }
            (Some(p), None) => {
                f(p);
                x = a.next();
            }
            (None, None) => return,
        }
    }
}

/// Phase 1 of a baseline chunk: the LLC lookups of the index, value and
/// row-pointer streams. Element by element, the chunk reads the index
/// line then the value line of each `k` in `k0..k1`, then the
/// row-pointer line of row `rows_retired`; a hit refreshes the line's
/// LRU stamp, a miss is fetched once. This looks each stream line up
/// once instead, in last-access order, and leaves `fetch` holding the
/// missed lines as `(line, is_index_or_row_pointer)` in first-access
/// order, the order DRAM sees them.
///
/// The walk is exact, not an approximation of the per-element one:
/// nothing is filled during phase 1, so a line hits or misses on every
/// access alike, and an LRU victim depends only on the order of the
/// stamps within a set, not on their values. Touching each hit line once
/// at its last access position reproduces that order.
pub fn stream_lines(
    llc: &mut Cache,
    a: &BaseAddrs,
    k0: usize,
    k1: usize,
    rows_retired: usize,
    fetch: &mut Vec<(u64, bool)>,
) {
    fetch.clear();
    let (k0, k1) = (k0 as u64, k1 as u64);
    let stream = |base, elem_shift, slot| StreamRuns {
        base,
        elem_shift,
        k: k0,
        k0,
        k1,
        slot,
    };
    let idx = stream(a.idx_base, 2, 0);
    // The row-pointer read comes after every element's, so it merges as
    // the value stream's tail.
    let at = 2 * (k1 - k0);
    let ptr = LineRun {
        line: line_of(a.ptr_base + 4 * rows_retired as u64),
        first: at,
        last: at,
        is_idx: true,
    };
    let val = stream(a.val_base, 3, 1).chain(std::iter::once(ptr));

    // One lookup per run, in last-access order: a hit refreshes the
    // line's stamp (a line two streams share is touched twice, and its
    // later touch is the one that stands), a miss is listed once.
    merge_runs(
        idx.clone(),
        val.clone(),
        |r| r.last,
        |r| {
            if !llc.access(r.line) && !fetch.iter().any(|&(l, _)| l == r.line) {
                fetch.push((r.line, r.is_idx));
            }
        },
    );
    if fetch.is_empty() {
        return;
    }
    // Reorder the misses to first-access order, in place: walking the
    // runs in that order, each listed line not yet placed moves to the
    // front, taking the stream of its first access.
    let mut placed = 0;
    merge_runs(
        idx,
        val,
        |r| r.first,
        |r| {
            if let Some(i) = fetch[placed..].iter().position(|&(l, _)| l == r.line) {
                fetch.swap(placed, placed + i);
                fetch[placed].1 = r.is_idx;
                placed += 1;
            }
        },
    );
}

/// Predicts one baseline SpMV on an already-laid-out image, replaying
/// the executor's per-chunk LLC access order (index/value/row-pointer
/// stream lines, then per-element vector gathers) against the caller's
/// `llc` — the same [`Cache`] state machine the cycle-accurate path
/// drives, so batch warmth and solver-loop reuse carry over exactly
/// when the caller manages `llc` the same way (reset per batch,
/// vector-range invalidation between runs).
pub fn base_cost(
    p: &BaseParams,
    a: &BaseAddrs,
    row_ptr: &[u32],
    col_idx: &[u32],
    llc: &mut Cache,
) -> AnalyticCost {
    let nnz = col_idx.len();
    let rows = row_ptr.len().saturating_sub(1);
    let line_stream = p.chan.stream_cycles(LINE);
    let line_scatter = p.chan.scatter_cycles(LINE);
    let mut cost = AnalyticCost::default();
    let mut read_lines = 0u64;
    let mut rows_retired = 0usize;
    let mut last_write_line = u64::MAX;
    let mut write_lines = 0u64;
    // Per-chunk scratch, allocated once per replay.
    let mut fetch: Vec<(u64, bool)> = Vec::new();
    let mut miss_lines: Vec<u64> = Vec::new();

    let mut k0 = 0usize;
    while k0 < nnz {
        let k1 = (k0 + p.chunk.max(1)).min(nnz);
        let n = (k1 - k0) as u64;

        // Phase 1: stream-line fetch, the executor's own walk.
        stream_lines(llc, a, k0, k1, rows_retired, &mut fetch);
        for &(l, _) in &fetch {
            llc.fill(l);
        }
        let misses = fetch.len() as u64;
        read_lines += misses;
        if misses > 0 {
            cost.cycles += p.chan.latency as f64 + misses as f64 * line_stream;
            // In-order responses: the indirect share runs until the
            // last index-stream line returns.
            if let Some(last_idx) = fetch.iter().rposition(|&(_, idx)| idx) {
                cost.indir_cycles += p.chan.latency as f64 + (last_idx as f64 + 1.0) * line_stream;
            }
        }

        // Phase 2: per-element vector gather. Accesses replay one by
        // one; a line missed twice in the same chunk merges with the
        // in-flight fill (one line of traffic), so fills are deferred
        // to the chunk boundary. With no fill inside the phase, a gather
        // to the previous gather's line changes nothing: a hit is
        // already the most recent line, a miss already recorded.
        miss_lines.clear();
        let mut prev_line = None;
        for &col in &col_idx[k0..k1] {
            let line = line_of(a.vec_base + 8 * col as u64);
            if prev_line == Some(line) {
                continue;
            }
            prev_line = Some(line);
            if !llc.access(line) && !miss_lines.contains(&line) {
                miss_lines.push(line);
            }
        }
        for &l in &miss_lines {
            llc.fill(l);
        }
        let vec_miss = miss_lines.len() as u64;
        read_lines += vec_miss;
        let issue_bound = n as f64 * p.gather_issue_interval as f64;
        let miss_bound = if vec_miss > 0 {
            p.chan.latency as f64 + vec_miss as f64 * line_scatter
        } else {
            0.0
        };
        let t2 = issue_bound.max(miss_bound) + p.llc_hit_latency as f64;
        cost.cycles += t2;
        cost.indir_cycles += t2;

        // Phase 3: MACs + row retirement + result-line writes.
        cost.cycles += (n as f64 / p.macs_per_cycle as f64).ceil();
        while rows_retired < rows && row_ptr[rows_retired + 1] as usize <= k1 {
            rows_retired += 1;
            cost.cycles += p.row_overhead_cycles as f64;
            if rows_retired.is_multiple_of(8) || rows_retired == rows {
                let line = line_of(a.res_base + 8 * (rows_retired as u64 - 1));
                if line != last_write_line {
                    last_write_line = line;
                    write_lines += 1;
                }
            }
        }
        k0 = k1;
    }

    // Result writes drain opportunistically alongside the read phases;
    // only the final line's flush lands on the critical path.
    cost.cycles += p.chan.latency as f64;
    cost.offchip_bytes = (read_lines + write_lines) * LINE;
    cost
}

// ---------------------------------------------------------------------
// Pack system
// ---------------------------------------------------------------------

/// Pack-system knobs shared with the cycle-accurate `PackConfig`.
#[derive(Debug, Clone)]
pub struct PackParams {
    /// Entries per double-buffered L2 tile (already batch-adjusted).
    pub tile_entries: usize,
    /// Slice-pointer entries to fetch across the whole run.
    pub ptr_count: usize,
    /// Result rows (writeback lines per vector).
    pub rows: usize,
    /// Vectors per batch.
    pub vectors: usize,
    /// VPC MAC throughput in elements per cycle.
    pub compute_elems_per_cycle: f64,
    /// The coalescing adapter between prefetcher and DRAM.
    pub adapter: AdapterConfig,
    /// The memory channel stack.
    pub chan: ChannelModel,
    /// Column-index array base address.
    pub idx_base: u64,
    /// Per-vector dense-vector base addresses.
    pub vec_bases: Vec<u64>,
}

/// Predicts one batched pack-system SpMV over the padded SELL entry
/// stream: per tile, the prefetcher's contiguous pointer/value fetch
/// and one indirect burst per batch vector (element-gather traffic from
/// the coalescer's structural window model), double-buffered against
/// the VPC's compute.
pub fn pack_cost(p: &PackParams, col_idx_padded: &[u32]) -> AnalyticCost {
    let entries = col_idx_padded.len();
    let tile = p.tile_entries.max(1);
    let n_tiles = entries.div_ceil(tile).max(1);
    let ptr_per_tile = p.ptr_count.div_ceil(n_tiles).max(1);
    let b_n = p.vectors.max(1);
    let mut cost = AnalyticCost::default();
    let mut read_lines = 0u64;
    let mut ptr_fetched = 0usize;
    let mut prev_compute = 0.0f64;
    let mut pipelined = 0.0f64;
    // One window model for the whole call: every burst ends in a
    // `flush`, so each starts from a fresh window, and its wide requests
    // are the growth of the running count.
    let mut coal = CoalescerTrafficModel::new(&p.adapter);

    for t in 0..n_tiles {
        let lo = t * tile;
        let hi = (lo + tile).min(entries);
        let count = hi - lo;

        // Contiguous stages: slice pointers + nonzero values.
        let ptr_n = ptr_per_tile.min(p.ptr_count - ptr_fetched);
        let ptr_lines = span_lines(4 * ptr_fetched as u64, ptr_n, 4);
        ptr_fetched += ptr_n;
        let val_lines = span_lines(8 * lo as u64, count, 8);
        read_lines += ptr_lines + val_lines;
        let t_contig = p.chan.latency as f64 + p.chan.stream_cycles((ptr_lines + val_lines) * LINE);

        // One indirect burst per batch vector: index stream lines plus
        // the element gathers the coalescer window model predicts.
        let mut t_ind_total = 0.0f64;
        for b in 0..b_n {
            let idx_lines = span_lines(p.idx_base + 4 * lo as u64, count, 4);
            let vec_base = p.vec_bases.get(b).copied().unwrap_or(0);
            let before = coal.counts().wide_requests;
            for &c in &col_idx_padded[lo..hi] {
                coal.push(vec_base + 8 * c as u64);
            }
            coal.flush();
            let wide = coal.counts().wide_requests - before;
            read_lines += idx_lines + wide;
            let upstream_beats = (count as u64).div_ceil(8) as f64;
            let dram = p.chan.stream_cycles(idx_lines * LINE) + p.chan.scatter_cycles(wide * LINE);
            t_ind_total += p.chan.latency as f64 + upstream_beats.max(dram);
        }
        cost.indir_cycles += t_ind_total;

        let fetch_t = t_contig + t_ind_total;
        let compute_t = (count as f64 * b_n as f64 / p.compute_elems_per_cycle).ceil();
        if t == 0 {
            pipelined += fetch_t;
        } else {
            pipelined += fetch_t.max(prev_compute);
        }
        prev_compute = compute_t;
    }
    pipelined += prev_compute;
    cost.cycles = pipelined;

    // Result writeback: one masked 64 B line per 8 rows per vector,
    // overlapped with compute except for the final flush.
    let write_lines = (p.rows as u64).div_ceil(8) * b_n as u64;
    cost.cycles += p.chan.latency as f64;
    cost.offchip_bytes = (read_lines + write_lines) * LINE;
    cost
}

// ---------------------------------------------------------------------
// Sharded system
// ---------------------------------------------------------------------

/// Predicts one shard's gather burst: the unit fetches its shard-local
/// index stream, gathers `x` elements through the coalescer (window
/// model), and packs results upstream at one 64 B beat (8 elements)
/// per cycle. `cycles` is the shard's gather-phase length; the sharded
/// run's gather phase is the max across shards.
pub fn shard_gather_cost(
    adapter: &AdapterConfig,
    chan: &ChannelModel,
    idx_base: u64,
    x_base: u64,
    col_idx: &[u32],
) -> AnalyticCost {
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
    let cycles = chan.latency as f64 + pipeline_bound.max(dram);
    AnalyticCost {
        cycles,
        indir_cycles: cycles,
        offchip_bytes: (idx_lines + wide) * LINE,
    }
}

/// Predicts the sharded run's merged-collection phase: the scatter unit
/// streams the merged row-index array and writes one masked 64 B result
/// line per 8 rows through the collect channel.
pub fn collect_cost(rows: usize, chan: &ChannelModel) -> AnalyticCost {
    let idx_lines = (4 * rows as u64).div_ceil(LINE);
    let write_lines = (rows as u64).div_ceil(8);
    let upstream_beats = (rows as u64).div_ceil(8) as f64;
    let dram = chan.stream_cycles((idx_lines + write_lines) * LINE);
    AnalyticCost {
        cycles: chan.latency as f64 + upstream_beats.max(dram),
        indir_cycles: 0.0,
        offchip_bytes: (idx_lines + write_lines) * LINE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_mem::CacheConfig;

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

    #[test]
    fn base_cost_scales_with_work_and_tracks_traffic() {
        // 64 rows × 8 nnz, sequential columns: streams dominate.
        let rows = 64usize;
        let per = 8usize;
        let row_ptr: Vec<u32> = (0..=rows).map(|i| (i * per) as u32).collect();
        let col_idx: Vec<u32> = (0..rows * per).map(|k| (k % rows) as u32).collect();
        let a = BaseAddrs {
            ptr_base: 0,
            idx_base: 4096,
            val_base: 8192,
            vec_base: 16384,
            res_base: 32768,
        };
        let p = BaseParams {
            chunk: 32,
            llc_hit_latency: 40,
            gather_issue_interval: 5,
            macs_per_cycle: 16,
            row_overhead_cycles: 16,
            chan: ideal(),
        };
        let mut llc = Cache::new(CacheConfig::paper_llc());
        let cold = base_cost(&p, &a, &row_ptr, &col_idx, &mut llc);
        assert!(cold.cycles > 0.0);
        assert!(cold.indir_cycles <= cold.cycles);
        // Matrix stream ≈ 12 B/nnz + vector + result lines.
        let nnz = (rows * per) as u64;
        assert!(cold.offchip_bytes as f64 >= 12.0 * nnz as f64 * 0.9);
        // A second pass with a warm LLC moves far less data (only the
        // vector range was invalidated in a batch — here nothing).
        let warm = base_cost(&p, &a, &row_ptr, &col_idx, &mut llc);
        assert!(warm.offchip_bytes < cold.offchip_bytes / 4);
        assert!(warm.cycles < cold.cycles);
    }

    /// The per-element walk [`stream_lines`] replaces: one LLC lookup per
    /// access, in access order, each miss fetched once.
    fn stream_lines_per_element(
        llc: &mut Cache,
        a: &BaseAddrs,
        k0: usize,
        k1: usize,
        rows_retired: usize,
        fetch: &mut Vec<(u64, bool)>,
    ) {
        fetch.clear();
        let mut push_line = |llc: &mut Cache, addr: u64, idx: bool| {
            let line = line_of(addr);
            if !llc.access(line) && !fetch.iter().any(|&(l, _)| l == line) {
                fetch.push((line, idx));
            }
        };
        for k in k0..k1 {
            push_line(llc, a.idx_base + 4 * k as u64, true);
            push_line(llc, a.val_base + 8 * k as u64, false);
        }
        push_line(llc, a.ptr_base + 4 * rows_retired as u64, true);
    }

    /// The line walk against the per-element reference on small, hot
    /// caches: unaligned (and possibly line-sharing) array bases, chunks
    /// of 1 to 128 elements at any offset, 2 or 4 sets of 2 ways. Both
    /// must fetch the same lines in the same order and leave the same
    /// LRU order, which filling conflicting lines afterwards exposes.
    #[test]
    fn stream_lines_matches_the_per_element_walk() {
        let mut rng = nmpic_sim::SimRng::new(39);
        // Addresses stay within 64 lines, so every set sees conflicts.
        let span = 64 * LINE;
        for case in 0..20_000 {
            let sets = if case % 2 == 0 { 2 } else { 4 };
            let mut reference = Cache::new(CacheConfig {
                size_bytes: sets * 2 * 64,
                ways: 2,
                line_bytes: 64,
            });
            for _ in 0..rng.gen_u64(0, 12) {
                reference.fill(rng.gen_u64(0, span));
            }
            let mut walked = reference.clone();
            let a = BaseAddrs {
                ptr_base: rng.gen_u64(0, span / 4),
                idx_base: rng.gen_u64(0, span / 4),
                val_base: rng.gen_u64(0, span / 4),
                vec_base: 0,
                res_base: 0,
            };
            // Short chunks often miss on one line only, possibly one
            // two streams share.
            let k0 = rng.gen_u64(0, 64) as usize;
            let k1 = k0 + rng.gen_u64(1, if case % 4 < 2 { 9 } else { 129 }) as usize;
            let rows_retired = rng.gen_u64(0, 256) as usize;
            let (mut want, mut got) = (Vec::new(), Vec::new());
            stream_lines_per_element(&mut reference, &a, k0, k1, rows_retired, &mut want);
            stream_lines(&mut walked, &a, k0, k1, rows_retired, &mut got);
            assert_eq!(got, want, "case {case}: fetch list");
            for &(line, _) in &want {
                reference.fill(line);
                walked.fill(line);
            }
            for _ in 0..rng.gen_u64(1, 4) {
                let line = line_of(rng.gen_u64(0, span));
                reference.fill(line);
                walked.fill(line);
            }
            for line in (0..span).step_by(64) {
                assert_eq!(
                    walked.contains(line),
                    reference.contains(line),
                    "case {case}: residency of line {line:#x}"
                );
            }
        }
    }

    #[test]
    fn pack_cost_amortizes_streams_across_batch() {
        let entries = 4096usize;
        let col_idx: Vec<u32> = (0..entries).map(|k| (k % 512) as u32).collect();
        let mk = |vectors: usize| PackParams {
            tile_entries: 1024,
            ptr_count: 64,
            rows: 512,
            vectors,
            compute_elems_per_cycle: 4.0,
            adapter: AdapterConfig::mlp(256),
            chan: ideal(),
            idx_base: 0,
            vec_bases: (0..vectors).map(|b| 1 << 20 | (b as u64) << 14).collect(),
        };
        let one = pack_cost(&mk(1), &col_idx);
        let four = pack_cost(&mk(4), &col_idx);
        // Four vectors reuse the pointer/value streams: cheaper than 4×.
        assert!(four.cycles < 4.0 * one.cycles);
        assert!(four.offchip_bytes < 4 * one.offchip_bytes);
        assert!(one.indir_cycles > 0.0);
    }

    #[test]
    fn shard_gather_is_pipeline_bound_on_local_streams() {
        let chan = ideal();
        let cfg = AdapterConfig::mlp(256);
        // Highly local: every gather hits a handful of blocks, so the
        // element-drain pipeline — not DRAM — bounds the burst.
        let local: Vec<u32> = (0..4096).map(|k| (k / 64) as u32).collect();
        let c = shard_gather_cost(&cfg, &chan, 0, 1 << 20, &local);
        let drain = 4096.0 / SHARD_ELEMS_PER_CYCLE;
        assert!(c.cycles >= drain, "element drain bounds the burst");
        assert!(c.cycles < drain + 2.0 * chan.latency as f64 + 1.0);
        // Scattered: every element its own block → DRAM-bound.
        let scattered: Vec<u32> = (0..4096).map(|k| (k * 8 % 32768) as u32).collect();
        let s = shard_gather_cost(&cfg, &chan, 0, 1 << 20, &scattered);
        assert!(s.cycles > c.cycles);
        assert!(s.offchip_bytes > c.offchip_bytes);
    }

    #[test]
    fn collect_cost_counts_result_lines() {
        let c = collect_cost(1024, &ideal());
        // 1024 rows → 64 idx lines + 128 result lines.
        assert_eq!(c.offchip_bytes, (64 + 128) * LINE);
        assert!(c.cycles > 0.0);
        assert_eq!(collect_cost(0, &ideal()).offchip_bytes, 0);
    }
}
