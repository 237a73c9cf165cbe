//! The AXI-Pack vector processor system (paper Section II-C): CVA6+Ara
//! VPC, a 384 kB L2 scratchpad holding six equally-sized arrays (slice
//! pointers, results, double-buffered nonzeros and double-buffered packed
//! vector elements), and a prefetcher issuing AXI-Pack bursts through the
//! coalescing-enhanced adapter.
//!
//! Tiled SELL SpMV: while the VPC computes tile *t* out of the L2, the
//! prefetcher streams tile *t+1* — slice pointers and nonzeros as
//! contiguous pack bursts, the indexed vector elements as an indirect
//! burst that the adapter coalesces. Result lines are written back to
//! DRAM as rows complete.
//!
//! **Batched (multi-vector) execution**: when a prepared plan runs a
//! batch of B vectors, each tile's slice pointers and nonzeros are
//! fetched **once** and followed by B indirect bursts (one per vector's
//! packed elements) and B accumulation passes. The contiguous streams
//! amortize across the batch — the prepare-once/execute-many win the
//! session API exists for — at the cost of splitting the double-buffered
//! vector array B ways ([`PackConfig::tile_entries_batched`]).
//!
//! The simulation moves real data end to end: the packed vector values
//! delivered by the adapter are combined with the nonzeros to produce the
//! result vector, which must carry the bits of [`Sell::spmv_into`].

use std::collections::VecDeque;
use std::ops::Range;

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_core::{AdapterConfig, CoalescerTrafficModel, IndirectStreamUnit};
use nmpic_mem::{BackendConfig, ChannelPort, Memory, WideRequest, BLOCK_BYTES};
use nmpic_sim::SimClock;
use nmpic_sparse::Sell;

use crate::cost::{span_lines, ChannelModel, LINE};
use crate::engine::{issue_write_back, Executor, PlanFacts, ValueKernel};
use crate::report::IterReport;

/// Tuning of the pack system; the adapter variant is chosen by
/// [`crate::SystemKind::Pack`].
#[derive(Debug, Clone)]
pub struct PackConfig {
    /// Total L2 scratchpad bytes, split into six equal arrays (Table I:
    /// 384 kB).
    pub l2_bytes: usize,
    /// Sustained VPC SELL-SpMV throughput in elements per cycle. With 16
    /// lanes the 512 b L2 port feeds two 64 b operand streams at 8
    /// elements/cycle combined → 4 MACs/cycle sustained.
    pub compute_elems_per_cycle: f64,
}

impl PackConfig {
    /// Entries per tile: one L2 array (a sixth of the scratchpad) of 64 b
    /// values.
    pub fn tile_entries(&self) -> usize {
        self.tile_entries_batched(1)
    }

    /// Entries per tile when `vectors` dense vectors are multiplied per
    /// pass. The L2 then holds `4 + 2·vectors` equally-sized arrays:
    /// slice pointers, results, double-buffered nonzeros, and a
    /// double-buffered packed-element array per vector — so tiles shrink
    /// as the batch widens (1 vector → the classic six-way split).
    pub fn tile_entries_batched(&self, vectors: usize) -> usize {
        let arrays = 4 + 2 * vectors.max(1);
        (self.l2_bytes / arrays) / 8
    }

    /// How one pass of `vectors` vectors tiles `sell`'s stream: the one
    /// tile geometry the simulator and the model both follow.
    fn tiling(&self, sell: &Sell, vectors: usize) -> Tiling {
        let tile_entries = self.tile_entries_batched(vectors).max(64);
        let n_tiles = sell.padded_len().div_ceil(tile_entries);
        Tiling {
            len: sell.padded_len(),
            tile_entries,
            n_tiles,
            ptr_per_tile: sell.slice_ptr().len().div_ceil(n_tiles).max(1),
        }
    }
}

/// The tiles of one pass over a padded SELL stream.
#[derive(Debug, Clone, Copy)]
struct Tiling {
    /// Stream entries.
    len: usize,
    /// Entries per tile (the last tile may hold fewer).
    tile_entries: usize,
    n_tiles: usize,
    /// Slice-pointer entries fetched with each tile.
    ptr_per_tile: usize,
}

impl Tiling {
    /// The stream positions of tile `t`.
    fn tile(&self, t: usize) -> Range<usize> {
        let lo = t * self.tile_entries;
        lo..(lo + self.tile_entries).min(self.len)
    }
}

impl Default for PackConfig {
    fn default() -> Self {
        Self {
            l2_bytes: 384 * 1024,
            compute_elems_per_cycle: 4.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Ptr,
    Val,
    /// Indirect packed-element burst for batch vector `b`.
    Indirect(usize),
}

/// Memory footprint for a prepared pack plan holding `slots` resident
/// vector/result pairs (batched runs keep every vector of a batch in
/// DRAM simultaneously), rounded to a power of two.
fn pack_plan_memory_size(sell: &Sell, slots: usize) -> usize {
    let slots = slots.max(1) as u64;
    let need = 4 * sell.slice_ptr().len() as u64
        + 12 * sell.padded_len() as u64
        + slots * 8 * (sell.cols() + sell.rows()) as u64
        + 16384;
    (need.next_multiple_of(BLOCK_BYTES as u64) as usize).next_power_of_two()
}

/// The pack system's prepared plan: SELL image laid out in a warm
/// channel and adapter unit built once.
pub(crate) struct PackPlan {
    cfg: PackConfig,
    /// The closed-form view of the backend `chan` is built from.
    memory: ChannelModel,
    sell: Sell,
    chan: Box<dyn ChannelPort>,
    layout: PackLayout,
    /// Whether the SELL image is in the channel's memory: written by the
    /// first `simulate`, never by an analytic plan.
    image_written: bool,
    unit: IndirectStreamUnit,
}

impl PackPlan {
    /// Lays the SELL image out, with `slots` resident vector/result
    /// pairs, in a channel built from `backend`, behind one `adapter`.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix.
    pub(crate) fn prepare(
        sell: Sell,
        cfg: PackConfig,
        adapter: &AdapterConfig,
        backend: &BackendConfig,
        slots: usize,
    ) -> Self {
        let mut chan = backend.build(Memory::new(pack_plan_memory_size(&sell, slots)));
        let layout = layout_pack(chan.memory_mut(), &sell, slots);
        Self {
            unit: IndirectStreamUnit::new(adapter.clone()),
            cfg,
            memory: ChannelModel::of(backend),
            sell,
            chan,
            layout,
            image_written: false,
        }
    }

    /// Writes the SELL image (slice pointers, column indices, values)
    /// into the channel's memory unless an earlier pass did.
    fn write_image(&mut self) {
        if std::mem::replace(&mut self.image_written, true) {
            return;
        }
        let (mem, a) = (self.chan.memory_mut(), &self.layout);
        mem.write_u32_slice(a.ptr_base, self.sell.slice_ptr());
        mem.write_u32_slice(a.idx_base, self.sell.col_idx());
        mem.write_f64_slice(a.val_base, self.sell.values());
    }
}

impl Executor for PackPlan {
    fn facts(&self) -> PlanFacts {
        let sell = &self.sell;
        PlanFacts {
            label: self.unit.config().label(),
            rows: sell.rows(),
            cols: sell.cols(),
            nnz: sell.nnz(),
            entries: sell.padded_len(),
            matrix_bytes: 4 * sell.slice_ptr().len() as u64 + 12 * sell.padded_len() as u64,
        }
    }

    /// One tiled pass multiplies as many vectors as the image has
    /// resident slots, fetching each tile's contiguous streams once.
    fn chunk_capacity(&self) -> usize {
        self.layout.vec_bases.len()
    }

    fn value_kernel(&self) -> ValueKernel<'_> {
        ValueKernel::Sell(&self.sell)
    }

    fn simulate(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        self.write_image();
        self.chan.reset_run_state();
        self.unit.reset();
        for (x, &vec_base) in xs.iter().zip(&self.layout.vec_bases) {
            self.chan.memory_mut().write_f64_slice(vec_base, x);
        }
        exec_pack(self, xs, ys)
    }

    fn model(&mut self, vectors: usize) -> IterReport {
        pack_cost(
            &self.cfg,
            self.unit.config(),
            &self.memory,
            &self.layout,
            &self.sell,
            vectors,
        )
    }

    /// Every request of a pass comes from the SELL arrays and the fixed
    /// layout, and `simulate` resets the channel and the unit first, so
    /// the report depends on the plan alone.
    fn timing_is_constant(&self) -> bool {
        true
    }
}

/// DRAM home locations of the pack system's arrays. `vec_bases[s]` /
/// `res_bases[s]` are the vector/result home of batch slot `s`.
#[derive(Debug, Clone)]
struct PackLayout {
    ptr_base: u64,
    idx_base: u64,
    val_base: u64,
    vec_bases: Vec<u64>,
    res_bases: Vec<u64>,
}

/// Allocates the pack arrays (with `slots` resident vector/result pairs)
/// in `mem`. The matrix image is written by the first simulated pass
/// ([`PackPlan::write_image`]), vectors per pass.
fn layout_pack(mem: &mut Memory, sell: &Sell, slots: usize) -> PackLayout {
    assert!(sell.padded_len() > 0, "empty matrix");
    let slots = slots.max(1);
    PackLayout {
        ptr_base: mem.alloc_array(sell.slice_ptr().len() as u64, 4),
        idx_base: mem.alloc_array(sell.padded_len() as u64, 4),
        val_base: mem.alloc_array(sell.padded_len() as u64, 8),
        vec_bases: (0..slots)
            .map(|_| mem.alloc_array(sell.cols() as u64, 8))
            .collect(),
        res_bases: (0..slots)
            .map(|_| mem.alloc_array(sell.rows() as u64, 8))
            .collect(),
    }
}

/// Executes tiled SELL SpMV for `xs.len()` vectors against an already
/// laid-out memory image, starting the channel clock (and, the caller
/// having reset the channel, its traffic counter) at 0. Per tile, the
/// slice-pointer and nonzero bursts run once and are followed by one
/// indirect burst + accumulation pass per vector. Results are written
/// into the caller's `ys` buffers (one per vector, overwritten) so a
/// solver loop reuses one preallocated buffer instead of receiving
/// fresh vectors per call.
fn exec_pack(plan: &mut PackPlan, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
    let (chan, unit) = (&mut *plan.chan, &mut plan.unit);
    let (sell, cfg, layout) = (&plan.sell, &plan.cfg, &plan.layout);
    assert!(sell.padded_len() > 0, "empty matrix");
    let b_n = xs.len();
    assert!(b_n >= 1, "at least one vector");
    assert_eq!(ys.len(), b_n, "one result buffer per vector");
    assert!(
        b_n <= layout.vec_bases.len(),
        "batch of {b_n} vectors exceeds the plan's {} resident slots",
        layout.vec_bases.len()
    );
    for y in ys.iter_mut() {
        assert_eq!(y.len(), sell.rows(), "result buffer length must equal rows");
        y.fill(0.0);
    }
    let entries = sell.padded_len();
    let rows = sell.rows();
    let n_ptr = sell.slice_ptr().len();

    let tiling = cfg.tiling(sell, b_n);
    let (tile_entries, n_tiles) = (tiling.tile_entries, tiling.n_tiles);
    let ptr_per_tile = tiling.ptr_per_tile as u64;

    // Prefetcher state.
    let mut pf_tile = 0usize; // tile currently being fetched
    let mut stage = Stage::Ptr;
    let mut burst_begun = false;
    let mut fetched_tiles = 0usize; // tiles fully resident in L2
    let mut tile_vals: Vec<u64> = Vec::with_capacity(tile_entries);
    // `vec![elem; n]` clones, and cloning an empty Vec drops its
    // reserved capacity — build each buffer explicitly.
    let fresh_vecs =
        || -> Vec<Vec<u64>> { (0..b_n).map(|_| Vec::with_capacity(tile_entries)).collect() };
    let mut tile_vecs: Vec<Vec<u64>> = fresh_vecs();
    type TileData = (Vec<u64>, Vec<Vec<u64>>);
    let mut ready_tiles: VecDeque<TileData> = Default::default();

    // VPC state.
    let mut computed_tiles = 0usize;
    let mut vpc_busy_until = 0u64;
    let mut cur_tile: Option<TileData> = None;
    let mut rows_written = 0usize;
    let mut pending_writes: VecDeque<WideRequest> = VecDeque::new();

    let mut indir_cycles = 0u64;
    let mut clk = SimClock::new("pack SpMV", 500_000 + entries as u64 * 300 * b_n as u64);

    while computed_tiles < n_tiles || !pending_writes.is_empty() || !chan.is_idle() {
        let now = clk.now();
        // --- Prefetcher: fetch tiles while fewer than two are buffered
        // (double buffering).
        if pf_tile < n_tiles && fetched_tiles - computed_tiles < 2 {
            let Range { start: lo, end: hi } = tiling.tile(pf_tile);
            let count = (hi - lo) as u64;
            if !burst_begun {
                let req = match stage {
                    Stage::Ptr => PackRequest::Contiguous {
                        base: layout.ptr_base
                            + 4 * (pf_tile as u64 * ptr_per_tile).min(n_ptr as u64 - 1),
                        elem_size: ElemSize::B4,
                        count: ptr_per_tile.min(n_ptr as u64),
                    },
                    Stage::Val => PackRequest::Contiguous {
                        base: layout.val_base + 8 * lo as u64,
                        elem_size: ElemSize::B8,
                        count,
                    },
                    Stage::Indirect(b) => PackRequest::Indirect {
                        idx_base: layout.idx_base + 4 * lo as u64,
                        idx_size: ElemSize::B4,
                        count,
                        elem_base: layout.vec_bases[b],
                        elem_size: ElemSize::B8,
                    },
                };
                // nmpic-lint: allow(L2) — invariant: a new burst only begins after is_done() reported the previous one drained
                unit.begin(req).expect("unit drained between bursts");
                burst_begun = true;
            }
            if matches!(stage, Stage::Indirect(_)) {
                indir_cycles += 1;
            }
            if unit.is_done() && burst_begun {
                burst_begun = false;
                stage = match stage {
                    Stage::Ptr => Stage::Val,
                    Stage::Val => Stage::Indirect(0),
                    Stage::Indirect(b) if b + 1 < b_n => Stage::Indirect(b + 1),
                    Stage::Indirect(_) => {
                        // Tile fully fetched for every vector of the batch.
                        ready_tiles.push_back((
                            std::mem::take(&mut tile_vals),
                            std::mem::replace(&mut tile_vecs, fresh_vecs()),
                        ));
                        fetched_tiles += 1;
                        pf_tile += 1;
                        Stage::Ptr
                    }
                };
            }
        }

        unit.tick(now, chan);
        while let Some(beat) = unit.pop_beat() {
            match stage {
                Stage::Ptr => { /* slice pointers: control only */ }
                Stage::Val => tile_vals.extend(beat.elements()),
                Stage::Indirect(b) => tile_vecs[b].extend(beat.elements()),
            }
        }

        // --- VPC compute: start when a tile is buffered, finish after the
        // tile's compute time (one pass per batch vector).
        if cur_tile.is_none() {
            if let Some(tile) = ready_tiles.pop_front() {
                let n = tile.0.len() * b_n;
                vpc_busy_until = now + (n as f64 / cfg.compute_elems_per_cycle).ceil() as u64;
                cur_tile = Some(tile);
            }
        } else if let Some((vals, vecs)) = cur_tile.take_if(|_| now >= vpc_busy_until) {
            debug_assert!(vecs.iter().all(|v| v.len() == vals.len()));
            // Padding moved through the adapter like any entry but the
            // walk skips it: `0.0 * x[0]` is NaN for a non-finite `x[0]`.
            let tile = tiling.tile(computed_tiles);
            sell.walk(tile.clone(), |pos, row| {
                let a = f64::from_bits(vals[pos - tile.start]);
                for (y, v) in ys.iter_mut().zip(&vecs) {
                    y[row] += a * f64::from_bits(v[pos - tile.start]);
                }
            });
            computed_tiles += 1;
            // Write back completed result rows, one 64 B line per vector
            // at a time.
            let rows_done = sell.complete_rows(tile.end);
            while rows_written < rows_done {
                for res_base in layout.res_bases.iter().take(b_n) {
                    let line = (res_base + 8 * rows_written as u64) & !(BLOCK_BYTES as u64 - 1);
                    pending_writes.push_back(WideRequest::write(line, 0, [0u8; BLOCK_BYTES]));
                }
                rows_written += 8;
            }
            rows_written = rows_written.min(rows);
        }

        // Result write-back shares the channel with the adapter.
        issue_write_back(chan, &mut pending_writes, now);

        chan.tick(now);
        clk.tick();
    }

    IterReport {
        cycles: clk.now(),
        indir_cycles,
        offchip_bytes: chan.data_bytes(),
    }
}

/// The pack system's closed-form cost: one batched pass of `vectors`
/// vectors over the padded SELL entry stream laid out at `layout`. Per
/// tile, the prefetcher's contiguous pointer/value fetch and one
/// indirect burst per vector (element-gather traffic from the
/// coalescer's structural window model), double-buffered against the
/// VPC's compute.
fn pack_cost(
    cfg: &PackConfig,
    adapter: &AdapterConfig,
    chan: &ChannelModel,
    layout: &PackLayout,
    sell: &Sell,
    vectors: usize,
) -> IterReport {
    let col_idx = sell.col_idx();
    let tiling = cfg.tiling(sell, vectors);
    let ptr_count = sell.slice_ptr().len();
    let mut indir_cycles = 0.0f64;
    let mut read_lines = 0u64;
    let mut ptr_fetched = 0usize;
    let mut prev_compute = 0.0f64;
    let mut pipelined = 0.0f64;
    // One window model for the whole call: every burst ends in a
    // `flush`, so each starts from a fresh window, and its wide requests
    // are the growth of the running count.
    let mut coal = CoalescerTrafficModel::new(adapter);

    for t in 0..tiling.n_tiles {
        let Range { start: lo, end: hi } = tiling.tile(t);
        let count = hi - lo;

        // Contiguous stages: slice pointers + nonzero values.
        let ptr_n = tiling.ptr_per_tile.min(ptr_count - ptr_fetched);
        let ptr_lines = span_lines(4 * ptr_fetched as u64, ptr_n, 4);
        ptr_fetched += ptr_n;
        let val_lines = span_lines(8 * lo as u64, count, 8);
        read_lines += ptr_lines + val_lines;
        let t_contig = chan.latency as f64 + chan.stream_cycles((ptr_lines + val_lines) * LINE);

        // One indirect burst per batch vector: index stream lines plus
        // the element gathers the coalescer window model predicts.
        let mut t_ind_total = 0.0f64;
        for &vec_base in &layout.vec_bases[..vectors] {
            let idx_lines = span_lines(layout.idx_base + 4 * lo as u64, count, 4);
            let before = coal.counts().wide_requests;
            for &c in &col_idx[lo..hi] {
                coal.push(vec_base + 8 * c as u64);
            }
            coal.flush();
            let wide = coal.counts().wide_requests - before;
            read_lines += idx_lines + wide;
            let upstream_beats = (count as u64).div_ceil(8) as f64;
            let dram = chan.stream_cycles(idx_lines * LINE) + chan.scatter_cycles(wide * LINE);
            t_ind_total += chan.latency as f64 + upstream_beats.max(dram);
        }
        indir_cycles += t_ind_total;

        let fetch_t = t_contig + t_ind_total;
        let compute_t = (count as f64 * vectors as f64 / cfg.compute_elems_per_cycle).ceil();
        if t == 0 {
            pipelined += fetch_t;
        } else {
            pipelined += fetch_t.max(prev_compute);
        }
        prev_compute = compute_t;
    }
    pipelined += prev_compute;

    // Result writeback: one masked 64 B line per 8 rows per vector,
    // overlapped with compute except for the final flush.
    let write_lines = (sell.rows() as u64).div_ceil(8) * vectors as u64;
    let cycles = pipelined + chan.latency as f64;
    IterReport {
        cycles: cycles.round() as u64,
        indir_cycles: indir_cycles.round() as u64,
        offchip_bytes: (read_lines + write_lines) * LINE,
    }
}

/// One golden-vector SpMV on a fresh pack plan with `adapter`, tuned by
/// `cfg` — the in-module tests' way into the datapath.
#[cfg(test)]
fn run_pack_tuned(
    csr: &nmpic_sparse::Csr,
    adapter: AdapterConfig,
    cfg: PackConfig,
) -> crate::RunReport {
    let engine = crate::SpmvEngine::builder()
        .system(crate::SystemKind::Pack(adapter))
        .pack_config(cfg)
        .build();
    crate::engine::run_golden(engine.prepare(csr))
}

/// [`run_pack_tuned`] with the paper's tuning.
#[cfg(test)]
fn run_pack_spmv(csr: &nmpic_sparse::Csr, adapter: AdapterConfig) -> crate::RunReport {
    run_pack_tuned(csr, adapter, PackConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_sparse::gen::{banded_fem, circuit};

    fn sell(rows: usize) -> Sell {
        Sell::from_csr_default(&banded_fem(rows, 8, 32, 5))
    }

    #[test]
    fn pack_spmv_verifies_against_golden() {
        let m = banded_fem(256, 8, 32, 5);
        for adapter in [
            AdapterConfig::mlp_nc(),
            AdapterConfig::mlp(64),
            AdapterConfig::mlp(256),
        ] {
            let r = run_pack_spmv(&m, adapter);
            assert!(r.verified, "datapath mismatch for {}", r.label);
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn coalescer_speeds_up_spmv() {
        let m = banded_fem(2048, 12, 64, 11);
        let r0 = run_pack_spmv(&m, AdapterConfig::mlp_nc());
        let r256 = run_pack_spmv(&m, AdapterConfig::mlp(256));
        assert!(r0.verified && r256.verified);
        let speedup = r256.speedup_over(&r0);
        assert!(
            speedup > 1.5,
            "pack256 must clearly beat pack0, got {speedup:.2}x"
        );
        assert!(
            r256.indir_fraction() < r0.indir_fraction(),
            "coalescing must shrink the indirect share"
        );
    }

    #[test]
    fn traffic_ratio_drops_with_coalescing() {
        let m = banded_fem(2048, 12, 64, 13);
        let r0 = run_pack_spmv(&m, AdapterConfig::mlp_nc());
        let r256 = run_pack_spmv(&m, AdapterConfig::mlp(256));
        assert!(
            r0.traffic_ratio() > 2.0 * r256.traffic_ratio(),
            "pack0 {:.2}x vs pack256 {:.2}x",
            r0.traffic_ratio(),
            r256.traffic_ratio()
        );
        assert!(r256.traffic_ratio() >= 1.0);
    }

    #[test]
    fn circuit_matrix_verifies_too() {
        let m = circuit(512, 4, 16, 0.1, 4, 3);
        let r = run_pack_spmv(&m, AdapterConfig::mlp(64));
        assert!(r.verified);
    }

    #[test]
    fn label_follows_paper_convention() {
        for (adapter, want) in [
            (AdapterConfig::mlp_nc(), "pack0"),
            (AdapterConfig::mlp(64), "pack64"),
            (AdapterConfig::seq(256), "packSEQ256"),
        ] {
            let plan = PackPlan::prepare(
                sell(64),
                PackConfig::default(),
                &adapter,
                &BackendConfig::hbm(),
                1,
            );
            assert_eq!(plan.facts().label, want);
        }
    }

    #[test]
    fn pack_cost_amortizes_streams_across_batch() {
        // 512 rows of 8 entries: a 4096-entry stream with no padding.
        let (rows, per) = (512usize, 8usize);
        let row_ptr: Vec<u32> = (0..=rows).map(|i| (i * per) as u32).collect();
        let col_idx: Vec<u32> = (0..rows * per).map(|k| (k % 512) as u32).collect();
        let csr = nmpic_sparse::Csr::from_parts(rows, 512, row_ptr, col_idx, vec![1.0; rows * per])
            .unwrap();
        let sell = Sell::from_csr_default(&csr);
        let layout = layout_pack(&mut Memory::new(pack_plan_memory_size(&sell, 4)), &sell, 4);
        // 1024-entry tiles for one vector, at 4 elements per cycle.
        let cfg = PackConfig {
            l2_bytes: 48 * 1024,
            ..PackConfig::default()
        };
        let adapter = AdapterConfig::mlp(256);
        let chan = ChannelModel::of(&BackendConfig::ideal());
        let one = pack_cost(&cfg, &adapter, &chan, &layout, &sell, 1);
        let four = pack_cost(&cfg, &adapter, &chan, &layout, &sell, 4);
        // Four vectors reuse the pointer/value streams: cheaper than 4×.
        assert!(four.cycles < 4 * one.cycles);
        assert!(four.offchip_bytes < 4 * one.offchip_bytes);
        assert!(one.indir_cycles > 0);
    }

    #[test]
    fn row_map_covers_all_positions() {
        // The walk exec_pack follows names a row for exactly the stored
        // entries of the stream; padding gets none.
        let s = sell(100);
        let mut visited = Vec::new();
        s.walk(0..s.padded_len(), |pos, row| visited.push((pos, row)));
        assert!(visited.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(visited.iter().all(|&(pos, _)| pos < s.padded_len()));
        assert!(visited.iter().all(|&(_, row)| row < s.rows()));
        assert_eq!(visited.len(), s.nnz(), "exactly the padding is unmapped");
    }

    #[test]
    fn complete_rows_monotone() {
        let s = sell(100);
        let mut last = 0;
        for pos in (0..=s.padded_len()).step_by(64) {
            let done = s.complete_rows(pos);
            assert!(done >= last);
            last = done;
        }
        assert_eq!(s.complete_rows(s.padded_len()), 100);
    }
}

#[cfg(test)]
mod behaviour_tests {
    use super::*;
    use nmpic_core::AdapterConfig;
    use nmpic_sparse::gen::banded_fem;

    #[test]
    fn tile_entries_follow_l2_partitioning() {
        let cfg = PackConfig::default();
        // 384 kB / 6 arrays / 8 B = 8192 entries.
        assert_eq!(cfg.tile_entries(), 8192);
        let small = PackConfig {
            l2_bytes: 96 * 1024,
            ..PackConfig::default()
        };
        assert_eq!(small.tile_entries(), 2048);
        // A batch of 4 splits the L2 into 4 + 2·4 = 12 arrays.
        assert_eq!(cfg.tile_entries_batched(4), 384 * 1024 / 12 / 8);
        assert_eq!(cfg.tile_entries_batched(1), cfg.tile_entries());
    }

    #[test]
    fn smaller_l2_means_more_tiles_but_same_result() {
        let m = banded_fem(1024, 10, 48, 21);
        let big = run_pack_spmv(&m, AdapterConfig::mlp(256));
        let small = run_pack_tuned(
            &m,
            AdapterConfig::mlp(256),
            PackConfig {
                l2_bytes: 48 * 1024,
                ..PackConfig::default()
            },
        );
        assert!(big.verified && small.verified);
        // Smaller tiles lose some overlap; they must not be faster by a
        // meaningful margin.
        assert!(small.cycles as f64 > 0.9 * big.cycles as f64);
    }

    #[test]
    fn compute_bound_vpc_hides_adapter_differences() {
        // A very slow VPC (0.1 elem/cycle) makes compute dominate: the
        // coalescer can no longer speed things up much.
        let m = banded_fem(1024, 10, 48, 22);
        let slow = |adapter| {
            run_pack_tuned(
                &m,
                adapter,
                PackConfig {
                    compute_elems_per_cycle: 0.1,
                    ..PackConfig::default()
                },
            )
        };
        let p0 = slow(AdapterConfig::mlp_nc());
        let p256 = slow(AdapterConfig::mlp(256));
        let gain = p0.cycles as f64 / p256.cycles as f64;
        assert!(
            gain < 1.3,
            "compute-bound: coalescer gain should collapse, got {gain:.2}"
        );
        // While at the default compute rate the gain is large.
        let fast0 = run_pack_spmv(&m, AdapterConfig::mlp_nc());
        let fast256 = run_pack_spmv(&m, AdapterConfig::mlp(256));
        assert!(fast0.cycles as f64 / fast256.cycles as f64 > 2.0);
    }

    #[test]
    fn indir_cycles_bounded_by_runtime() {
        let m = banded_fem(512, 8, 32, 23);
        for adapter in [AdapterConfig::mlp_nc(), AdapterConfig::mlp(256)] {
            let r = run_pack_spmv(&m, adapter);
            assert!(r.indir_cycles <= r.cycles);
            assert!(r.indir_cycles > 0);
        }
    }

    #[test]
    fn gflops_scales_with_speedup() {
        let m = banded_fem(1024, 10, 48, 24);
        let p0 = run_pack_spmv(&m, AdapterConfig::mlp_nc());
        let p256 = run_pack_spmv(&m, AdapterConfig::mlp(256));
        let ratio = p256.gflops() / p0.gflops();
        let speedup = p256.speedup_over(&p0);
        assert!((ratio - speedup).abs() < 1e-9, "same nnz, so equal");
    }
}
