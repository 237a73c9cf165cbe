//! The baseline vector processor system: a 1 MiB LLC between the VPC and
//! the memory controller, running **naive CSR SpMV with coupled indirect
//! access** (paper Section III).
//!
//! The model follows the paper's description: no prefetcher, so every
//! stream (row pointers, column indices, values) is demand-fetched
//! through the LLC, and the vector gather is executed element-wise by the
//! VLSU, coupled with the arithmetic. Execution is strip-mined into
//! 32-element chunks (one vector register group): fetch the chunk's index
//! and value lines, then issue gathers at the VLSU's indexed-load rate,
//! then accumulate.
//!
//! The executor visits only the cycles in which the core or the channel
//! can act. Each of its three wait loops (line fetch, gather, result
//! drain) ends a cycle in which the core has nothing to offer by jumping
//! to the earliest of the channel's [`ChannelPort::next_event`], the next
//! gather issue slot and the oldest LLC-hit completion. Debug builds
//! re-tick the channel through every skipped span and assert that it
//! stayed quiet.

use std::collections::VecDeque;
use std::ops::Range;

use nmpic_mem::{BackendConfig, Cache, CacheConfig, ChannelPort, Memory, WideRequest, BLOCK_BYTES};
use nmpic_sim::{Cycle, SimClock};
use nmpic_sparse::Csr;

use crate::cost::{line_of, ChannelModel, LINE};
use crate::engine::{issue_write_back, Executor, PlanFacts, ValueKernel};
use crate::report::IterReport;

/// Configuration of the baseline system.
#[derive(Debug, Clone)]
pub struct BaseConfig {
    /// LLC geometry (paper: 1 MiB, 8-way, 64 B lines).
    pub llc: CacheConfig,
    /// LLC hit latency in cycles (the LLC sits behind the VPC's AXI port,
    /// so even hits pay a round trip).
    pub llc_hit_latency: u64,
    /// Cycles between successive indexed-load (gather) issues — Ara's
    /// VLSU computes gather addresses element-serially.
    pub gather_issue_interval: u64,
    /// Miss status holding registers (outstanding line fills).
    pub mshrs: usize,
    /// VLSU outstanding element loads: every gather, hit or miss, holds a
    /// slot from issue to data return.
    pub vlsu_outstanding: usize,
    /// Strip-mine chunk length (vector elements per iteration); must be
    /// positive.
    pub chunk: usize,
    /// MAC throughput (elements per cycle, 16 lanes); must be positive.
    pub macs_per_cycle: usize,
    /// Fixed cycles per matrix row for the coupled scalar work: row
    /// pointer reads, `vsetvl`, and the row reduction.
    pub row_overhead_cycles: u64,
}

impl Default for BaseConfig {
    fn default() -> Self {
        Self {
            llc: CacheConfig::paper_llc(),
            llc_hit_latency: 40,
            gather_issue_interval: 5,
            mshrs: 8,
            vlsu_outstanding: 8,
            chunk: 32,
            macs_per_cycle: 16,
            row_overhead_cycles: 16,
        }
    }
}

impl BaseConfig {
    /// The strip-mined chunks of an `nnz`-element stream, in order: the
    /// one chunking rule the simulator and the model both follow.
    fn chunks(&self, nnz: usize) -> impl Iterator<Item = Range<usize>> {
        let chunk = self.chunk;
        (0..nnz)
            .step_by(chunk)
            .map(move |k0| k0..(k0 + chunk).min(nnz))
    }
}

/// One miss status holding register: a line fill on its way from DRAM.
#[derive(Debug, Clone, Copy)]
struct Mshr {
    line: u64,
    /// Gathers merged into this fill (gather phase).
    waiters: usize,
    /// The line belongs to the index or row-pointer stream (fetch phase).
    is_idx: bool,
}

/// Frees the MSHR holding `line` and returns it.
fn retire(mshrs: &mut Vec<Mshr>, line: u64) -> Option<Mshr> {
    let i = mshrs.iter().position(|m| m.line == line)?;
    Some(mshrs.swap_remove(i))
}

/// Ends the current cycle of one of the baseline's wait loops. `core` is
/// the cycle of the core's own next event, `None` when it waits on the
/// channel alone. When the core acts next cycle this is a tick; otherwise
/// the clock jumps to the earlier of `core` and the channel's next event
/// (a channel that never acts again is a deadlock, which the clock's
/// watchdog reports).
fn end_cycle(clk: &mut SimClock, chan: &mut dyn ChannelPort, core: Option<Cycle>) {
    let next = clk.now() + 1;
    if core.is_some_and(|t| t <= next) {
        clk.tick();
        return;
    }
    let port = chan.next_event();
    clk.advance_to(core.into_iter().chain(port).min().unwrap_or(Cycle::MAX));
    // The checked skip: ticking the channel through the span must change
    // nothing that the skip left out.
    #[cfg(debug_assertions)]
    for c in next..clk.now() {
        chan.tick(c);
        assert!(
            chan.pop_response(c).is_none(),
            "a response appeared at cycle {c}, inside a skip to {}",
            clk.now()
        );
        assert_eq!(chan.next_event(), port, "next event moved at cycle {c}");
    }
}

/// Memory footprint of a baseline plan's image (all five arrays plus
/// slack), rounded to a power of two.
fn base_memory_size(csr: &Csr) -> usize {
    let need = 4 * (csr.rows() as u64 + 1)
        + 12 * csr.nnz() as u64
        + 8 * (csr.cols() + csr.rows()) as u64
        + 8192;
    (need.next_multiple_of(BLOCK_BYTES as u64) as usize).next_power_of_two()
}

/// The baseline system's prepared plan: matrix image laid out in a warm
/// channel, LLC allocated once.
pub(crate) struct BasePlan {
    cfg: BaseConfig,
    /// The closed-form view of the backend `chan` is built from.
    memory: ChannelModel,
    csr: Csr,
    chan: Box<dyn ChannelPort>,
    /// DRAM home locations of the five arrays, read by the simulator and
    /// by the model that replays its accesses.
    layout: BaseLayout,
    /// Whether the matrix image is in the channel's memory. The first
    /// `simulate` writes it; the model reads addresses only, so an
    /// analytic plan never touches those pages.
    image_written: bool,
    /// Plan-resident (rather than per-call) so the hot path reallocates
    /// nothing; see [`Executor::cold_start`] for its lifecycle.
    llc: Cache,
}

impl BasePlan {
    /// Lays the matrix image out in a channel built from `backend`.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix.
    pub(crate) fn prepare(csr: &Csr, cfg: BaseConfig, backend: &BackendConfig) -> Self {
        let mut chan = backend.build(Memory::new(base_memory_size(csr)));
        let layout = layout_base(chan.memory_mut(), csr);
        Self {
            llc: Cache::new(cfg.llc),
            cfg,
            memory: ChannelModel::of(backend),
            csr: csr.clone(),
            chan,
            layout,
            image_written: false,
        }
    }

    /// Writes the matrix image (row pointers, column indices, values)
    /// into the channel's memory unless an earlier pass did.
    fn write_image(&mut self) {
        if std::mem::replace(&mut self.image_written, true) {
            return;
        }
        let (mem, a) = (self.chan.memory_mut(), &self.layout);
        mem.write_u32_slice(a.ptr_base, self.csr.row_ptr());
        mem.write_u32_slice(a.idx_base, self.csr.col_idx());
        mem.write_f64_slice(a.val_base, self.csr.values());
    }

    /// Invalidates the LLC lines of the vector, which every pass
    /// rewrites (none are cached on a cold LLC).
    fn invalidate_x(&mut self) {
        let vec_base = self.layout.vec_base;
        self.llc
            .invalidate_range(vec_base, vec_base + 8 * self.csr.cols() as u64);
    }
}

/// No `timing_is_constant`: the LLC keeps matrix lines across `run_into`
/// calls, so a pass's report depends on what earlier passes cached, not
/// on the plan alone. The first `run_into` on a fresh plan finds a cold
/// LLC; only from the second on are the reports equal
/// (`crates/system/tests/replay.rs`).
impl Executor for BasePlan {
    fn facts(&self) -> PlanFacts {
        PlanFacts::of_csr("base".to_string(), &self.csr)
    }

    /// `run`/`run_batch` start from a cold LLC; across the vectors of a
    /// batch and the `run_into` calls of a solver the **matrix** lines
    /// stay warm — the reuse an `x ← f(A·x)` feedback loop produces.
    fn cold_start(&mut self) {
        self.llc.reset();
    }

    fn value_kernel(&self) -> ValueKernel<'_> {
        ValueKernel::Csr(&self.csr)
    }

    fn simulate(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
        assert_eq!(xs.len(), 1, "the baseline multiplies one vector per pass");
        self.write_image();
        self.invalidate_x();
        exec_base(self, xs[0], ys[0])
    }

    /// The model replays the access stream against the same stateful
    /// LLC, so it is evaluated per vector.
    fn model(&mut self, vectors: usize) -> IterReport {
        assert_eq!(vectors, 1, "the baseline multiplies one vector per pass");
        self.invalidate_x();
        base_cost(
            &self.cfg,
            &self.memory,
            &self.layout,
            &self.csr,
            &mut self.llc,
        )
    }
}

/// DRAM base addresses of the baseline arrays (the plan's layout).
#[derive(Debug, Clone, Copy)]
struct BaseLayout {
    ptr_base: u64,
    idx_base: u64,
    val_base: u64,
    vec_base: u64,
    res_base: u64,
}

/// Allocates the baseline arrays in `mem`. The matrix image is written
/// by the first simulated pass ([`BasePlan::write_image`]), the vector
/// per pass.
fn layout_base(mem: &mut Memory, csr: &Csr) -> BaseLayout {
    assert!(csr.nnz() > 0, "empty matrix");
    BaseLayout {
        ptr_base: mem.alloc_array(csr.rows() as u64 + 1, 4),
        idx_base: mem.alloc_array(csr.nnz() as u64, 4),
        val_base: mem.alloc_array(csr.nnz() as u64, 8),
        vec_base: mem.alloc_array(csr.cols() as u64, 8),
        res_base: mem.alloc_array(csr.rows() as u64, 8),
    }
}

/// Executes one baseline SpMV against an already written memory image:
/// resets the channel (clock and traffic counter start at 0) and writes
/// `x` into its home. The result is accumulated into the
/// caller's `y` buffer (overwritten, not accumulated into) in row-major
/// element order — byte-identical to [`Csr::spmv`] — so a solver loop
/// reuses one preallocated buffer instead of receiving a fresh vector
/// per call.
fn exec_base(plan: &mut BasePlan, x: &[f64], y: &mut [f64]) -> IterReport {
    let (chan, csr, cfg, llc) = (&mut *plan.chan, &plan.csr, &plan.cfg, &mut plan.llc);
    assert!(csr.nnz() > 0, "empty matrix");
    let nnz = csr.nnz();
    let rows = csr.rows();
    assert_eq!(y.len(), rows, "result buffer length must equal rows");
    y.fill(0.0);
    let BaseLayout {
        vec_base, res_base, ..
    } = plan.layout;
    chan.reset_run_state();
    chan.memory_mut().write_f64_slice(vec_base, x);
    let values = csr.values();
    let mut acc_row = 0usize;

    let mut clk = SimClock::new("baseline SpMV", 2_000 + nnz as u64 * 600 + rows as u64 * 40);
    let mut indir_cycles: u64 = 0;
    let mut pending_writes: VecDeque<WideRequest> = VecDeque::new();
    // Scratch for the whole pass: a chunk's missed stream lines as
    // `(line, is_idx)`, the MSHRs, and the completion cycles of LLC-hit
    // gathers — created in `now + llc_hit_latency` order, so a FIFO.
    let mut fetch: Vec<(u64, bool)> = Vec::with_capacity(2 * cfg.chunk + 1);
    let mut mshrs: Vec<Mshr> = Vec::with_capacity(cfg.mshrs);
    let mut hits: VecDeque<Cycle> = VecDeque::with_capacity(cfg.vlsu_outstanding);
    let mut rows_retired = 0usize;
    let col_idx = csr.col_idx();

    for Range { start: k0, end: k1 } in cfg.chunks(nnz) {
        // Each phase waits for its own fills, so none is left over.
        debug_assert!(mshrs.is_empty() && hits.is_empty());

        // --- Phase 1: demand-fetch this chunk's index/value/row-ptr lines
        // (row pointers consumed as rows advance: cheap, sequential).
        let phase_start = clk.now();
        stream_lines(llc, &plan.layout, k0, k1, rows_retired, &mut fetch);

        let mut idx_done_at = clk.now();
        let mut next_fetch = 0usize;
        while next_fetch < fetch.len() || !mshrs.is_empty() {
            let now = clk.now();
            // Issue under the MSHR limit.
            while next_fetch < fetch.len() && mshrs.len() < cfg.mshrs {
                let (line, is_idx) = fetch[next_fetch];
                if chan
                    .try_request(now, WideRequest::read(line, line))
                    .is_err()
                {
                    break;
                }
                mshrs.push(Mshr {
                    line,
                    waiters: 0,
                    is_idx,
                });
                next_fetch += 1;
            }
            issue_write_back(chan, &mut pending_writes, now);
            chan.tick(now);
            while let Some(resp) = chan.pop_response(now) {
                llc.fill(resp.addr);
                if retire(&mut mshrs, resp.addr).is_some_and(|m| m.is_idx) {
                    idx_done_at = now;
                }
            }
            // The core acts next cycle when it can offer a line or a
            // write, or when the phase is over; else it waits on a fill.
            let offers =
                !pending_writes.is_empty() || (next_fetch < fetch.len() && mshrs.len() < cfg.mshrs);
            let over = next_fetch == fetch.len() && mshrs.is_empty();
            end_cycle(&mut clk, chan, (offers || over).then_some(now + 1));
        }
        indir_cycles += idx_done_at.saturating_sub(phase_start);

        // --- Phase 2: element-wise gather, coupled with the access stream.
        let gather_start = clk.now();
        let mut next_issue = gather_start;
        let mut issued = 0usize;
        let total = k1 - k0;
        let mut done = 0usize;
        while done < total {
            let now = clk.now();
            // Issue the next gather at the VLSU's indexed-load rate; every
            // outstanding gather (hit or miss) holds a VLSU slot until its
            // data returns. A miss that finds every MSHR busy blocks until
            // a fill returns.
            let mut blocked = false;
            if issued < total && now >= next_issue && issued - done < cfg.vlsu_outstanding {
                let addr = vec_base + 8 * col_idx[k0 + issued] as u64;
                let line = line_of(addr);
                let accepted = if llc.access(addr) {
                    hits.push_back(now + cfg.llc_hit_latency);
                    true
                } else if let Some(m) = mshrs.iter_mut().find(|m| m.line == line) {
                    // Merge with the in-flight fill.
                    m.waiters += 1;
                    true
                } else if mshrs.len() < cfg.mshrs {
                    let sent = chan.try_request(now, WideRequest::read(line, line)).is_ok();
                    if sent {
                        mshrs.push(Mshr {
                            line,
                            waiters: 1,
                            is_idx: false,
                        });
                    }
                    sent
                } else {
                    blocked = true;
                    false
                };
                if accepted {
                    issued += 1;
                    next_issue = now + cfg.gather_issue_interval;
                }
            }
            issue_write_back(chan, &mut pending_writes, now);
            chan.tick(now);
            let mut filled = false;
            while let Some(resp) = chan.pop_response(now) {
                llc.fill(resp.addr);
                done += retire(&mut mshrs, resp.addr).map_or(0, |m| m.waiters);
                filled = true;
            }
            while hits.front().is_some_and(|&t| t <= now) {
                hits.pop_front();
                done += 1;
            }
            // The core's next event: next cycle when it offers a write or
            // the phase is over, else the next gather issue slot (unless
            // the gather waits for a slot or a fill) or LLC-hit completion.
            let core = if done == total || !pending_writes.is_empty() {
                Some(now + 1)
            } else {
                let can_issue =
                    issued < total && issued - done < cfg.vlsu_outstanding && (filled || !blocked);
                let gather = can_issue.then_some(next_issue);
                gather.into_iter().chain(hits.front().copied()).min()
            };
            end_cycle(&mut clk, chan, core);
        }
        indir_cycles += clk.now() - gather_start;

        // --- Phase 3: MACs (coupled, so they serialize after the gather).
        clk.advance((total as u64).div_ceil(cfg.macs_per_cycle as u64));
        // Accumulate the chunk's products in row-major element order —
        // the same floating-point addition sequence as `Csr::spmv`.
        for k in k0..k1 {
            while csr.row_ptr()[acc_row + 1] as usize <= k {
                acc_row += 1;
            }
            y[acc_row] += values[k] * x[col_idx[k] as usize];
        }

        // Retire rows whose nonzeros are fully processed: each row costs
        // the coupled scalar overhead (row pointers, vsetvl, reduction).
        // Results are written back one 64 B line (8 rows) at a time.
        while rows_retired < rows && csr.row_ptr()[rows_retired + 1] as usize <= k1 {
            rows_retired += 1;
            clk.advance(cfg.row_overhead_cycles);
            if rows_retired.is_multiple_of(8) || rows_retired == rows {
                let line = line_of(res_base + 8 * (rows_retired as u64 - 1));
                pending_writes.push_back(WideRequest::write(line, 0, [0u8; BLOCK_BYTES]));
            }
        }
    }

    // Drain result writes.
    while !pending_writes.is_empty() || !chan.is_idle() {
        let now = clk.now();
        issue_write_back(chan, &mut pending_writes, now);
        chan.tick(now);
        while chan.pop_response(now).is_some() {}
        // The core acts next cycle when it offers a write or the drain is
        // over; else it waits on the channel.
        let acts = !pending_writes.is_empty() || chan.is_idle();
        end_cycle(&mut clk, chan, acts.then_some(now + 1));
    }

    IterReport {
        cycles: clk.now(),
        indir_cycles,
        offchip_bytes: chan.data_bytes(),
    }
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
fn stream_lines(
    llc: &mut Cache,
    a: &BaseLayout,
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

/// The baseline's closed-form cost: one SpMV on the image laid out at
/// `a`, replaying the executor's per-chunk LLC access order
/// (index/value/row-pointer stream lines, then per-element vector
/// gathers) against the plan's `llc` — the same [`Cache`] state machine
/// [`exec_base`] drives, so batch warmth and solver-loop reuse carry
/// over exactly when the caller manages `llc` the same way (reset per
/// batch, vector-range invalidation between runs).
fn base_cost(
    cfg: &BaseConfig,
    chan: &ChannelModel,
    a: &BaseLayout,
    csr: &Csr,
    llc: &mut Cache,
) -> IterReport {
    let (row_ptr, col_idx) = (csr.row_ptr(), csr.col_idx());
    let rows = csr.rows();
    let line_stream = chan.stream_cycles(LINE);
    let line_scatter = chan.scatter_cycles(LINE);
    let mut cycles = 0.0f64;
    let mut indir_cycles = 0.0f64;
    let mut read_lines = 0u64;
    let mut rows_retired = 0usize;
    let mut last_write_line = u64::MAX;
    let mut write_lines = 0u64;
    // Per-chunk scratch, allocated once per replay.
    let mut fetch: Vec<(u64, bool)> = Vec::new();
    let mut miss_lines: Vec<u64> = Vec::new();

    for Range { start: k0, end: k1 } in cfg.chunks(csr.nnz()) {
        let n = (k1 - k0) as u64;

        // Phase 1: stream-line fetch, the executor's own walk.
        stream_lines(llc, a, k0, k1, rows_retired, &mut fetch);
        for &(l, _) in &fetch {
            llc.fill(l);
        }
        let misses = fetch.len() as u64;
        read_lines += misses;
        if misses > 0 {
            cycles += chan.latency as f64 + misses as f64 * line_stream;
            // In-order responses: the indirect share runs until the
            // last index-stream line returns.
            if let Some(last_idx) = fetch.iter().rposition(|&(_, idx)| idx) {
                indir_cycles += chan.latency as f64 + (last_idx as f64 + 1.0) * line_stream;
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
        let issue_bound = n as f64 * cfg.gather_issue_interval as f64;
        let miss_bound = if vec_miss > 0 {
            chan.latency as f64 + vec_miss as f64 * line_scatter
        } else {
            0.0
        };
        let t2 = issue_bound.max(miss_bound) + cfg.llc_hit_latency as f64;
        cycles += t2;
        indir_cycles += t2;

        // Phase 3: MACs + row retirement + result-line writes.
        cycles += (n as f64 / cfg.macs_per_cycle as f64).ceil();
        while rows_retired < rows && row_ptr[rows_retired + 1] as usize <= k1 {
            rows_retired += 1;
            cycles += cfg.row_overhead_cycles as f64;
            if rows_retired.is_multiple_of(8) || rows_retired == rows {
                let line = line_of(a.res_base + 8 * (rows_retired as u64 - 1));
                if line != last_write_line {
                    last_write_line = line;
                    write_lines += 1;
                }
            }
        }
    }

    // Result writes drain opportunistically alongside the read phases;
    // only the final line's flush lands on the critical path.
    cycles += chan.latency as f64;
    IterReport {
        cycles: cycles.round() as u64,
        indir_cycles: indir_cycles.round() as u64,
        offchip_bytes: (read_lines + write_lines) * LINE,
    }
}

/// One golden-vector SpMV on a fresh baseline plan tuned by `cfg` over
/// `backend` — the in-module tests' way into the datapath.
#[cfg(test)]
fn run_base_spmv_on(csr: &Csr, cfg: &BaseConfig, backend: BackendConfig) -> crate::RunReport {
    let engine = crate::SpmvEngine::builder()
        .backend(backend)
        .system(crate::SystemKind::Base)
        .base_config(cfg.clone())
        .build();
    crate::engine::run_golden(engine.prepare(csr))
}

/// [`run_base_spmv_on`] on one HBM channel, the paper's memory.
#[cfg(test)]
fn run_base_spmv(csr: &Csr, cfg: &BaseConfig) -> crate::RunReport {
    run_base_spmv_on(csr, cfg, BackendConfig::hbm())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_sparse::gen::{banded_fem, random_uniform};

    #[test]
    fn base_runs_and_reports_sane_metrics() {
        let m = banded_fem(512, 8, 32, 3);
        let r = run_base_spmv(&m, &BaseConfig::default());
        assert!(r.verified);
        assert!(r.cycles > m.nnz() as u64, "at least one cycle per nnz");
        assert!(r.indir_cycles <= r.cycles);
        assert!(r.offchip_bytes > 0);
        assert!(r.traffic_ratio() > 0.2, "ratio {}", r.traffic_ratio());
    }

    #[test]
    fn llc_keeps_traffic_near_ideal_for_local_matrices() {
        // Banded: vector reuse fits easily in 1 MiB → little redundancy.
        let m = banded_fem(2048, 8, 64, 7);
        let r = run_base_spmv(&m, &BaseConfig::default());
        assert!(
            r.traffic_ratio() < 2.0,
            "LLC should keep base traffic low, got {:.2}",
            r.traffic_ratio()
        );
    }

    #[test]
    fn utilization_is_low_as_in_the_paper() {
        let m = banded_fem(2048, 16, 128, 9);
        let r = run_base_spmv(&m, &BaseConfig::default());
        let util = r.bw_utilization(32.0);
        assert!(
            util < 0.25,
            "coupled baseline must underuse DRAM, got {:.2}",
            util
        );
    }

    #[test]
    fn random_matrix_is_slower_than_banded() {
        let banded = banded_fem(1024, 8, 32, 1);
        let random = random_uniform(1024, 1024, 8, 1);
        let rb = run_base_spmv(&banded, &BaseConfig::default());
        let rr = run_base_spmv(&random, &BaseConfig::default());
        let per_nnz_b = rb.cycles as f64 / rb.nnz as f64;
        let per_nnz_r = rr.cycles as f64 / rr.nnz as f64;
        assert!(
            per_nnz_r > per_nnz_b,
            "random {per_nnz_r:.2} should cost more cycles/nnz than banded {per_nnz_b:.2}"
        );
    }

    #[test]
    fn more_mshrs_do_not_hurt() {
        let m = random_uniform(512, 4096, 8, 2);
        let few = run_base_spmv(
            &m,
            &BaseConfig {
                mshrs: 2,
                ..BaseConfig::default()
            },
        );
        let many = run_base_spmv(
            &m,
            &BaseConfig {
                mshrs: 16,
                ..BaseConfig::default()
            },
        );
        assert!(many.cycles <= few.cycles);
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_is_rejected_by_the_builder() {
        let _ = crate::SpmvEngine::builder().base_config(BaseConfig {
            chunk: 0,
            ..BaseConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "MAC throughput must be positive")]
    fn zero_mac_throughput_is_rejected_by_the_builder() {
        let _ = crate::SpmvEngine::builder().base_config(BaseConfig {
            macs_per_cycle: 0,
            ..BaseConfig::default()
        });
    }

    /// The builder rejects every pack compute rate that is not finite
    /// and positive; each case is its own test because each panics.
    fn pack_rate(rate: f64) {
        let _ = crate::SpmvEngine::builder().pack_config(crate::PackConfig {
            compute_elems_per_cycle: rate,
            ..crate::PackConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "pack compute rate must be finite and positive")]
    fn zero_pack_rate_is_rejected_by_the_builder() {
        pack_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "pack compute rate must be finite and positive")]
    fn nan_pack_rate_is_rejected_by_the_builder() {
        pack_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "pack compute rate must be finite and positive")]
    fn negative_pack_rate_is_rejected_by_the_builder() {
        pack_rate(-1.0);
    }

    #[test]
    #[should_panic(expected = "pack compute rate must be finite and positive")]
    fn infinite_pack_rate_is_rejected_by_the_builder() {
        pack_rate(f64::INFINITY);
    }

    #[test]
    fn base_cost_scales_with_work_and_tracks_traffic() {
        // 64 rows × 8 nnz, sequential columns: streams dominate.
        let rows = 64usize;
        let per = 8usize;
        let row_ptr: Vec<u32> = (0..=rows).map(|i| (i * per) as u32).collect();
        let col_idx: Vec<u32> = (0..rows * per).map(|k| (k % rows) as u32).collect();
        let csr = Csr::from_parts(rows, rows, row_ptr, col_idx, vec![1.0; rows * per]).unwrap();
        let a = BaseLayout {
            ptr_base: 0,
            idx_base: 4096,
            val_base: 8192,
            vec_base: 16384,
            res_base: 32768,
        };
        // Chunks of 32, LLC hits in 40 cycles, a gather every 5 cycles,
        // 16 MACs per cycle, 16 cycles per row.
        let p = BaseConfig::default();
        let chan = ChannelModel::of(&BackendConfig::ideal());
        let mut llc = Cache::new(CacheConfig::paper_llc());
        let cold = base_cost(&p, &chan, &a, &csr, &mut llc);
        assert!(cold.cycles > 0);
        assert!(cold.indir_cycles <= cold.cycles);
        // Matrix stream ≈ 12 B/nnz + vector + result lines.
        let nnz = (rows * per) as u64;
        assert!(cold.offchip_bytes as f64 >= 12.0 * nnz as f64 * 0.9);
        // A second pass with a warm LLC moves far less data (only the
        // vector range was invalidated in a batch — here nothing).
        let warm = base_cost(&p, &chan, &a, &csr, &mut llc);
        assert!(warm.offchip_bytes < cold.offchip_bytes / 4);
        assert!(warm.cycles < cold.cycles);
    }

    /// The per-element walk [`stream_lines`] replaces: one LLC lookup per
    /// access, in access order, each miss fetched once.
    fn stream_lines_per_element(
        llc: &mut Cache,
        a: &BaseLayout,
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
            let a = BaseLayout {
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
}

#[cfg(test)]
mod behaviour_tests {
    use super::*;
    use nmpic_sparse::gen::banded_fem;

    #[test]
    fn slower_gather_issue_slows_the_baseline() {
        let m = banded_fem(512, 8, 32, 31);
        let fast = run_base_spmv(
            &m,
            &BaseConfig {
                gather_issue_interval: 1,
                ..BaseConfig::default()
            },
        );
        let slow = run_base_spmv(
            &m,
            &BaseConfig {
                gather_issue_interval: 8,
                ..BaseConfig::default()
            },
        );
        assert!(slow.cycles > fast.cycles);
    }

    #[test]
    fn tiny_llc_increases_traffic() {
        // Large-window mesh so vector reuse needs real capacity.
        let m = nmpic_sparse::gen::mesh(4096, 8, 4000, 32);
        let big = run_base_spmv(&m, &BaseConfig::default());
        let tiny = run_base_spmv(
            &m,
            &BaseConfig {
                llc: CacheConfig {
                    size_bytes: 8 * 1024,
                    ways: 8,
                    line_bytes: 64,
                },
                ..BaseConfig::default()
            },
        );
        assert!(
            tiny.offchip_bytes > big.offchip_bytes,
            "an 8 kB LLC must refetch vector lines: {} vs {}",
            tiny.offchip_bytes,
            big.offchip_bytes
        );
    }

    /// Short rows retire several result lines per chunk, so writes queue
    /// up behind each other and, on a two-entry controller queue, get
    /// refused. A wait loop must not skip while one is pending. The
    /// `(cycles, indir_cycles, offchip_bytes)` literals were recorded from
    /// the per-cycle loop that preceded the skipping one.
    #[test]
    fn pending_result_writes_keep_the_per_cycle_counts() {
        use nmpic_mem::HbmConfig;
        use nmpic_sparse::gen::random_uniform;
        let q2 = BackendConfig {
            hbm: HbmConfig {
                queue_depth: 2,
                ..HbmConfig::default()
            },
            ..BackendConfig::hbm()
        };
        let cases = [
            ("diag", "ideal", 32, (47689, 14702, 61440)),
            ("diag", "ideal", 64, (46441, 13478, 59392)),
            ("diag", "hbm", 32, (49678, 16659, 61440)),
            ("diag", "hbm", 64, (49521, 16518, 59392)),
            ("diag", "hbm q2", 32, (52091, 19070, 61440)),
            ("diag", "hbm q2", 64, (50788, 17783, 59392)),
            ("short", "ideal", 32, (44889, 27880, 67520)),
            ("short", "ideal", 64, (41964, 25252, 67392)),
            ("short", "hbm", 32, (47846, 30868, 67520)),
            ("short", "hbm", 64, (46982, 30290, 67392)),
            ("short", "hbm q2", 32, (52391, 34916, 67520)),
            ("short", "hbm q2", 64, (50331, 33639, 67392)),
        ];
        for (matrix, backend, chunk, want) in cases {
            let m = match matrix {
                "diag" => random_uniform(2048, 2048, 1, 3),
                _ => banded_fem(1024, 2, 8, 4),
            };
            let cfg = BaseConfig {
                chunk,
                ..BaseConfig::default()
            };
            let port = match backend {
                "ideal" => BackendConfig::ideal(),
                "hbm" => BackendConfig::hbm(),
                _ => q2.clone(),
            };
            let r = run_base_spmv_on(&m, &cfg, port);
            assert!(r.verified);
            let got = (r.cycles, r.indir_cycles, r.offchip_bytes);
            assert_eq!(got, want, "{matrix} on {backend} with chunk {chunk}");
        }
    }

    #[test]
    fn row_overhead_contributes_per_row() {
        let m = banded_fem(2048, 4, 16, 33);
        let none = run_base_spmv(
            &m,
            &BaseConfig {
                row_overhead_cycles: 0,
                ..BaseConfig::default()
            },
        );
        let heavy = run_base_spmv(
            &m,
            &BaseConfig {
                row_overhead_cycles: 50,
                ..BaseConfig::default()
            },
        );
        let delta = heavy.cycles - none.cycles;
        assert!(
            delta >= 50 * 2048,
            "50 cycles per row over 2048 rows, got {delta}"
        );
    }
}
