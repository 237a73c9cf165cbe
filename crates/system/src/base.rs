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

use nmpic_mem::{BackendConfig, Cache, CacheConfig, ChannelPort, Memory, WideRequest, BLOCK_BYTES};
use nmpic_model::BaseAddrs;
use nmpic_sim::{Cycle, SimClock};
use nmpic_sparse::Csr;

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
    /// Strip-mine chunk length (vector elements per iteration).
    pub chunk: usize,
    /// MAC throughput (elements per cycle, 16 lanes).
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
    backend: BackendConfig,
    csr: Csr,
    chan: Box<dyn ChannelPort>,
    /// DRAM home locations of the five arrays — one type for the
    /// simulator and the analytic model that replays its accesses.
    layout: BaseAddrs,
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
            backend: backend.clone(),
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
        let cfg = &self.cfg;
        let params = nmpic_model::BaseParams {
            chunk: cfg.chunk,
            llc_hit_latency: cfg.llc_hit_latency,
            gather_issue_interval: cfg.gather_issue_interval,
            macs_per_cycle: cfg.macs_per_cycle as u64,
            row_overhead_cycles: cfg.row_overhead_cycles,
            chan: nmpic_model::ChannelModel::of(&self.backend),
        };
        let cost = nmpic_model::base_cost(
            &params,
            &self.layout,
            self.csr.row_ptr(),
            self.csr.col_idx(),
            &mut self.llc,
        );
        IterReport::modelled(&cost)
    }
}

/// Allocates the baseline arrays in `mem`. The matrix image is written
/// by the first simulated pass ([`BasePlan::write_image`]), the vector
/// per pass.
fn layout_base(mem: &mut Memory, csr: &Csr) -> BaseAddrs {
    assert!(csr.nnz() > 0, "empty matrix");
    BaseAddrs {
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
    let BaseAddrs {
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

    let mut k0 = 0usize;
    while k0 < nnz {
        let k1 = (k0 + cfg.chunk).min(nnz);
        // Each phase waits for its own fills, so none is left over.
        debug_assert!(mshrs.is_empty() && hits.is_empty());

        // --- Phase 1: demand-fetch this chunk's index/value/row-ptr lines
        // (row pointers consumed as rows advance: cheap, sequential).
        let phase_start = clk.now();
        nmpic_model::stream_lines(llc, &plan.layout, k0, k1, rows_retired, &mut fetch);

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
                let line = addr & !(BLOCK_BYTES as u64 - 1);
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
                let line = (res_base + 8 * (rows_retired as u64 - 1)) & !(BLOCK_BYTES as u64 - 1);
                pending_writes.push_back(WideRequest::write(line, 0, [0u8; BLOCK_BYTES]));
            }
        }
        k0 = k1;
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
