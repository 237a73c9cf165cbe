//! The AXI-Pack indirect stream unit (Fig. 2a): index fetcher, index
//! splitter, element request generator, request coalescer, element packer,
//! and the DRAM request arbiter.
//!
//! The unit executes one AXI-Pack burst at a time. For an indirect burst:
//!
//! 1. the **index fetcher** issues wide DRAM reads covering the index
//!    array, throttled by index-queue credits;
//! 2. the **index splitter** deals arriving indices element-round-robin
//!    into the N lane queues (stream position `k` → lane `k mod N`);
//! 3. the **element request generator** turns lane-queue indices into
//!    narrow element requests (`elem_base + idx × elem_size`);
//! 4. the **request coalescer** merges them into wide DRAM accesses
//!    ([`crate::Coalescer`]); in `MLPnc` each request issues its own wide
//!    access instead — the element path is fixed when the unit is built;
//! 5. the **element packer** restores stream order and packs elements
//!    densely into 512 b beats.
//!
//! Index and contiguous-burst fetches go through one block reader
//! (`fetcher.rs`): a cursor over the 64 B blocks covering a packed array,
//! which the scatter unit also reads its indices with. A contiguous burst
//! streams its blocks straight into the packer; strided requests feed the
//! element path directly. Index and element widths come from the
//! [`AdapterConfig`] alone: `begin` rejects indirect and strided bursts of
//! other widths, while contiguous bursts may use any.

mod arbiter;
mod fetcher;
mod packer;
mod reqgen;
mod splitter;

#[cfg(test)]
mod tests;

use nmpic_axi::{Beat, ElemSize, PackRequest, Packer};
use nmpic_mem::{ChannelPort, WideRequest, BLOCK_BYTES};
use nmpic_sim::{Cycle, Fifo, FifoBank, SimClock};

use crate::coalescer::CoalescerStats;
use crate::config::AdapterConfig;

pub(crate) use fetcher::BlockReader;
use reqgen::ElemPath;

/// Routing tag for index-fetch wide reads.
const TAG_IDX: u64 = 1;
/// Routing tag for element-fetch wide reads.
const TAG_ELEM: u64 = 2;
/// Routing tag for contiguous-burst wide reads.
const TAG_CONTIG: u64 = 3;

/// Cycle budget of one `count`-element burst, shared by
/// [`IndirectStreamUnit::run_burst`] and [`crate::ScatterUnit::run_burst`]:
/// a fixed part so tiny bursts survive cold-start DRAM latency, plus a
/// per-element allowance far above one DRAM round trip per element.
pub(crate) fn burst_cycle_budget(count: u64) -> Cycle {
    200_000 + count * 256
}

/// Error returned by [`IndirectStreamUnit::begin`] and
/// [`crate::ScatterUnit::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginError {
    /// A burst is still in flight; wait for [`IndirectStreamUnit::is_done`].
    Busy,
    /// The burst geometry is invalid (zero elements).
    EmptyBurst,
    /// The request's index or element width differs from the one the
    /// unit's [`AdapterConfig`] fixes (contiguous bursts may use any
    /// width).
    WidthMismatch {
        /// `"index"` or `"element"`.
        what: &'static str,
        /// The width in the unit's configuration.
        expected: ElemSize,
        /// The width in the request.
        requested: ElemSize,
    },
}

/// `Ok` when a request's `what` width is the configured one.
pub(crate) fn check_width(
    what: &'static str,
    expected: ElemSize,
    requested: ElemSize,
) -> Result<(), BeginError> {
    if expected == requested {
        return Ok(());
    }
    Err(BeginError::WidthMismatch {
        what,
        expected,
        requested,
    })
}

impl std::fmt::Display for BeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeginError::Busy => write!(f, "a burst is already in flight"),
            BeginError::EmptyBurst => write!(f, "burst describes zero elements"),
            BeginError::WidthMismatch {
                what,
                expected,
                requested,
            } => write!(
                f,
                "{what} width {requested} differs from the unit's configured {expected}"
            ),
        }
    }
}

impl std::error::Error for BeginError {}

/// Cumulative traffic and delivery statistics of the unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Elements delivered upstream (packed into beats).
    pub elements_delivered: u64,
    /// Upstream payload bytes (elements × element width).
    pub payload_bytes: u64,
    /// Wide reads issued for index fetching.
    pub idx_wide_reads: u64,
    /// Wide reads issued for element fetching (coalesced or not).
    pub elem_wide_reads: u64,
    /// Wide reads issued for contiguous bursts.
    pub contig_wide_reads: u64,
    /// 512 b beats emitted upstream.
    pub beats_emitted: u64,
}

impl AdapterStats {
    /// Downstream bytes spent fetching indices.
    pub fn idx_bytes(&self) -> u64 {
        self.idx_wide_reads * BLOCK_BYTES as u64
    }

    /// Downstream bytes spent fetching elements.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_wide_reads * BLOCK_BYTES as u64
    }

    /// The paper's *coalesce rate*: effective indirect payload over the
    /// data requested downstream for elements. 0.125 for `MLPnc`
    /// (8 B useful per 64 B access); above 1.0 when blocks are reused.
    pub fn coalesce_rate(&self) -> f64 {
        if self.elem_wide_reads == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.elem_bytes() as f64
        }
    }
}

/// The AXI-Pack adapter's indirect stream unit.
///
/// [`IndirectStreamUnit::run_burst`] runs one whole burst against a DRAM
/// channel. A system that interleaves the unit with other per-cycle work
/// (the pack system's VPC) drives the protocol underneath it directly:
/// [`IndirectStreamUnit::begin`], then [`IndirectStreamUnit::tick`] once
/// per cycle with the channel, draining beats with
/// [`IndirectStreamUnit::pop_beat`].
///
/// # Example
///
/// ```
/// use nmpic_core::{AdapterConfig, IndirectStreamUnit};
/// use nmpic_axi::{PackRequest, ElemSize};
/// use nmpic_mem::{IdealChannel, Memory};
///
/// let mut mem = Memory::new(1 << 16);
/// let idx_base = mem.alloc(4 * 4, 64);
/// let elem_base = mem.alloc(8 * 16, 64);
/// mem.write_u32_slice(idx_base, &[3, 0, 2, 3]);
/// for i in 0..16u64 { mem.write_u64(elem_base + 8 * i, 100 + i); }
///
/// let mut chan = IdealChannel::new(mem, 10, 2);
/// let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
/// let mut got = Vec::new();
/// let cycles = unit.run_burst(
///     &mut chan,
///     PackRequest::Indirect {
///         idx_base, idx_size: ElemSize::B4, count: 4, elem_base, elem_size: ElemSize::B8,
///     },
///     |beat| got.extend(beat.elements()),
/// ).unwrap();
/// assert_eq!(got, vec![103, 100, 102, 103]);
/// assert!(cycles > 10, "at least one DRAM round trip each for indices and elements");
/// ```
#[derive(Debug)]
pub struct IndirectStreamUnit {
    cfg: AdapterConfig,
    burst: Option<PackRequest>,
    /// `stats.elements_delivered` once the current burst is complete.
    burst_end: u64,

    // Index fetcher and contiguous fetch: one block reader, a request
    // queue each.
    reader: BlockReader,
    idx_outstanding: usize,
    idx_req_q: Fifo<WideRequest>,
    contig_req_q: Fifo<WideRequest>,

    // Index splitter.
    next_split_seq: u64,
    lane_q: FifoBank<(u64, u64)>,

    // Element request generation and the element path.
    next_gen_seq: u64,
    strided_next: u64,
    path: ElemPath,

    // Element packer.
    next_pack_seq: u64,
    packer: Packer,
    beats: Fifo<Beat>,

    // DRAM arbiter.
    arb_rr: usize,
    held_req: Option<WideRequest>,

    stats: AdapterStats,
}

impl IndirectStreamUnit {
    /// Creates an idle unit with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AdapterConfig) -> Self {
        cfg.assert_valid();
        Self {
            burst: None,
            burst_end: 0,
            reader: BlockReader::new(),
            idx_outstanding: 0,
            idx_req_q: Fifo::new("idx_req_q", 2),
            contig_req_q: Fifo::new("contig_req_q", 2),
            next_split_seq: 0,
            lane_q: FifoBank::new("lane_idx_q", cfg.lanes, cfg.idx_queue_depth),
            next_gen_seq: 0,
            strided_next: 0,
            path: ElemPath::new(&cfg),
            next_pack_seq: 0,
            packer: Packer::new(cfg.elem_size),
            beats: Fifo::new("beats", 2),
            arb_rr: 0,
            held_req: None,
            stats: AdapterStats::default(),
            cfg,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &AdapterConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> AdapterStats {
        self.stats
    }

    /// Coalescer statistics, when a coalescer is present.
    pub fn coalescer_stats(&self) -> Option<CoalescerStats> {
        self.path.coalescer_stats()
    }

    /// Starts a new AXI-Pack burst.
    ///
    /// # Errors
    ///
    /// [`BeginError::Busy`] if the previous burst has not drained;
    /// [`BeginError::EmptyBurst`] for zero-element bursts;
    /// [`BeginError::WidthMismatch`] for an indirect or strided burst whose
    /// index or element width is not the configured one.
    pub fn begin(&mut self, req: PackRequest) -> Result<(), BeginError> {
        if !self.is_done() {
            return Err(BeginError::Busy);
        }
        if req.count() == 0 {
            return Err(BeginError::EmptyBurst);
        }
        if !matches!(req, PackRequest::Contiguous { .. }) {
            check_width("element", self.cfg.elem_size, req.elem_size())?;
        }
        match req {
            PackRequest::Indirect {
                idx_base, idx_size, ..
            } => {
                check_width("index", self.cfg.idx_size, idx_size)?;
                self.reader.begin(idx_base, req.count(), idx_size);
            }
            PackRequest::Contiguous { base, .. } => {
                self.reader.begin(base, req.count(), req.elem_size());
            }
            PackRequest::Strided { .. } => self.strided_next = 0,
        }
        self.burst = Some(req);
        self.burst_end = self.stats.elements_delivered + req.count();
        // The packer adopts the burst's element width (e.g. 32 b slice
        // pointers vs 64 b values); it is empty here because the previous
        // burst fully drained.
        debug_assert_eq!(self.packer.pending(), 0);
        self.packer = Packer::new(req.elem_size());
        Ok(())
    }

    /// `true` when the current burst has fully drained (all elements
    /// packed into beats and all beats consumed).
    pub fn is_done(&self) -> bool {
        self.stats.elements_delivered == self.burst_end
            && self.beats.is_empty()
            && self.packer.pending() == 0
    }

    /// Returns the unit to its just-constructed state: idle, zeroed
    /// statistics, cleared coalescer/arbiter history. A prepared SpMV
    /// plan calls this between runs so one warm unit serves the whole
    /// session instead of being rebuilt per call, with every run seeing
    /// the same deterministic initial state.
    ///
    /// # Panics
    ///
    /// Panics if a burst is still in flight.
    pub fn reset(&mut self) {
        assert!(self.is_done(), "reset with a burst in flight");
        // Every field by name, so a new one cannot be forgotten here.
        let Self {
            cfg,
            burst,
            burst_end,
            reader,
            idx_outstanding,
            idx_req_q,
            contig_req_q,
            next_split_seq,
            lane_q,
            next_gen_seq,
            strided_next,
            path,
            next_pack_seq,
            packer,
            beats,
            arb_rr,
            held_req,
            stats,
        } = self;
        (*burst, *held_req, *idx_outstanding, *arb_rr) = (None, None, 0, 0);
        (*burst_end, *next_split_seq, *next_pack_seq) = (0, 0, 0);
        (*next_gen_seq, *strided_next) = (0, 0);
        reader.clear();
        idx_req_q.clear();
        contig_req_q.clear();
        lane_q.clear();
        path.reset();
        *packer = Packer::new(cfg.elem_size);
        beats.clear();
        *stats = AdapterStats::default();
    }

    /// Pops the next packed 512 b beat, if one is ready.
    pub fn pop_beat(&mut self) -> Option<Beat> {
        self.beats.pop()
    }

    /// Runs one whole burst against `chan` from cycle 0 — begin, then tick
    /// unit and channel once per cycle until the burst has drained —
    /// handing every packed beat to `sink` in stream order, and returns
    /// the cycle count. A channel that served an earlier burst must have
    /// had [`ChannelPort::reset_run_state`] called first, because time
    /// restarts at 0.
    ///
    /// # Errors
    ///
    /// The [`IndirectStreamUnit::begin`] errors; nothing has run then.
    ///
    /// # Panics
    ///
    /// Panics through [`SimClock::tick`] if the burst has not drained
    /// within `200_000 + 256 × count` cycles.
    #[inline]
    pub fn run_burst(
        &mut self,
        chan: &mut dyn ChannelPort,
        req: PackRequest,
        mut sink: impl FnMut(&Beat),
    ) -> Result<Cycle, BeginError> {
        let mut clk = SimClock::new("indirect stream burst", burst_cycle_budget(req.count()));
        self.begin(req)?;
        while !self.is_done() {
            self.tick(clk.now(), chan);
            chan.tick(clk.now());
            while let Some(beat) = self.pop_beat() {
                sink(&beat);
            }
            clk.tick();
        }
        Ok(clk.now())
    }

    /// Advances the unit by one cycle against the given DRAM channel.
    pub fn tick(&mut self, now: Cycle, chan: &mut dyn ChannelPort) {
        while let Some(resp) = chan.pop_response(now) {
            match resp.tag {
                TAG_IDX | TAG_CONTIG => self.reader.arrive(resp.data),
                TAG_ELEM => self.path.arrive(resp.data),
                other => unreachable!("unknown response tag {other}"),
            }
        }
        self.tick_packer();
        self.tick_output_pull();
        self.tick_contiguous_responses();
        self.path.tick(now);
        self.tick_request_gen();
        self.tick_splitter();
        self.tick_fetcher();
        self.tick_arbiter(now, chan);
    }
}
