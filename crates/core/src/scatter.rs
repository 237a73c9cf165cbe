//! Indirect **scatter** (write) support — the write-direction companion of
//! the indirect stream unit.
//!
//! AXI-Pack also defines packed *write* bursts: the manager streams
//! densely packed elements downstream, and the subordinate scatters them
//! to `elem_base + index[k] × elem_size`. The paper evaluates only the
//! gather direction; this module implements the scatter direction as the
//! natural extension (the paper's related work, e.g. the GPU Stream
//! Compaction Unit [20], coalesces writes sequentially — we do the same:
//! stream-order write coalescing into byte-masked wide accesses, with the
//! parallel write window left as future work).
//!
//! The unit fetches its index array through the gather unit's block
//! reader (`unit::BlockReader`): wide index reads, credit-throttled by the
//! index queue, each block's indices pushed whole into that queue. Each
//! index is paired in stream order with the next upstream data element;
//! consecutive narrow writes to the same 64 B block merge into one masked
//! wide write (a *write warp*), with write-after-write order preserved by
//! issuing warps in stream order.

use nmpic_axi::{Beat, ElemSize, Packer};
use nmpic_mem::{block_addr, block_offset, Block, ChannelPort, WideRequest, BLOCK_BYTES};
use nmpic_sim::{Cycle, Fifo, SimClock};

use crate::config::AdapterConfig;
use crate::unit::{burst_cycle_budget, check_width, BeginError, BlockReader};

/// Routing tag for scatter index-fetch wide reads.
const TAG_SCATTER_IDX: u64 = 4;

/// An AXI-Pack indirect *write* burst: scatter `count` incoming packed
/// elements through an index array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterRequest {
    /// Byte address of the index array.
    pub idx_base: u64,
    /// Index width (32 b in the paper's configuration).
    pub idx_size: ElemSize,
    /// Number of elements to scatter.
    pub count: u64,
    /// Base byte address of the destination array.
    pub elem_base: u64,
    /// Element width.
    pub elem_size: ElemSize,
}

/// Scatter-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScatterStats {
    /// Elements accepted from upstream.
    pub elements_in: u64,
    /// Wide masked writes issued.
    pub wide_writes: u64,
    /// Wide index reads issued.
    pub idx_wide_reads: u64,
    /// Narrow writes merged into an already-open write warp.
    pub writes_coalesced: u64,
}

impl ScatterStats {
    /// Elements per wide write — the write-side coalesce rate.
    pub fn coalesce_rate(&self) -> f64 {
        if self.wide_writes == 0 {
            0.0
        } else {
            self.elements_in as f64 / self.wide_writes as f64
        }
    }
}

/// The write-coalescing CSHR: a block accumulating narrow writes, open
/// while `merged > 0`.
#[derive(Debug, Clone)]
struct WriteWarp {
    tag: u64,
    data: Block,
    mask: u64,
    merged: u64,
}

impl WriteWarp {
    const CLOSED: Self = Self {
        tag: 0,
        data: [0; BLOCK_BYTES],
        mask: 0,
        merged: 0,
    };

    /// Merges a narrow write of `size` at byte `lo` of the block.
    fn write(&mut self, lo: usize, value: u64, size: ElemSize) {
        size.write(&mut self.data[lo..], 0, value);
        self.mask |= ((1 << size.bytes()) - 1) << lo;
        self.merged += 1;
    }
}

/// One arbiter source: a request queue plus the slot that holds its head
/// while the channel refuses it. A held request still occupies its queue
/// slot, so the producer sees the same backpressure as if it had never
/// left the queue.
#[derive(Debug)]
struct ReqSource {
    q: Fifo<WideRequest>,
    held: Option<WideRequest>,
}

impl ReqSource {
    fn new(name: &'static str, depth: usize) -> Self {
        Self {
            q: Fifo::new(name, depth),
            held: None,
        }
    }

    fn is_full(&self) -> bool {
        self.q.len() + usize::from(self.held.is_some()) >= self.q.capacity()
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty() && self.held.is_none()
    }

    fn clear(&mut self) {
        self.q.clear();
        self.held = None;
    }

    /// Queues a request; the caller has checked [`ReqSource::is_full`].
    fn push(&mut self, req: WideRequest) {
        self.q.push(req);
    }

    /// Offers the oldest request to the channel; `true` if it was taken.
    fn offer(&mut self, now: Cycle, chan: &mut dyn ChannelPort) -> bool {
        let Some(req) = self.held.take().or_else(|| self.q.pop()) else {
            return false;
        };
        self.held = chan.try_request(now, req).err();
        self.held.is_none()
    }
}

/// The indirect scatter unit.
///
/// [`ScatterUnit::run_burst`] runs one whole burst from a value stream.
/// The per-cycle protocol underneath it: feed packed data with
/// [`ScatterUnit::push_beat`], call [`ScatterUnit::tick`], and poll
/// [`ScatterUnit::is_done`]. All writes are issued in stream order, so
/// duplicate indices resolve to last-writer-wins exactly like a scalar
/// loop.
///
/// # Example
///
/// ```
/// use nmpic_axi::ElemSize;
/// use nmpic_core::{AdapterConfig, ScatterRequest, ScatterUnit};
/// use nmpic_mem::{ChannelPort, IdealChannel, Memory};
///
/// let mut mem = Memory::new(1 << 16);
/// let idx_base = mem.alloc(4 * 4, 64);
/// let dst = mem.alloc(8 * 16, 64);
/// mem.write_u32_slice(idx_base, &[2, 0, 5, 2]);
///
/// let mut chan = IdealChannel::new(mem, 10, 2);
/// let mut unit = ScatterUnit::new(AdapterConfig::mlp(64));
/// unit.run_burst(
///     &mut chan,
///     ScatterRequest {
///         idx_base, idx_size: ElemSize::B4, count: 4, elem_base: dst, elem_size: ElemSize::B8,
///     },
///     [10u64, 20, 30, 40],
/// ).unwrap();
/// assert_eq!(chan.memory().read_u64(dst + 8 * 2), 40, "last write wins");
/// assert_eq!(chan.memory().read_u64(dst + 8 * 0), 20);
/// assert_eq!(chan.memory().read_u64(dst + 8 * 5), 30);
/// ```
#[derive(Debug)]
pub struct ScatterUnit {
    cfg: AdapterConfig,
    active: bool,
    elem_base: u64,
    elem_size: ElemSize,

    // Index fetch.
    reader: BlockReader,
    idx_outstanding: usize,
    idx_req_q: ReqSource,
    idx_q: Fifo<u64>,

    // Upstream data. A unit runs one burst between resets, so
    // `stats.elements_in` counts the burst's elements accepted so far.
    data_q: Fifo<u64>,
    target: u64,

    // Write coalescing.
    warp: WriteWarp,
    warp_idle: u32,
    write_q: ReqSource,
    written: u64,

    arb_toggle: bool,
    stats: ScatterStats,
}

impl ScatterUnit {
    /// Creates an idle scatter unit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AdapterConfig) -> Self {
        cfg.assert_valid();
        let depth = cfg.idx_queue_depth * cfg.lanes;
        Self {
            active: false,
            elem_base: 0,
            elem_size: cfg.elem_size,
            reader: BlockReader::new(),
            idx_outstanding: 0,
            idx_req_q: ReqSource::new("sc_idx_req", 2),
            idx_q: Fifo::new("sc_idx_q", depth),
            data_q: Fifo::new("sc_data_q", 64),
            target: 0,
            warp: WriteWarp::CLOSED,
            warp_idle: 0,
            write_q: ReqSource::new("sc_write_q", 4),
            written: 0,
            arb_toggle: false,
            stats: ScatterStats::default(),
            cfg,
        }
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> ScatterStats {
        self.stats
    }

    /// Returns the unit to its just-constructed state so a prepared plan
    /// can start a fresh scatter burst on a warm unit. Unlike
    /// [`ScatterUnit::begin`], which refuses to follow a completed burst,
    /// this clears the completed-burst state and the statistics.
    ///
    /// # Panics
    ///
    /// Panics if writes from the current burst are still in flight.
    pub fn reset(&mut self) {
        assert!(
            !self.active || self.is_drained(),
            "reset with writes in flight"
        );
        // Every field by name, so a new one cannot be forgotten here.
        let Self {
            cfg,
            active,
            elem_base,
            elem_size,
            reader,
            idx_outstanding,
            idx_req_q,
            idx_q,
            data_q,
            target,
            warp,
            warp_idle,
            write_q,
            written,
            arb_toggle,
            stats,
        } = self;
        (*active, *arb_toggle, *warp) = (false, false, WriteWarp::CLOSED);
        (*elem_base, *target, *written) = (0, 0, 0);
        (*idx_outstanding, *warp_idle) = (0, 0);
        *elem_size = cfg.elem_size;
        reader.clear();
        idx_req_q.clear();
        idx_q.clear();
        data_q.clear();
        write_q.clear();
        *stats = ScatterStats::default();
    }

    /// Starts a scatter burst.
    ///
    /// # Errors
    ///
    /// [`BeginError::Busy`] while a burst is draining;
    /// [`BeginError::EmptyBurst`] for zero elements;
    /// [`BeginError::WidthMismatch`] when the index width is not the
    /// configured one.
    pub fn begin(&mut self, req: ScatterRequest) -> Result<(), BeginError> {
        if self.active {
            return Err(BeginError::Busy);
        }
        if req.count == 0 {
            return Err(BeginError::EmptyBurst);
        }
        check_width("index", self.cfg.idx_size, req.idx_size)?;
        self.reader.begin(req.idx_base, req.count, req.idx_size);
        (self.elem_base, self.elem_size) = (req.elem_base, req.elem_size);
        self.target = req.count;
        self.active = true;
        Ok(())
    }

    /// Accepts one upstream beat of packed write data; returns `false`
    /// (and consumes nothing) if the data queue cannot hold it.
    pub fn push_beat(&mut self, beat: &Beat) -> bool {
        let elems = beat.elems as u64;
        if self.data_q.free() < beat.elems || self.stats.elements_in + elems > self.target {
            return false;
        }
        for v in beat.elements() {
            self.data_q.push(v);
        }
        self.stats.elements_in += elems;
        true
    }

    /// `true` once every element has been written to the channel and the
    /// channel itself has drained.
    pub fn is_done(&self, chan: &dyn ChannelPort) -> bool {
        self.active && self.is_drained() && chan.is_idle()
    }

    /// Every element of the burst has left the unit.
    fn is_drained(&self) -> bool {
        self.written == self.target && self.warp.merged == 0 && self.write_q.is_empty()
    }

    /// Runs one whole scatter burst against `chan` from cycle 0, playing
    /// the upstream manager: `values` (exactly `req.count` of them, in
    /// stream order) are packed into beats and offered one beat per cycle,
    /// a refused beat being held until the data queue has room. Returns
    /// the cycle count once every write has reached the channel and the
    /// channel has drained. A channel that served an earlier burst must
    /// have had [`ChannelPort::reset_run_state`] called first, because
    /// time restarts at 0.
    ///
    /// # Errors
    ///
    /// The [`ScatterUnit::begin`] errors; nothing has run then.
    ///
    /// # Panics
    ///
    /// Panics through [`SimClock::tick`] if the burst has not drained
    /// within `200_000 + 256 × count` cycles — which is also how a
    /// `values` stream of the wrong length ends.
    #[inline]
    pub fn run_burst(
        &mut self,
        chan: &mut dyn ChannelPort,
        req: ScatterRequest,
        values: impl IntoIterator<Item = u64>,
    ) -> Result<Cycle, BeginError> {
        let mut clk = SimClock::new("indirect scatter burst", burst_cycle_budget(req.count));
        self.begin(req)?;
        let per_beat = req.elem_size.per_beat();
        let mut packer = Packer::new(req.elem_size);
        let mut pending = values.into_iter().fuse();
        let mut staged = None;
        while !self.is_done(&*chan) {
            if staged.is_none() {
                // A short fill means the stream has ended: flush the tail.
                for bits in pending.by_ref().take(per_beat - packer.pending()) {
                    packer.push(bits);
                }
                staged = packer.pop_beat().or_else(|| packer.flush());
            }
            if let Some(beat) = staged.take() {
                if !self.push_beat(&beat) {
                    staged = Some(beat);
                }
            }
            self.tick(clk.now(), chan);
            chan.tick(clk.now());
            clk.tick();
        }
        Ok(clk.now())
    }

    /// Advances the unit by one cycle against the DRAM channel.
    pub fn tick(&mut self, now: Cycle, chan: &mut dyn ChannelPort) {
        if !self.active {
            return;
        }
        while let Some(resp) = chan.pop_response(now) {
            debug_assert_eq!(resp.tag, TAG_SCATTER_IDX);
            self.reader.arrive(resp.data);
        }
        self.tick_merge();
        self.tick_splitter();
        self.tick_fetcher();
        self.tick_arbiter(now, chan);
    }

    /// Pairs indices with data in stream order and merges consecutive
    /// same-block writes into the open warp (one merge per cycle — the
    /// sequential coalescing of SCU-style units).
    fn tick_merge(&mut self) {
        // Flush the open warp when a conflicting write arrives, when it
        // has idled past the watchdog timeout, or at stream end.
        let (Some(&idx), Some(&val)) = (self.idx_q.peek(), self.data_q.peek()) else {
            if self.warp.merged > 0 {
                self.warp_idle += 1;
                let drained = self.written + self.warp.merged == self.target;
                if drained || self.warp_idle > self.cfg.watchdog_timeout {
                    self.flush_warp();
                }
            }
            return;
        };
        self.warp_idle = 0;
        let addr = self.elem_base + idx * self.elem_size.bytes() as u64;
        let tag = block_addr(addr);
        if self.warp.merged > 0 && self.warp.tag != tag && !self.flush_warp() {
            return; // a conflict waits for write-queue space
        }
        self.stats.writes_coalesced += u64::from(self.warp.merged > 0);
        self.warp.tag = tag;
        self.warp.write(block_offset(addr), val, self.elem_size);
        self.idx_q.pop();
        self.data_q.pop();
        self.idx_outstanding -= 1;
    }

    /// Queues the open warp's masked write and closes it; `false` when the
    /// write queue is full.
    fn flush_warp(&mut self) -> bool {
        if self.write_q.is_full() {
            return false;
        }
        let w = &self.warp;
        self.write_q
            .push(WideRequest::write_masked(w.tag, 0, w.data, w.mask));
        self.stats.wide_writes += 1;
        self.written += w.merged;
        self.warp = WriteWarp::CLOSED;
        self.warp_idle = 0;
        true
    }

    /// Pushes the oldest arrived index block whole into the index queue
    /// (simple, and the queue is deep).
    fn tick_splitter(&mut self) {
        let idx_q = &mut self.idx_q;
        if self.reader.front_len().is_some_and(|n| n <= idx_q.free()) {
            self.reader.drain_front(|idx| {
                idx_q.push(idx);
                true
            });
        }
    }

    /// One wide index read per cycle, credit-limited by index-queue
    /// capacity.
    fn tick_fetcher(&mut self) {
        let Some(len) = self.reader.next_len() else {
            return;
        };
        if self.idx_req_q.is_full() || self.idx_outstanding + len > self.idx_q.capacity() {
            return;
        }
        self.idx_outstanding += len;
        self.idx_req_q.push(self.reader.issue(len, TAG_SCATTER_IDX));
        self.stats.idx_wide_reads += 1;
    }

    fn tick_arbiter(&mut self, now: Cycle, chan: &mut dyn ChannelPort) {
        // Round-robin between index reads and write warps, one per cycle;
        // a refused source does not block the other one this cycle.
        let mut order = [&mut self.idx_req_q, &mut self.write_q];
        if self.arb_toggle {
            order.swap(0, 1);
        }
        self.arb_toggle = !self.arb_toggle;
        for src in order {
            if src.offer(now, chan) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_mem::{BackendConfig, HbmChannel, HbmConfig, IdealChannel, Memory};

    fn request(count: usize, idx_base: u64, dst: u64) -> ScatterRequest {
        ScatterRequest {
            idx_base,
            idx_size: ElemSize::B4,
            count: count as u64,
            elem_base: dst,
            elem_size: ElemSize::B8,
        }
    }

    fn run_scatter(
        chan: &mut dyn ChannelPort,
        cfg: AdapterConfig,
        indices: &[u32],
        values: &[u64],
        idx_base: u64,
        dst: u64,
    ) -> ScatterStats {
        assert_eq!(indices.len(), values.len());
        let mut unit = ScatterUnit::new(cfg);
        unit.run_burst(
            chan,
            request(indices.len(), idx_base, dst),
            values.iter().copied(),
        )
        .unwrap();
        unit.stats()
    }

    fn setup(indices: &[u32], dst_len: usize) -> (Memory, u64, u64) {
        let size = (4 * indices.len() + 8 * dst_len + 4096)
            .next_multiple_of(64)
            .next_power_of_two();
        let mut mem = Memory::new(size);
        let idx_base = mem.alloc_array(indices.len() as u64, 4);
        let dst = mem.alloc_array(dst_len as u64, 8);
        mem.write_u32_slice(idx_base, indices);
        (mem, idx_base, dst)
    }

    /// Golden scatter: last writer wins.
    fn golden(indices: &[u32], values: &[u64], dst_len: usize) -> Vec<u64> {
        let mut out = vec![0u64; dst_len];
        for (i, &idx) in indices.iter().enumerate() {
            out[idx as usize] = values[i];
        }
        out
    }

    #[test]
    fn scatter_random_indices_correct() {
        let indices: Vec<u32> = (0..300u32)
            .map(|k| ((k as u64 * 2654435761) % 256) as u32)
            .collect();
        let values: Vec<u64> = (0..300u64).map(|v| v * 3 + 1).collect();
        let (mem, idx_base, dst) = setup(&indices, 256);
        let mut chan = IdealChannel::new(mem, 10, 2);
        run_scatter(
            &mut chan,
            AdapterConfig::mlp(64),
            &indices,
            &values,
            idx_base,
            dst,
        );
        let want = golden(&indices, &values, 256);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(chan.memory().read_u64(dst + 8 * i as u64), *w, "slot {i}");
        }
    }

    #[test]
    fn duplicate_indices_last_writer_wins() {
        let indices = vec![7u32, 7, 7, 7];
        let values = vec![1u64, 2, 3, 4];
        let (mem, idx_base, dst) = setup(&indices, 16);
        let mut chan = IdealChannel::new(mem, 5, 1);
        let stats = run_scatter(
            &mut chan,
            AdapterConfig::mlp(8),
            &indices,
            &values,
            idx_base,
            dst,
        );
        assert_eq!(chan.memory().read_u64(dst + 56), 4);
        // All four merged into a single wide write.
        assert_eq!(stats.wide_writes, 1);
        assert!((stats.coalesce_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_indices_coalesce_per_block() {
        let indices: Vec<u32> = (0..64u32).collect();
        let values: Vec<u64> = (0..64u64).map(|v| 100 + v).collect();
        let (mem, idx_base, dst) = setup(&indices, 64);
        let mut chan = IdealChannel::new(mem, 5, 1);
        let stats = run_scatter(
            &mut chan,
            AdapterConfig::mlp(64),
            &indices,
            &values,
            idx_base,
            dst,
        );
        // 64 sequential 8 B writes = 8 blocks.
        assert_eq!(stats.wide_writes, 8);
        for i in 0..64u64 {
            assert_eq!(chan.memory().read_u64(dst + 8 * i), 100 + i);
        }
    }

    #[test]
    fn masked_writes_preserve_neighbours() {
        // Pre-fill the destination, scatter to odd slots only, check even
        // slots survive.
        let indices: Vec<u32> = (0..16u32).map(|k| 2 * k + 1).collect();
        let values: Vec<u64> = (0..16u64).map(|v| 1000 + v).collect();
        let (mut mem, idx_base, dst) = setup(&indices, 40);
        for i in 0..40u64 {
            mem.write_u64(dst + 8 * i, 7 * i);
        }
        let mut chan = IdealChannel::new(mem, 5, 1);
        run_scatter(
            &mut chan,
            AdapterConfig::mlp(16),
            &indices,
            &values,
            idx_base,
            dst,
        );
        for i in 0..16u64 {
            assert_eq!(chan.memory().read_u64(dst + 8 * (2 * i + 1)), 1000 + i);
            assert_eq!(chan.memory().read_u64(dst + 8 * (2 * i)), 7 * 2 * i);
        }
    }

    #[test]
    fn scatter_against_hbm_channel() {
        let indices: Vec<u32> = (0..500u32)
            .map(|k| ((k as u64 * 48271) % 1024) as u32)
            .collect();
        let values: Vec<u64> = (0..500u64).map(|v| v ^ 0xF0F0).collect();
        let (mem, idx_base, dst) = setup(&indices, 1024);
        let mut chan = HbmChannel::new(HbmConfig::default(), mem);
        run_scatter(
            &mut chan,
            AdapterConfig::mlp(256),
            &indices,
            &values,
            idx_base,
            dst,
        );
        let want = golden(&indices, &values, 1024);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(chan.memory().read_u64(dst + 8 * i as u64), *w, "slot {i}");
        }
    }

    #[test]
    fn begin_guards() {
        let mut unit = ScatterUnit::new(AdapterConfig::mlp(8));
        assert_eq!(unit.begin(request(0, 0, 0)), Err(BeginError::EmptyBurst));
        unit.begin(request(4, 0, 0)).unwrap();
        assert_eq!(unit.begin(request(4, 0, 0)), Err(BeginError::Busy));
    }

    /// `reset` clears the unit in place; a reset unit must replay a burst
    /// with a fresh unit's cycle count, statistics and memory image.
    #[test]
    fn reset_unit_replays_a_fresh_unit_bit_for_bit() {
        let indices: Vec<u32> = (0..300u32)
            .map(|k| ((k as u64 * 48271) % 128) as u32)
            .collect();
        let values: Vec<u64> = (0..300u64).map(|v| v ^ 0xA5A5).collect();
        let replay = |unit: &mut ScatterUnit, backend: &BackendConfig| {
            let (mem, idx_base, dst) = setup(&indices, 128);
            let mut chan = backend.build(mem);
            let req = request(indices.len(), idx_base, dst);
            let cycles = unit
                .run_burst(&mut *chan, req, values.iter().copied())
                .unwrap();
            let image: Vec<u64> = (0..128)
                .map(|i| chan.memory().read_u64(dst + 8 * i))
                .collect();
            (cycles, unit.stats(), image)
        };
        for backend in [BackendConfig::ideal(), BackendConfig::hbm()] {
            let cfg = AdapterConfig::mlp(64);
            let want = replay(&mut ScatterUnit::new(cfg.clone()), &backend);
            let mut unit = ScatterUnit::new(cfg);
            let (mem, idx_base, dst) = setup(&[9, 3, 3, 100, 7], 128);
            let mut chan = backend.build(mem);
            unit.run_burst(&mut *chan, request(5, idx_base, dst), [1, 2, 3, 4, 5])
                .unwrap();
            unit.reset();
            assert_eq!(unit.stats(), ScatterStats::default());
            assert_eq!(replay(&mut unit, &backend), want, "{}", backend.label());
        }
    }

    /// Reference protocol: this test spells out the raw
    /// `begin`/`push_beat`/`tick` upstream-manager loop on purpose — with
    /// its gather twin in `unit/tests.rs` it is one of the only two
    /// hand-written tick loops left outside `crates/sim` — and holds
    /// `run_burst` to the same cycle count, statistics and memory image.
    #[test]
    fn run_burst_matches_the_raw_protocol_loop() {
        let indices: Vec<u32> = (0..500u32)
            .map(|k| ((k as u64 * 48271) % 256) as u32)
            .collect();
        let values: Vec<u64> = (0..500u64).map(|v| v ^ 0xF0F0).collect();
        let fresh = |backend: &BackendConfig| {
            let (mem, idx_base, dst) = setup(&indices, 256);
            (
                backend.build(mem),
                request(indices.len(), idx_base, dst),
                dst,
            )
        };
        let image = |chan: &dyn ChannelPort, dst: u64| -> Vec<u64> {
            (0..256)
                .map(|i| chan.memory().read_u64(dst + 8 * i))
                .collect()
        };
        for cfg in [
            AdapterConfig::mlp(64),
            AdapterConfig::mlp_nc(),
            AdapterConfig::seq(256),
        ] {
            for backend in [BackendConfig::ideal(), BackendConfig::hbm()] {
                let (mut chan, req, dst) = fresh(&backend);
                let mut raw = ScatterUnit::new(cfg.clone());
                raw.begin(req).unwrap();
                let mut packer = Packer::new(ElemSize::B8);
                let mut next = 0;
                let mut staged: Option<Beat> = None;
                let mut now = 0;
                while !raw.is_done(&*chan) {
                    if staged.is_none() {
                        while next < values.len() && packer.pending() < 8 {
                            packer.push(values[next]);
                            next += 1;
                        }
                        staged = packer.pop_beat();
                        if staged.is_none() && next == values.len() {
                            staged = packer.flush();
                        }
                    }
                    if let Some(beat) = staged.take() {
                        if !raw.push_beat(&beat) {
                            staged = Some(beat);
                        }
                    }
                    raw.tick(now, &mut *chan);
                    chan.tick(now);
                    now += 1;
                    assert!(now < 1_000_000);
                }
                let raw_image = image(&*chan, dst);
                assert_eq!(raw_image, golden(&indices, &values, 256));

                let (mut chan, req, dst) = fresh(&backend);
                let mut unit = ScatterUnit::new(cfg.clone());
                let cycles = unit
                    .run_burst(&mut *chan, req, values.iter().copied())
                    .unwrap();
                let what = format!("{} on {}", cfg.variant_name(), backend.label());
                assert_eq!(cycles, now, "{what}: cycles");
                assert_eq!(unit.stats(), raw.stats(), "{what}: stats");
                assert_eq!(image(&*chan, dst), raw_image, "{what}: memory");
            }
        }
    }
}
