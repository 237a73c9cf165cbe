//! The request coalescer (Fig. 2b): upsizer, regulator, request watcher
//! with its CSHR, hitmap/offsets metadata queues, response splitter and
//! downsizer.
//!
//! # Microarchitecture
//!
//! N narrow element requests per cycle enter through the **upsizer**,
//! which deals each port's requests round-robin across its `W/N` request
//! queues. The **regulator** presents the heads of all W queues as a
//! *window* (forwarding a partial window after a fill timeout). The
//! **request watcher** holds a single *coalescer status holding register*
//! (CSHR) — tag, status, hitmap, offsets — and each cycle accepts, in
//! parallel, every window entry whose address falls in the CSHR's wide
//! block. When misses remain, it issues the CSHR's wide request
//! downstream, records the hitmap and per-entry offsets in the **metadata
//! queues**, and re-tags from the oldest miss.
//!
//! ## Cross-window coalescing
//!
//! The CSHR survives window boundaries: when a window is fully coalesced,
//! its hitmap is pushed with `last = false` and the *same* tag keeps
//! accepting hits from the next window. The wide request is issued only
//! once, when a miss (or the watchdog) finally retires the tag with a
//! `last = true` hitmap entry. The **response splitter** therefore keeps
//! serving hitmap entries from one wide response until it retires an
//! entry with `last = true` — this is what lets effective indirect
//! bandwidth exceed the DRAM channel peak on highly local streams.
//!
//! The **downsizer** pops element queues in exactly the upsizer's
//! distribution order, restoring per-port FIFO order.

use nmpic_mem::{block_addr, block_offset, Block};
use nmpic_sim::{Cycle, Fifo};

use crate::config::AdapterConfig;
use crate::request::{ElemOut, ElemRequest};

/// One hitmap metadata entry: which window slots were merged into a wide
/// access, and whether this entry retires its wide response.
#[derive(Debug, Clone)]
struct HitmapEntry {
    bits: Vec<bool>,
    /// `false` when the same wide response must also serve the following
    /// entry (cross-window coalescing).
    last: bool,
}

/// An offsets-queue entry: the element offset inside the wide block.
///
/// The `seq` field is simulator bookkeeping only (it lets the model check
/// stream ordering end-to-end); hardware recovers ordering structurally.
#[derive(Debug, Clone, Copy)]
struct OffsetEntry {
    offset: u8,
    seq: u64,
}

/// Statistics of one coalescer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerStats {
    /// Narrow requests accepted into warps.
    pub requests_coalesced: u64,
    /// Wide requests issued downstream.
    pub wide_requests: u64,
    /// Hitmap entries carrying `last = false` (cross-window merges).
    pub cross_window_merges: u64,
    /// Windows forwarded before filling completely.
    pub partial_windows: u64,
    /// Watchdog-forced issues.
    pub watchdog_fires: u64,
    /// Windows opened in total.
    pub windows_opened: u64,
    /// Elements returned upstream.
    pub elements_out: u64,
}

/// The request coalescer of the indirect stream unit.
///
/// Drive it one cycle at a time:
/// 1. [`Coalescer::try_push_request`] per input port (upsizer),
/// 2. [`Coalescer::tick`] (regulator + watcher + response splitter),
/// 3. [`Coalescer::pop_wide_request`] → send downstream,
/// 4. [`Coalescer::offer_response`] when a wide response arrives,
/// 5. [`Coalescer::pop_output`] per output port (downsizer).
#[derive(Debug)]
pub struct Coalescer {
    window: usize,
    ports: usize,
    group: usize,
    elem_bytes: usize,
    regulator_timeout: u32,
    watchdog_timeout: u32,
    cross_window: bool,

    /// W request queues (upsizer outputs / regulator inputs).
    req_q: Vec<Fifo<ElemRequest>>,
    up_rr: Vec<usize>,

    /// Regulator window state: which queue heads belong to the current
    /// window and are not yet coalesced.
    win_valid: Vec<bool>,
    win_active: bool,
    fill_timer: u32,

    /// CSHR.
    tag: Option<u64>,
    hitmap: Vec<bool>,
    hit_count: usize,
    watchdog_timer: u32,

    /// Metadata queues.
    hitmap_q: Fifo<HitmapEntry>,
    offsets_q: Vec<Fifo<OffsetEntry>>,

    /// Wide requests awaiting the unit's DRAM arbiter.
    wide_out: Fifo<u64>,

    /// Response path.
    cur_resp: Option<Block>,
    elem_q: Vec<Fifo<ElemOut>>,
    down_rr: Vec<usize>,

    stats: CoalescerStats,
}

impl Coalescer {
    /// Builds a coalescer from the adapter configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`AdapterConfig::assert_valid`]).
    pub fn new(cfg: &AdapterConfig) -> Self {
        cfg.assert_valid();
        let window = cfg.window;
        let ports = cfg.ports();
        Self {
            window,
            ports,
            group: window / ports,
            elem_bytes: cfg.elem_size.bytes(),
            regulator_timeout: cfg.regulator_timeout,
            watchdog_timeout: cfg.watchdog_timeout,
            cross_window: cfg.cross_window,
            req_q: (0..window)
                .map(|_| Fifo::new("req_q", cfg.req_queue_depth))
                .collect(),
            up_rr: vec![0; ports],
            win_valid: vec![false; window],
            win_active: false,
            fill_timer: 0,
            tag: None,
            hitmap: vec![false; window],
            hit_count: 0,
            watchdog_timer: 0,
            hitmap_q: Fifo::new("hitmap_q", cfg.hitmap_queue_depth),
            offsets_q: (0..window)
                .map(|_| Fifo::new("offsets_q", cfg.offsets_queue_depth))
                .collect(),
            wide_out: Fifo::new("wide_out", 4),
            cur_resp: None,
            elem_q: (0..window)
                .map(|_| Fifo::new("elem_q", cfg.elem_queue_depth))
                .collect(),
            down_rr: vec![0; ports],
            stats: CoalescerStats::default(),
        }
    }

    /// Number of input/output ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> CoalescerStats {
        self.stats
    }

    /// `true` if the next request on `port` can be accepted this cycle.
    pub fn can_accept(&self, port: usize) -> bool {
        let q = port * self.group + self.up_rr[port];
        !self.req_q[q].is_full()
    }

    /// Upsizer: accepts one narrow request on `port`, dealing it to the
    /// port's round-robin request queue. Returns `false` (and leaves the
    /// round-robin pointer unchanged) when the target queue is full.
    pub fn try_push_request(&mut self, port: usize, req: ElemRequest) -> bool {
        let q = port * self.group + self.up_rr[port];
        if self.req_q[q].try_push(req).is_ok() {
            self.up_rr[port] = (self.up_rr[port] + 1) % self.group;
            true
        } else {
            false
        }
    }

    /// Pops the next wide block address to request downstream, if any.
    pub fn pop_wide_request(&mut self) -> Option<u64> {
        self.wide_out.pop()
    }

    /// Offers a wide response; returns `false` if one is already being
    /// processed (the caller retries next cycle).
    pub fn offer_response(&mut self, data: Block) -> bool {
        if self.cur_resp.is_some() {
            return false;
        }
        self.cur_resp = Some(data);
        true
    }

    /// Downsizer: pops the next in-order element for `port`, if available.
    pub fn pop_output(&mut self, port: usize) -> Option<ElemOut> {
        let q = port * self.group + self.down_rr[port];
        let out = self.elem_q[q].pop();
        if out.is_some() {
            self.down_rr[port] = (self.down_rr[port] + 1) % self.group;
        }
        out
    }

    /// `true` when no request, metadata, response or element state remains.
    pub fn is_drained(&self) -> bool {
        !self.win_active
            && self.tag.is_none()
            && self.cur_resp.is_none()
            && self.hitmap_q.is_empty()
            && self.wide_out.is_empty()
            && self.req_q.iter().all(Fifo::is_empty)
            && self.elem_q.iter().all(Fifo::is_empty)
            && self.offsets_q.iter().all(Fifo::is_empty)
    }

    /// Advances regulator, request watcher and response splitter by one
    /// cycle.
    pub fn tick(&mut self, _now: Cycle) {
        self.tick_response_splitter();
        let progress = self.tick_watcher();
        self.tick_regulator();
        // Watchdog: force-issue the pending CSHR when the watcher makes no
        // progress (stream tail, stalled hits, or no new window).
        if self.tag.is_some() {
            if progress {
                self.watchdog_timer = 0;
            } else {
                self.watchdog_timer += 1;
                if self.watchdog_timer > self.watchdog_timeout
                    && !self.hitmap_q.is_full()
                    && !self.wide_out.is_full()
                {
                    self.issue_current(true);
                    self.stats.watchdog_fires += 1;
                    self.watchdog_timer = 0;
                }
            }
        } else {
            self.watchdog_timer = 0;
        }
    }

    /// Regulator: forms a new window from the queue heads when none is
    /// active — immediately when all W queues are occupied, or after the
    /// fill timeout when at least one is.
    fn tick_regulator(&mut self) {
        if self.win_active {
            self.fill_timer = 0;
            return;
        }
        let occupied = self.req_q.iter().filter(|q| !q.is_empty()).count();
        if occupied == 0 {
            self.fill_timer = 0;
            return;
        }
        let full = occupied == self.window;
        if full || self.fill_timer >= self.regulator_timeout {
            for w in 0..self.window {
                self.win_valid[w] = !self.req_q[w].is_empty();
            }
            self.win_active = true;
            self.fill_timer = 0;
            self.stats.windows_opened += 1;
            if !full {
                self.stats.partial_windows += 1;
            }
        } else {
            self.fill_timer += 1;
        }
    }

    /// Request watcher: returns `true` if it made progress this cycle.
    fn tick_watcher(&mut self) -> bool {
        if !self.win_active {
            return false;
        }
        let mut progress = false;

        // Window fully consumed: flush the window's hitmap with
        // `last = false` (cross-window coalescing keeps the tag) and let
        // the regulator form the next window. The tag may also be None
        // here if the watchdog force-issued mid-window.
        if !self.win_valid.iter().any(|&v| v) {
            if self.tag.is_some() && self.hit_count > 0 {
                if !self.cross_window {
                    // Ablation mode: retire the CSHR at every window
                    // boundary instead of carrying it over.
                    if self.hitmap_q.free() >= 1 && !self.wide_out.is_full() {
                        self.issue_current(false);
                        self.win_active = false;
                        return true;
                    }
                    return false;
                }
                // One extra hitmap slot stays reserved for the eventual
                // `last = true` entry of this tag (deadlock freedom).
                if self.hitmap_q.free() >= 2 {
                    let entry = HitmapEntry {
                        bits: std::mem::replace(&mut self.hitmap, vec![false; self.window]),
                        last: false,
                    };
                    // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
                    self.hitmap_q.try_push(entry).expect("checked space");
                    self.hit_count = 0;
                    self.stats.cross_window_merges += 1;
                    self.win_active = false;
                    return true;
                }
                return false;
            }
            self.win_active = false;
            return true;
        }

        // Adopt a tag from the oldest valid entry if the CSHR is idle.
        if self.tag.is_none() {
            if let Some(w) = self.oldest_valid(None) {
                // nmpic-lint: allow(L2) — invariant: win_valid marks exactly the windows whose request queue is nonempty
                let addr = self.req_q[w].peek().expect("valid head").addr;
                self.tag = Some(block_addr(addr));
                progress = true;
            }
        }
        let Some(tag) = self.tag else {
            return progress;
        };

        // Parallel hit check: accept every valid window entry in the
        // CSHR's block (subject to offsets-queue space).
        let mut stalled_hit = false;
        for w in 0..self.window {
            if !self.win_valid[w] {
                continue;
            }
            // nmpic-lint: allow(L2) — invariant: win_valid marks exactly the windows whose request queue is nonempty
            let head = self.req_q[w].peek().expect("valid head exists");
            if block_addr(head.addr) != tag {
                continue;
            }
            if self.offsets_q[w].is_full() {
                stalled_hit = true;
                continue;
            }
            // nmpic-lint: allow(L2) — invariant: the same head was peeked this cycle, so the queue is nonempty
            let req = self.req_q[w].pop().expect("peeked");
            // nmpic-lint: allow(L1) — in range: block offsets are below BLOCK_BYTES (64), so the lane offset fits 8 bits
            let offset = (block_offset(req.addr) / self.elem_bytes) as u8;
            self.offsets_q[w]
                .try_push(OffsetEntry {
                    offset,
                    seq: req.seq,
                })
                // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
                .expect("checked space");
            debug_assert!(!self.hitmap[w], "window slot coalesced twice");
            self.hitmap[w] = true;
            self.hit_count += 1;
            self.win_valid[w] = false;
            self.stats.requests_coalesced += 1;
            progress = true;
        }

        let misses_remain = (0..self.window).any(|w| {
            // nmpic-lint: allow(L2) — invariant: win_valid marks exactly the windows whose request queue is nonempty
            self.win_valid[w] && block_addr(self.req_q[w].peek().expect("valid head").addr) != tag
        });

        if misses_remain && !stalled_hit {
            // Issue the current warp and re-tag from the oldest miss. The
            // issued entry is the final (`last = true`) one for this tag,
            // so it may use the reserved hitmap slot.
            if self.hitmap_q.free() >= 1 && !self.wide_out.is_full() {
                self.issue_current(false);
                let next = self
                    .oldest_valid(Some(tag))
                    // nmpic-lint: allow(L2) — invariant: misses_remain just observed a valid window whose head misses the tag
                    .expect("misses_remain guarantees a candidate");
                // nmpic-lint: allow(L2) — invariant: win_valid marks exactly the windows whose request queue is nonempty
                let addr = self.req_q[next].peek().expect("valid head").addr;
                self.tag = Some(block_addr(addr));
                progress = true;
            }
        }
        // A fully consumed window is closed at the start of the next tick.
        progress
    }

    /// Issues the current CSHR: pushes the hitmap entry (with `last`
    /// always true here — `false` entries are pushed by the window-close
    /// path) and the wide request.
    fn issue_current(&mut self, from_watchdog: bool) {
        // nmpic-lint: allow(L2) — invariant: callers only issue while a coalescing tag is open
        let tag = self.tag.take().expect("issue requires a tag");
        let entry = HitmapEntry {
            bits: std::mem::replace(&mut self.hitmap, vec![false; self.window]),
            last: true,
        };
        // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
        self.hitmap_q.try_push(entry).expect("caller checked space");
        // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
        self.wide_out.try_push(tag).expect("caller checked space");
        self.hit_count = 0;
        self.stats.wide_requests += 1;
        let _ = from_watchdog;
    }

    /// Oldest (minimum sequence) valid window entry, optionally excluding
    /// entries that hit `exclude_tag`.
    fn oldest_valid(&self, exclude_tag: Option<u64>) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for w in 0..self.window {
            if !self.win_valid[w] {
                continue;
            }
            // nmpic-lint: allow(L2) — invariant: win_valid marks exactly the windows whose request queue is nonempty
            let head = self.req_q[w].peek().expect("valid head");
            if let Some(t) = exclude_tag {
                if block_addr(head.addr) == t {
                    continue;
                }
            }
            if best.is_none_or(|(s, _)| head.seq < s) {
                best = Some((head.seq, w));
            }
        }
        best.map(|(_, w)| w)
    }

    /// Response splitter: serves one hitmap entry per cycle from the
    /// current wide response, distributing elements to the element queues.
    fn tick_response_splitter(&mut self) {
        let Some(resp) = self.cur_resp else { return };
        let Some(meta) = self.hitmap_q.peek() else {
            return;
        };
        // Parallel extraction requires space in every hit element queue.
        let bits: Vec<usize> = meta
            .bits
            .iter()
            .enumerate()
            .filter_map(|(w, &b)| b.then_some(w))
            .collect();
        if bits.iter().any(|&w| self.elem_q[w].is_full()) {
            return;
        }
        let last = meta.last;
        self.hitmap_q.pop();
        for w in bits {
            let off = self.offsets_q[w]
                .pop()
                // nmpic-lint: allow(L2) — invariant: an offset is enqueued for every accepted request, in the same order
                .expect("offset pushed at accept time");
            let lo = off.offset as usize * self.elem_bytes;
            let mut buf = [0u8; 8];
            buf[..self.elem_bytes].copy_from_slice(&resp[lo..lo + self.elem_bytes]);
            let value = u64::from_le_bytes(buf);
            self.elem_q[w]
                .try_push(ElemOut {
                    seq: off.seq,
                    value,
                })
                // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
                .expect("checked space");
            self.stats.elements_out += 1;
        }
        if last {
            self.cur_resp = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_mem::BLOCK_BYTES;
    use nmpic_sim::SimClock;

    fn cfg(window: usize) -> AdapterConfig {
        AdapterConfig::mlp(window)
    }

    /// Fabricates a wide block whose 8 B element at offset `i` is
    /// `base + i`, so extraction results are predictable.
    fn block_with_pattern(base: u64) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        for i in 0..8u64 {
            b[(i as usize) * 8..(i as usize + 1) * 8].copy_from_slice(&(base + i).to_le_bytes());
        }
        b
    }

    /// Drives a coalescer with a list of (seq, addr) requests distributed
    /// like the element request generator would (port = seq % ports), and
    /// a perfect downstream memory where block at address A contains
    /// elements (A + i*8) / 8. Returns the outputs in stream order and
    /// the stats.
    fn run(
        coal: &mut Coalescer,
        reqs: &[(u64, u64)],
        max_cycles: u64,
    ) -> (Vec<ElemOut>, CoalescerStats) {
        let ports = coal.ports();
        let mut pending: std::collections::VecDeque<(u64, u64)> = reqs.iter().copied().collect();
        let mut in_flight: std::collections::VecDeque<u64> = Default::default();
        let mut outputs: Vec<ElemOut> = Vec::new();
        let mut next_seq_out = 0u64;
        let mut clk = SimClock::new("coalescer test stream", max_cycles);
        while outputs.len() < reqs.len() {
            // Feed requests in stream order, port = seq % ports.
            while let Some(&(seq, addr)) = pending.front() {
                let port = (seq % ports as u64) as usize;
                if coal.try_push_request(port, ElemRequest { seq, addr }) {
                    pending.pop_front();
                } else {
                    break;
                }
            }
            coal.tick(clk.now());
            // Downstream memory: fixed 20-cycle latency modeled crudely by
            // serving one response per cycle after request order.
            if let Some(block) = coal.pop_wide_request() {
                in_flight.push_back(block);
            }
            if let Some(&block) = in_flight.front() {
                if coal.offer_response(block_with_pattern(block / 8)) {
                    in_flight.pop_front();
                }
            }
            // Collect outputs in stream order.
            loop {
                let port = (next_seq_out % ports as u64) as usize;
                match coal.pop_output(port) {
                    Some(out) => {
                        assert_eq!(out.seq, next_seq_out, "stream order violated");
                        outputs.push(out);
                        next_seq_out += 1;
                    }
                    None => break,
                }
            }
            clk.tick();
        }
        (outputs, coal.stats())
    }

    /// Expected value for a request to `addr` under `block_with_pattern`.
    fn expected(addr: u64) -> u64 {
        let blk = block_addr(addr);
        blk / 8 + (addr - blk) / 8
    }

    #[test]
    fn all_same_block_coalesces_to_one_wide_request() {
        let mut coal = Coalescer::new(&cfg(8));
        // 8 requests, all in block 0.
        let reqs: Vec<(u64, u64)> = (0..8u64).map(|s| (s, s * 8)).collect();
        let (outs, stats) = run(&mut coal, &reqs, 10_000);
        assert_eq!(stats.wide_requests, 1);
        assert_eq!(stats.requests_coalesced, 8);
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out.value, expected(reqs[k].1));
        }
    }

    #[test]
    fn distinct_blocks_issue_one_wide_each() {
        let mut coal = Coalescer::new(&cfg(8));
        // 8 requests, each in its own block.
        let reqs: Vec<(u64, u64)> = (0..8u64).map(|s| (s, s * 64)).collect();
        let (_, stats) = run(&mut coal, &reqs, 10_000);
        assert_eq!(stats.wide_requests, 8);
    }

    #[test]
    fn cross_window_reuse_issues_single_request() {
        let mut coal = Coalescer::new(&cfg(8));
        // Three windows' worth of requests to the same block, then one to
        // a different block to force the issue.
        let mut reqs: Vec<(u64, u64)> = (0..24u64).map(|s| (s, (s % 8) * 8)).collect();
        reqs.push((24, 4096));
        let (outs, stats) = run(&mut coal, &reqs, 10_000);
        assert_eq!(outs.len(), 25);
        // Block 0 requested once, block 4096 once.
        assert_eq!(stats.wide_requests, 2);
        assert!(stats.cross_window_merges >= 2, "{stats:?}");
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out.value, expected(reqs[k].1), "element {k}");
        }
    }

    #[test]
    fn partial_window_flushes_after_timeout() {
        let mut coal = Coalescer::new(&cfg(8));
        // Fewer requests than the window: needs the regulator timeout.
        let reqs: Vec<(u64, u64)> = (0..3u64).map(|s| (s, s * 8)).collect();
        let (outs, stats) = run(&mut coal, &reqs, 10_000);
        assert_eq!(outs.len(), 3);
        assert!(stats.partial_windows >= 1);
        assert!(stats.watchdog_fires >= 1, "tail needs the watchdog");
    }

    #[test]
    fn interleaved_blocks_coalesce_within_window() {
        let mut coal = Coalescer::new(&cfg(8));
        // Alternating between two blocks: window of 8 holds 4 of each.
        let reqs: Vec<(u64, u64)> = (0..16u64)
            .map(|s| (s, (s % 2) * 1024 + (s / 2) * 8))
            .collect();
        let (outs, stats) = run(&mut coal, &reqs, 10_000);
        assert_eq!(outs.len(), 16);
        // Two blocks per window, two windows → at most 4 wide requests
        // (cross-window reuse may reduce it further, but never below 2).
        assert!(
            (2..=4).contains(&stats.wide_requests),
            "wide {}",
            stats.wide_requests
        );
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out.value, expected(reqs[k].1));
        }
    }

    #[test]
    fn sequential_mode_single_port_order() {
        let mut coal = Coalescer::new(&AdapterConfig::seq(8));
        assert_eq!(coal.ports(), 1);
        let reqs: Vec<(u64, u64)> = (0..32u64).map(|s| (s, (s * 24) % 512)).collect();
        let (outs, _) = run(&mut coal, &reqs, 20_000);
        assert_eq!(outs.len(), 32);
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out.seq, k as u64);
            assert_eq!(out.value, expected(reqs[k].1));
        }
    }

    #[test]
    fn large_window_random_addresses_correct() {
        let mut coal = Coalescer::new(&cfg(64));
        // Pseudo-random addresses within 64 blocks.
        let reqs: Vec<(u64, u64)> = (0..512u64)
            .map(|s| (s, (s.wrapping_mul(0x9E3779B97F4A7C15) % 4096) & !7))
            .collect();
        let (outs, stats) = run(&mut coal, &reqs, 100_000);
        assert_eq!(outs.len(), 512);
        assert!(stats.wide_requests < 512, "some coalescing must occur");
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out.value, expected(reqs[k].1), "element {k}");
        }
    }

    #[test]
    fn coalesce_effectiveness_improves_with_window() {
        // Locality pattern: runs of 16 consecutive elements.
        let reqs: Vec<(u64, u64)> = (0..1024u64)
            .map(|s| {
                let run = s / 16;
                let pos = s % 16;
                (s, ((run.wrapping_mul(0x9E37) % 512) * 64 + pos * 4) & !3)
            })
            .collect();
        // Use 8 B elements → run addresses must be 8-aligned.
        let reqs: Vec<(u64, u64)> = reqs.iter().map(|&(s, a)| (s, a & !7)).collect();
        let mut wides = Vec::new();
        for w in [8usize, 64] {
            let mut coal = Coalescer::new(&cfg(w));
            let (_, stats) = run(&mut coal, &reqs, 200_000);
            wides.push(stats.wide_requests);
        }
        assert!(
            wides[1] <= wides[0],
            "bigger window must not increase wide requests: {wides:?}"
        );
    }

    #[test]
    fn drained_after_run() {
        let mut coal = Coalescer::new(&cfg(8));
        let reqs: Vec<(u64, u64)> = (0..9u64).map(|s| (s, s * 16)).collect();
        let _ = run(&mut coal, &reqs, 10_000);
        // Allow the tail to settle.
        for now in 0..100 {
            coal.tick(1_000 + now);
        }
        assert!(coal.is_drained());
    }

    #[test]
    fn backpressure_on_full_port_queue() {
        let mut coal = Coalescer::new(&cfg(8));
        // Port 0 group size is 1 queue of depth 2: third push must fail.
        assert!(coal.try_push_request(0, ElemRequest { seq: 0, addr: 0 }));
        assert!(coal.try_push_request(0, ElemRequest { seq: 8, addr: 8 }));
        assert!(!coal.try_push_request(0, ElemRequest { seq: 16, addr: 16 }));
    }
}

#[cfg(test)]
mod cross_window_tests {
    use super::*;
    use crate::config::AdapterConfig;
    use crate::request::ElemRequest;
    use nmpic_sim::SimClock;

    /// Feeds identical-block requests across several windows and counts
    /// wide requests with cross-window coalescing on vs off.
    fn wide_requests_for(cross_window: bool) -> u64 {
        let mut cfg = AdapterConfig::mlp(8);
        cfg.cross_window = cross_window;
        let mut coal = Coalescer::new(&cfg);
        let mut in_flight: std::collections::VecDeque<u64> = Default::default();
        let mut seq = 0u64;
        let mut out = 0usize;
        let total = 32usize; // four full windows, all hitting block 0
        let mut clk = SimClock::new("cross-window test stream", 50_000);
        while out < total {
            while seq < total as u64 {
                let port = (seq % 8) as usize;
                if coal.try_push_request(
                    port,
                    ElemRequest {
                        seq,
                        addr: (seq % 8) * 8,
                    },
                ) {
                    seq += 1;
                } else {
                    break;
                }
            }
            coal.tick(clk.now());
            if let Some(blk) = coal.pop_wide_request() {
                in_flight.push_back(blk);
            }
            if let Some(&blk) = in_flight.front() {
                let mut data = [0u8; 64];
                data[..8].copy_from_slice(&blk.to_le_bytes());
                if coal.offer_response(data) {
                    in_flight.pop_front();
                }
            }
            for port in 0..8 {
                while coal.pop_output(port).is_some() {
                    out += 1;
                }
            }
            clk.tick();
        }
        coal.stats().wide_requests
    }

    #[test]
    fn cross_window_reuses_blocks_across_windows() {
        let with = wide_requests_for(true);
        let without = wide_requests_for(false);
        assert!(
            with < without,
            "cross-window ({with}) must issue fewer wide requests than per-window ({without})"
        );
        assert_eq!(with, 1, "all four windows hit one block");
        assert_eq!(without, 4, "one issue per window boundary");
    }
}
