//! Cycle-level HBM2 channel: banks, row-buffer policy, FR-FCFS scheduling.

use std::collections::BTreeMap;

use nmpic_sim::stats::BusyTracker;
use nmpic_sim::Cycle;

use crate::memory::Memory;
use crate::{ChannelPort, WideCommand, WideRequest, WideResponse, BLOCK_BYTES};

/// Row-buffer management policy after a column access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Close the row only when no queued request targets it (the paper's
    /// Table I policy).
    #[default]
    OpenAdaptive,
    /// Always leave the row open (classic open-page).
    Open,
    /// Always auto-precharge (closed-page).
    Closed,
}

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First-ready, first-come-first-served: the oldest ready row hit
    /// wins, with a starvation cap (the paper's Table I policy).
    #[default]
    FrFcfs,
    /// Strict first-come-first-served: only the oldest request may issue.
    Fcfs,
}

/// Timing and geometry of one HBM2 channel, in 1 GHz controller cycles
/// (1 cycle = 1 ns).
///
/// Defaults reproduce the paper's Table I environment: one channel,
/// 32 GB/s ideal (32 B/cycle data bus, 2-cycle bursts of 64 B), FR-FCFS
/// with an open-adaptive page policy. DRAM core timings are representative
/// HBM2 values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbmConfig {
    /// Number of banks in the channel.
    pub banks: usize,
    /// Banks per bank group (column commands to the same group are slower).
    pub banks_per_group: usize,
    /// Row (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Controller request queue depth.
    pub queue_depth: usize,
    /// ACT-to-CAS delay.
    pub t_rcd: Cycle,
    /// Precharge latency.
    pub t_rp: Cycle,
    /// Minimum ACT-to-PRE interval.
    pub t_ras: Cycle,
    /// CAS (read) latency.
    pub t_cl: Cycle,
    /// Data burst length in cycles for one 64 B access (64 B / 32 B-per-cycle).
    pub t_bl: Cycle,
    /// CAS-to-CAS delay, different bank group.
    pub t_ccd_s: Cycle,
    /// CAS-to-CAS delay, same bank group.
    pub t_ccd_l: Cycle,
    /// Read-to-precharge delay.
    pub t_rtp: Cycle,
    /// Fixed controller/PHY overhead added to every response.
    pub response_overhead: Cycle,
    /// Consecutive row hits served before an older request is prioritized
    /// (FR-FCFS starvation cap).
    pub max_hit_streak: u32,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Request scheduling policy.
    pub sched_policy: SchedPolicy,
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self {
            banks: 16,
            banks_per_group: 4,
            row_bytes: 1024,
            queue_depth: 32,
            t_rcd: 14,
            t_rp: 14,
            t_ras: 28,
            t_cl: 14,
            t_bl: 2,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_rtp: 4,
            response_overhead: 8,
            max_hit_streak: 16,
            page_policy: PagePolicy::OpenAdaptive,
            sched_policy: SchedPolicy::FrFcfs,
        }
    }
}

impl HbmConfig {
    /// Peak data-bus bytes per cycle (block size / burst length).
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        BLOCK_BYTES as u64 / self.t_bl
    }

    /// Maps a block address to `(bank, row, bank_group)`.
    ///
    /// The mapping interleaves consecutive rows across banks (RoBaCo), so
    /// streaming accesses exploit bank-level parallelism.
    pub fn map(&self, addr: u64) -> (usize, u64, usize) {
        // nmpic-lint: allow(L1) — in range on every target: the modulo bounds the value below self.banks, which is a usize
        let bank = ((addr / self.row_bytes) % self.banks as u64) as usize;
        let row = addr / (self.row_bytes * self.banks as u64);
        (bank, row, bank / self.banks_per_group)
    }
}

/// Aggregate statistics of a channel run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HbmStats {
    /// Wide read requests serviced.
    pub reads: u64,
    /// Wide write requests serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Accesses to a closed (precharged) bank.
    pub row_empty: u64,
    /// Total bytes moved on the data bus.
    pub data_bytes: u64,
    /// Data-bus busy cycles.
    pub bus_busy_cycles: u64,
}

impl HbmStats {
    /// Row hit rate over all serviced accesses, in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_conflicts + self.row_empty;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Data-bus utilization over `cycles`, in `[0, 1]`.
    ///
    /// For aggregated multi-channel stats, divide by the channel count as
    /// well (each channel has its own bus): see
    /// [`HbmStats::bus_utilization_over`].
    pub fn bus_utilization(&self, cycles: Cycle) -> f64 {
        self.bus_utilization_over(cycles, 1)
    }

    /// Data-bus utilization over `cycles` and `channels` parallel buses.
    pub fn bus_utilization_over(&self, cycles: Cycle, channels: usize) -> f64 {
        let denom = cycles.saturating_mul(channels as u64);
        if denom == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / denom as f64
        }
    }

    /// Element-wise sum over any number of stat blocks — the aggregation
    /// step for multi-channel backends and multi-unit (sharded) engines.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_mem::HbmStats;
    /// let a = HbmStats { reads: 2, ..HbmStats::default() };
    /// let b = HbmStats { reads: 3, ..HbmStats::default() };
    /// assert_eq!(HbmStats::sum([a, b]).reads, 5);
    /// ```
    pub fn sum<I: IntoIterator<Item = HbmStats>>(stats: I) -> HbmStats {
        stats
            .into_iter()
            .fold(HbmStats::default(), |acc, s| acc.merge(&s))
    }

    /// Element-wise sum of two stat blocks (multi-channel aggregation).
    pub fn merge(&self, other: &HbmStats) -> HbmStats {
        HbmStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            row_hits: self.row_hits + other.row_hits,
            row_conflicts: self.row_conflicts + other.row_conflicts,
            row_empty: self.row_empty + other.row_empty,
            data_bytes: self.data_bytes + other.data_bytes,
            bus_busy_cycles: self.bus_busy_cycles + other.bus_busy_cycles,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    next_act_at: Cycle,
    next_cas_at: Cycle,
    last_act_at: Cycle,
    hit_streak: u32,
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    read_seq: Option<u64>,
    req: WideRequest,
}

#[derive(Debug, Clone)]
struct InFlight {
    complete_at: Cycle,
    read_seq: Option<u64>,
    addr: u64,
    tag: u64,
}

/// Cycle-level model of one HBM2 channel with its controller.
///
/// Scheduling is **FR-FCFS**: among queued requests, the oldest row hit
/// whose bank can accept a CAS this cycle wins; otherwise the oldest
/// request overall is started (activating/precharging as needed). A
/// starvation cap bounds consecutive hits per bank. The page policy is
/// **open adaptive**: after a CAS, the row stays open only if another
/// queued request targets it; otherwise an auto-precharge is scheduled.
///
/// Read responses are delivered strictly in request order (single AXI ID),
/// via an internal reorder buffer.
#[derive(Debug, Clone)]
pub struct HbmChannel {
    cfg: HbmConfig,
    memory: Memory,
    banks: Vec<BankState>,
    queue: Vec<QueuedRequest>,
    in_flight: Vec<InFlight>,
    reorder: BTreeMap<u64, WideResponse>,
    bus_free_at: Cycle,
    last_group: Option<usize>,
    next_read_seq: u64,
    next_deliver_seq: u64,
    bus: BusyTracker,
    stats: HbmStats,
}

impl HbmChannel {
    /// Creates a channel in front of the given backing memory.
    pub fn new(cfg: HbmConfig, memory: Memory) -> Self {
        let banks = vec![BankState::default(); cfg.banks];
        Self {
            cfg,
            memory,
            banks,
            queue: Vec::new(),
            in_flight: Vec::new(),
            reorder: BTreeMap::new(),
            bus_free_at: 0,
            last_group: None,
            next_read_seq: 0,
            next_deliver_seq: 0,
            bus: BusyTracker::new(),
            stats: HbmStats::default(),
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> HbmStats {
        let mut s = self.stats;
        s.bus_busy_cycles = self.bus.busy_cycles();
        s
    }

    /// Current request-queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn schedule(&mut self, now: Cycle) {
        let mut pick: Option<usize> = None;
        match self.cfg.sched_policy {
            SchedPolicy::FrFcfs => {
                // FR-FCFS candidate selection. `queue` is in arrival
                // order, so the first matching scan hit is the oldest.
                for (i, q) in self.queue.iter().enumerate() {
                    let (bank, row, _) = self.cfg.map(q.req.addr);
                    let b = &self.banks[bank];
                    let is_hit = b.open_row == Some(row);
                    if is_hit && b.next_cas_at <= now && b.hit_streak < self.cfg.max_hit_streak {
                        pick = Some(i);
                        break;
                    }
                }
                if pick.is_none() {
                    // No ready row hit: take the oldest request whose bank
                    // is not already committed to a future command.
                    for (i, q) in self.queue.iter().enumerate() {
                        let (bank, _, _) = self.cfg.map(q.req.addr);
                        let b = &self.banks[bank];
                        if b.next_act_at <= now && b.next_cas_at <= now {
                            pick = Some(i);
                            break;
                        }
                    }
                }
            }
            SchedPolicy::Fcfs => {
                // Strict order: only the head of the queue may issue.
                if let Some(q) = self.queue.first() {
                    let (bank, _, _) = self.cfg.map(q.req.addr);
                    let b = &self.banks[bank];
                    if b.next_act_at <= now && b.next_cas_at <= now {
                        pick = Some(0);
                    }
                }
            }
        }
        let Some(i) = pick else { return };
        let q = self.queue.remove(i);
        let (bank_idx, row, group) = self.cfg.map(q.req.addr);
        let cfg = self.cfg.clone();
        let bank = &mut self.banks[bank_idx];

        let cas_at = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                bank.hit_streak += 1;
                now.max(bank.next_cas_at)
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                bank.hit_streak = 0;
                let pre_at = now.max(bank.next_cas_at).max(bank.last_act_at + cfg.t_ras);
                let act_at = pre_at + cfg.t_rp;
                bank.last_act_at = act_at;
                bank.open_row = Some(row);
                act_at + cfg.t_rcd
            }
            None => {
                self.stats.row_empty += 1;
                bank.hit_streak = 0;
                let act_at = now.max(bank.next_act_at);
                bank.last_act_at = act_at;
                bank.open_row = Some(row);
                act_at + cfg.t_rcd
            }
        };
        // Column-command spacing depends on whether we stay in the bank group.
        let ccd = if self.last_group == Some(group) {
            cfg.t_ccd_l
        } else {
            cfg.t_ccd_s
        };
        self.last_group = Some(group);
        bank.next_cas_at = cas_at + ccd;

        let data_start = (cas_at + cfg.t_cl).max(self.bus_free_at);
        let data_end = data_start + cfg.t_bl;
        self.bus_free_at = data_end;
        self.bus.mark_busy_range(data_start, data_end);
        self.stats.data_bytes += BLOCK_BYTES as u64;

        // Row-buffer management after the column access.
        let close = match cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::Closed => true,
            PagePolicy::OpenAdaptive => !self.queue.iter().any(|other| {
                let (b2, r2, _) = cfg.map(other.req.addr);
                b2 == bank_idx && r2 == row
            }),
        };
        let bank = &mut self.banks[bank_idx];
        if close {
            bank.open_row = None;
            let pre_at = (cas_at + cfg.t_rtp).max(bank.last_act_at + cfg.t_ras);
            bank.next_act_at = pre_at + cfg.t_rp;
        }

        match q.req.command {
            WideCommand::Read => {
                self.stats.reads += 1;
                self.in_flight.push(InFlight {
                    complete_at: data_end + cfg.response_overhead,
                    read_seq: q.read_seq,
                    addr: q.req.addr,
                    tag: q.req.tag,
                });
            }
            WideCommand::Write { .. } => {
                // Data committed at accept time (program order); this arm
                // models only the access timing.
                self.stats.writes += 1;
            }
        }
    }

    fn retire(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].complete_at <= now {
                let f = self.in_flight.swap_remove(i);
                if let Some(rs) = f.read_seq {
                    let data = self.memory.read_block(f.addr);
                    self.reorder.insert(
                        rs,
                        WideResponse {
                            addr: f.addr,
                            tag: f.tag,
                            data: Box::new(data),
                        },
                    );
                }
            } else {
                i += 1;
            }
        }
    }
}

impl ChannelPort for HbmChannel {
    fn try_request(&mut self, _now: Cycle, req: WideRequest) -> Result<(), WideRequest> {
        if self.queue.len() >= self.cfg.queue_depth {
            return Err(req);
        }
        debug_assert_eq!(req.addr % BLOCK_BYTES as u64, 0);
        let read_seq = req.is_read().then(|| {
            let s = self.next_read_seq;
            self.next_read_seq += 1;
            s
        });
        // Write data commits in acceptance (program) order so FR-FCFS
        // reordering can never break write-after-write dependencies; the
        // queued request continues to model the access timing.
        if let WideCommand::Write { data, mask } = &req.command {
            let mut block = self.memory.read_block(req.addr);
            crate::apply_masked_write(&mut block, data, *mask);
            self.memory.write_block(req.addr, &block);
        }
        self.queue.push(QueuedRequest { read_seq, req });
        Ok(())
    }

    fn tick(&mut self, now: Cycle) {
        self.retire(now);
        self.schedule(now);
    }

    fn pop_response(&mut self, _now: Cycle) -> Option<WideResponse> {
        if let Some(resp) = self.reorder.remove(&self.next_deliver_seq) {
            self.next_deliver_seq += 1;
            Some(resp)
        } else {
            None
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.reorder.is_empty()
    }

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn data_bytes(&self) -> u64 {
        self.stats.data_bytes
    }

    fn peak_bytes_per_cycle(&self) -> u64 {
        self.cfg.peak_bytes_per_cycle()
    }

    fn dram_stats(&self) -> Option<HbmStats> {
        Some(self.stats())
    }

    fn reset_run_state(&mut self) {
        assert!(self.is_idle(), "reset_run_state on a busy HBM channel");
        self.banks = vec![BankState::default(); self.cfg.banks];
        self.bus_free_at = 0;
        self.last_group = None;
        self.next_read_seq = 0;
        self.next_deliver_seq = 0;
        self.bus = BusyTracker::new();
        self.stats = HbmStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_reads;

    fn fresh(cfg: HbmConfig) -> HbmChannel {
        HbmChannel::new(cfg, Memory::new(1 << 22))
    }

    #[test]
    fn single_read_latency_is_closed_bank_path() {
        let cfg = HbmConfig::default();
        let expected = cfg.t_rcd + cfg.t_cl + cfg.t_bl + cfg.response_overhead;
        let mut chan = fresh(cfg);
        let (_, cycles) = run_reads(&mut chan, &[0]);
        // Issued on cycle 0 and popped in cycle `cycles - 1` (the driver
        // counts that cycle too): exactly the closed-bank path.
        assert_eq!(cycles - 1, expected);
    }

    #[test]
    fn responses_carry_memory_contents() {
        let mut chan = fresh(HbmConfig::default());
        chan.memory_mut().write_u64(256, 777);
        chan.memory_mut().write_u64(264, 888);
        let (resps, _) = run_reads(&mut chan, &[256]);
        assert_eq!(
            u64::from_le_bytes(resps[0].data[0..8].try_into().unwrap()),
            777
        );
        assert_eq!(
            u64::from_le_bytes(resps[0].data[8..16].try_into().unwrap()),
            888
        );
    }

    #[test]
    fn responses_are_in_request_order_even_with_bank_conflicts() {
        let cfg = HbmConfig::default();
        // Alternate two rows of the same bank (guaranteed conflicts) with
        // hits to another bank; FR-FCFS will service hits first but the
        // reorder buffer must still deliver in request order.
        let bank_stride = cfg.row_bytes; // next bank
        let row_stride = cfg.row_bytes * cfg.banks as u64; // same bank, next row
        let addrs = vec![
            0,
            row_stride,  // same bank 0, different row → conflict
            bank_stride, // bank 1
            bank_stride + 64,
            2 * row_stride, // bank 0 again
            bank_stride + 128,
        ];
        let mut chan = fresh(cfg);
        let (resps, _) = run_reads(&mut chan, &addrs);
        let tags: Vec<u64> = resps.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn streaming_same_row_hits_open_row() {
        let cfg = HbmConfig::default();
        let mut chan = fresh(cfg.clone());
        // All 16 blocks of one row, sequential.
        let addrs: Vec<u64> = (0..cfg.row_bytes / 64).map(|i| i * 64).collect();
        let (_, _) = run_reads(&mut chan, &addrs);
        let s = chan.stats();
        assert_eq!(s.reads, 16);
        assert!(
            s.row_hits >= 14,
            "sequential row traffic should be almost all hits, got {s:?}"
        );
    }

    #[test]
    fn streaming_bandwidth_approaches_peak() {
        let cfg = HbmConfig::default();
        let mut chan = fresh(cfg.clone());
        // 512 sequential blocks: 32 KiB across all banks.
        let addrs: Vec<u64> = (0..512u64).map(|i| i * 64).collect();
        let (resps, cycles) = run_reads(&mut chan, &addrs);
        assert_eq!(resps.len(), 512);
        let bytes = 512 * 64;
        let gbps = bytes as f64 / cycles as f64; // GB/s at 1 GHz
        assert!(
            gbps > 24.0,
            "streaming should reach most of the 32 GB/s peak, got {gbps:.1}"
        );
    }

    #[test]
    fn random_access_bandwidth_is_much_lower_than_streaming() {
        let cfg = HbmConfig::default();
        // Strided pattern touching a new row every access in the same bank.
        let row_stride = cfg.row_bytes * cfg.banks as u64;
        let addrs: Vec<u64> = (0..128u64).map(|i| i * row_stride).collect();
        let mut chan = fresh(cfg);
        let (_, cycles) = run_reads(&mut chan, &addrs);
        let gbps = (128 * 64) as f64 / cycles as f64;
        assert!(
            gbps < 8.0,
            "same-bank row-conflict traffic must be slow, got {gbps:.1}"
        );
    }

    #[test]
    fn queue_backpressure() {
        let cfg = HbmConfig {
            queue_depth: 2,
            ..HbmConfig::default()
        };
        let mut chan = fresh(cfg);
        assert!(chan.try_request(0, WideRequest::read(0, 0)).is_ok());
        assert!(chan.try_request(0, WideRequest::read(64, 1)).is_ok());
        let rejected = chan.try_request(0, WideRequest::read(128, 2));
        assert!(rejected.is_err());
    }

    #[test]
    fn writes_commit_data_and_count_traffic() {
        let mut chan = fresh(HbmConfig::default());
        let mut blk = [0u8; BLOCK_BYTES];
        blk[0] = 0xAB;
        chan.try_request(0, WideRequest::write(64, 0, blk)).unwrap();
        for now in 0..200 {
            chan.tick(now);
        }
        assert_eq!(chan.memory().read_block(64)[0], 0xAB);
        assert_eq!(chan.stats().writes, 1);
        assert_eq!(chan.stats().data_bytes, 64);
        assert!(chan.is_idle());
    }

    #[test]
    fn hit_streak_cap_prevents_starvation() {
        let cfg = HbmConfig {
            max_hit_streak: 4,
            queue_depth: 64,
            ..HbmConfig::default()
        };
        let row_stride = cfg.row_bytes * cfg.banks as u64;
        let mut chan = fresh(cfg);
        // One poor miss request to bank 0 row 1, then a long stream of hits
        // to bank 0 row 0. The cap must let the miss through eventually.
        let mut addrs = vec![row_stride];
        addrs.extend((0..12u64).map(|i| i * 64));
        let (resps, _) = run_reads(&mut chan, &addrs);
        assert_eq!(resps.len(), 13);
    }

    #[test]
    fn stats_row_hit_rate_bounds() {
        let mut chan = fresh(HbmConfig::default());
        let addrs: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
        run_reads(&mut chan, &addrs);
        let rate = chan.stats().row_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::run_reads;

    fn run(cfg: HbmConfig, addrs: &[u64]) -> Cycle {
        let mut chan = HbmChannel::new(cfg, Memory::new(1 << 22));
        run_reads(&mut chan, addrs).1
    }

    /// Interleaving requests between two rows of the same bank: FR-FCFS
    /// groups the hits while FCFS ping-pongs and pays conflicts.
    #[test]
    fn frfcfs_beats_fcfs_on_row_interleaving() {
        let cfg = HbmConfig::default();
        let row_stride = cfg.row_bytes * cfg.banks as u64;
        // Burst arrival: many requests queued at once alternating rows.
        let addrs: Vec<u64> = (0..64u64)
            .map(|i| (i % 2) * row_stride + (i / 2) * 64)
            .collect();
        let fr = run(HbmConfig::default(), &addrs);
        let fc = run(
            HbmConfig {
                sched_policy: SchedPolicy::Fcfs,
                ..HbmConfig::default()
            },
            &addrs,
        );
        assert!(
            fc > fr,
            "FCFS ({fc}) must be slower than FR-FCFS ({fr}) on row ping-pong"
        );
    }

    /// Closed-page pays activate+precharge on every streaming access and
    /// must lose to open-adaptive on sequential traffic.
    #[test]
    fn closed_page_slower_on_streaming() {
        let addrs: Vec<u64> = (0..256u64).map(|i| i * 64).collect();
        let open = run(HbmConfig::default(), &addrs);
        let closed = run(
            HbmConfig {
                page_policy: PagePolicy::Closed,
                ..HbmConfig::default()
            },
            &addrs,
        );
        assert!(
            closed > open,
            "closed-page ({closed}) must be slower than open-adaptive ({open})"
        );
    }

    /// Pure open-page matches open-adaptive on streaming (no conflicts to
    /// punish the speculation).
    #[test]
    fn open_page_matches_adaptive_on_streaming() {
        let addrs: Vec<u64> = (0..256u64).map(|i| i * 64).collect();
        let adaptive = run(HbmConfig::default(), &addrs);
        let open = run(
            HbmConfig {
                page_policy: PagePolicy::Open,
                ..HbmConfig::default()
            },
            &addrs,
        );
        let diff = (open as f64 - adaptive as f64).abs() / adaptive as f64;
        assert!(diff < 0.10, "open {open} vs adaptive {adaptive}");
    }

    /// Masked writes only touch enabled bytes.
    #[test]
    fn masked_write_commits_partial_bytes() {
        let mut chan = HbmChannel::new(HbmConfig::default(), Memory::new(1 << 12));
        chan.memory_mut().write_u64(64, 0x1111_1111_1111_1111);
        chan.memory_mut().write_u64(72, 0x2222_2222_2222_2222);
        let mut data = [0u8; BLOCK_BYTES];
        data[8..16].copy_from_slice(&0x9999_9999_9999_9999u64.to_le_bytes());
        let mask = 0xFF00; // bytes 8..16 only
        chan.try_request(0, WideRequest::write_masked(64, 0, data, mask))
            .unwrap();
        for now in 0..100 {
            chan.tick(now);
        }
        assert_eq!(chan.memory().read_u64(64), 0x1111_1111_1111_1111);
        assert_eq!(chan.memory().read_u64(72), 0x9999_9999_9999_9999);
    }
}
