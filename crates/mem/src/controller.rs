//! Timing half of the HBM2 model: one channel's banks, FR-FCFS queue,
//! page policy and data bus. A controller never sees data, addresses
//! above its own channel, or tags — the port (`channel.rs`) owns the
//! store and the request order and tells it only *which bank and row*
//! and *which read* (a sequence number it hands back on completion).

use std::collections::VecDeque;

use nmpic_sim::Cycle;

use crate::BLOCK_BYTES;

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

    /// Maps a channel-local block address to `(bank, row, bank_group)`.
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

    /// Element-wise sum of two stat blocks — the aggregation step for
    /// multi-channel ports and multi-unit (sharded) engines.
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

/// One queued access, decoded once at accept.
#[derive(Debug, Clone, Copy)]
struct Queued {
    bank: usize,
    row: u64,
    group: usize,
    /// The port's sequence number for a read, `None` for a write.
    read_seq: Option<usize>,
}

/// The timing model of one HBM2 channel.
///
/// Scheduling is **FR-FCFS**: among queued requests, the oldest row hit
/// whose bank can accept a CAS this cycle wins; otherwise the oldest
/// request overall is started (activating/precharging as needed). A
/// starvation cap bounds consecutive hits per bank. The page policy is
/// **open adaptive**: after a CAS, the row stays open only if another
/// queued request targets it; otherwise an auto-precharge is scheduled.
#[derive(Debug, Clone)]
pub(crate) struct Controller {
    banks: Vec<BankState>,
    /// Accepted requests in arrival order.
    queue: Vec<Queued>,
    /// Issued reads as `(complete_at, read_seq)`, in issue order.
    in_flight: VecDeque<(Cycle, usize)>,
    bus_free_at: Cycle,
    last_group: Option<usize>,
    stats: HbmStats,
}

impl Controller {
    pub(crate) fn new(cfg: &HbmConfig) -> Self {
        Self {
            banks: vec![BankState::default(); cfg.banks],
            queue: Vec::new(),
            in_flight: VecDeque::new(),
            bus_free_at: 0,
            last_group: None,
            stats: HbmStats::default(),
        }
    }

    /// Statistics gathered so far.
    pub(crate) fn stats(&self) -> HbmStats {
        self.stats
    }

    /// `true` when the request queue cannot take another entry.
    pub(crate) fn is_full(&self, cfg: &HbmConfig) -> bool {
        self.queue.len() >= cfg.queue_depth
    }

    /// `true` when nothing is queued or on its way back.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Queues an access to channel-local address `local`; the caller has
    /// checked [`Controller::is_full`].
    pub(crate) fn accept(&mut self, cfg: &HbmConfig, local: u64, read_seq: Option<usize>) {
        let (bank, row, group) = cfg.map(local);
        self.queue.push(Queued {
            bank,
            row,
            group,
            read_seq,
        });
    }

    /// Pops the sequence number of the next read whose data is back by
    /// `now`.
    pub(crate) fn pop_completed(&mut self, now: Cycle) -> Option<usize> {
        let &(complete_at, seq) = self.in_flight.front()?;
        if complete_at > now {
            return None;
        }
        self.in_flight.pop_front();
        Some(seq)
    }

    /// The earliest cycle at which [`Controller::pop_completed`] or
    /// [`Controller::schedule`] can act without a new `accept`, `None` when
    /// nothing is queued or in flight. `schedule` can issue a queued
    /// access (any under FR-FCFS, the oldest under FCFS) once its bank is
    /// ready, and a row hit once its bank takes a CAS; the two coincide
    /// because an open bank's `next_act_at` always precedes its
    /// `next_cas_at` (the activate comes before the CAS). Bank state
    /// changes only when `schedule` issues, so the answer holds until
    /// then.
    pub(crate) fn next_event(&self, cfg: &HbmConfig) -> Option<Cycle> {
        let ready = |q: &Queued| {
            let b = &self.banks[q.bank];
            b.next_act_at.max(b.next_cas_at)
        };
        let issue = match cfg.sched_policy {
            SchedPolicy::FrFcfs => self.queue.iter().map(ready).min(),
            SchedPolicy::Fcfs => self.queue.first().map(ready),
        };
        let retire = self.in_flight.front().map(|&(complete_at, _)| complete_at);
        issue.into_iter().chain(retire).min()
    }

    /// Issues at most one queued request this cycle.
    pub(crate) fn schedule(&mut self, cfg: &HbmConfig, now: Cycle) {
        let ready = |b: &BankState| b.next_act_at <= now && b.next_cas_at <= now;
        let pick = match cfg.sched_policy {
            // `queue` is in arrival order, so the first match is the
            // oldest: a ready row hit under the streak cap, else any
            // request whose bank is not committed to a future command.
            // One pass finds both: it stops at the first row hit and
            // remembers the first ready entry it passed on the way.
            SchedPolicy::FrFcfs => {
                let mut first_ready = None;
                let mut row_hit = None;
                for (i, q) in self.queue.iter().enumerate() {
                    let b = &self.banks[q.bank];
                    // Row test first: it fails for almost every entry of
                    // a conflict-bound queue, so the branch predicts.
                    if b.open_row == Some(q.row)
                        && b.next_cas_at <= now
                        && b.hit_streak < cfg.max_hit_streak
                    {
                        row_hit = Some(i);
                        break;
                    }
                    if first_ready.is_none() && ready(b) {
                        first_ready = Some(i);
                    }
                }
                row_hit.or(first_ready)
            }
            // Strict order: only the head of the queue may issue.
            SchedPolicy::Fcfs => self
                .queue
                .first()
                .filter(|q| ready(&self.banks[q.bank]))
                .map(|_| 0),
        };
        let Some(i) = pick else { return };
        let q = self.queue.remove(i);
        let bank = &mut self.banks[q.bank];

        let cas_at = match bank.open_row {
            Some(open) if open == q.row => {
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
                bank.open_row = Some(q.row);
                act_at + cfg.t_rcd
            }
            None => {
                self.stats.row_empty += 1;
                bank.hit_streak = 0;
                let act_at = now.max(bank.next_act_at);
                bank.last_act_at = act_at;
                bank.open_row = Some(q.row);
                act_at + cfg.t_rcd
            }
        };
        // Column-command spacing depends on whether we stay in the bank group.
        let ccd = if self.last_group == Some(q.group) {
            cfg.t_ccd_l
        } else {
            cfg.t_ccd_s
        };
        self.last_group = Some(q.group);
        bank.next_cas_at = cas_at + ccd;

        let data_start = (cas_at + cfg.t_cl).max(self.bus_free_at);
        let data_end = data_start + cfg.t_bl;
        self.bus_free_at = data_end;
        self.stats.bus_busy_cycles += data_end - data_start;
        self.stats.data_bytes += BLOCK_BYTES as u64;

        // Row-buffer management after the column access.
        let close = match cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::Closed => true,
            PagePolicy::OpenAdaptive => !self
                .queue
                .iter()
                .any(|other| other.bank == q.bank && other.row == q.row),
        };
        if close {
            bank.open_row = None;
            let pre_at = (cas_at + cfg.t_rtp).max(bank.last_act_at + cfg.t_ras);
            bank.next_act_at = pre_at + cfg.t_rp;
        }

        match q.read_seq {
            Some(seq) => {
                self.stats.reads += 1;
                let complete_at = data_end + cfg.response_overhead;
                // The bus is reserved in issue order (`bus_free_at` only
                // grows), which is what lets `pop_completed` look at the
                // front alone.
                debug_assert!(self.in_flight.back().is_none_or(|b| b.0 < complete_at));
                self.in_flight.push_back((complete_at, seq));
            }
            // A write's data was committed by the port at accept; this
            // models only the access timing.
            None => self.stats.writes += 1,
        }
    }

    /// Returns an idle controller to its cold state at cycle 0.
    pub(crate) fn reset(&mut self) {
        debug_assert!(self.is_idle());
        self.banks.fill(BankState::default());
        self.bus_free_at = 0;
        self.last_group = None;
        self.stats = HbmStats::default();
    }
}
