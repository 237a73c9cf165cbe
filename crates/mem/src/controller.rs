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
    /// Checks that the geometry and timing can be simulated.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, when `banks`, `banks_per_group`,
    /// `row_bytes`, `queue_depth` or `t_bl` is zero: the first three
    /// divide in [`HbmConfig::map`], a zero-entry queue refuses every
    /// request, and a zero-cycle burst divides the peak bandwidth.
    pub fn assert_valid(&self) {
        assert!(self.banks > 0, "HbmConfig: banks must be > 0");
        assert!(
            self.banks_per_group > 0,
            "HbmConfig: banks_per_group must be > 0"
        );
        assert!(self.row_bytes > 0, "HbmConfig: row_bytes must be > 0");
        assert!(self.queue_depth > 0, "HbmConfig: queue_depth must be > 0");
        assert!(self.t_bl > 0, "HbmConfig: t_bl must be > 0");
    }

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

/// A DRAM command as the controller times it, logged in test builds for
/// the legality checker (`tests/legality.rs`).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Command {
    pub(crate) cycle: Cycle,
    pub(crate) bank: usize,
    pub(crate) kind: CommandKind,
}

/// What a logged [`Command`] does.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommandKind {
    /// Opens `row`.
    Act { row: u64 },
    /// Closes the open row.
    Pre,
    /// A column read of `row` whose burst starts on the bus at `data_at`.
    Rd { row: u64, data_at: Cycle },
    /// A column write of `row` whose burst starts on the bus at `data_at`.
    Wr { row: u64, data_at: Cycle },
}

/// End of a bank's queue list and of the free-slot list.
const NIL: usize = usize::MAX;

/// One bank's timing state and its share of the request queue.
#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    next_act_at: Cycle,
    next_cas_at: Cycle,
    last_act_at: Cycle,
    hit_streak: u32,
    /// `max(next_act_at, next_cas_at)`: the first cycle at which a queued
    /// access to this bank can issue. An open bank's activate precedes
    /// its next CAS, so for an open bank this is also when a row hit can
    /// take its CAS.
    ready_at: Cycle,
    /// First and last queue slot of this bank's accesses, linked through
    /// [`Queued::next`] in arrival order; `NIL` when none is queued.
    head: usize,
    tail: usize,
    /// Queued accesses to the open row (0 while the bank is closed).
    hits: usize,
    /// Position in `Controller::active` while an access is queued.
    active_at: usize,
}

const COLD_BANK: BankState = BankState {
    open_row: None,
    next_act_at: 0,
    next_cas_at: 0,
    last_act_at: 0,
    hit_streak: 0,
    ready_at: 0,
    head: NIL,
    tail: NIL,
    hits: 0,
    active_at: NIL,
};

/// One queued access, decoded once at accept.
#[derive(Debug, Clone, Copy)]
struct Queued {
    bank: usize,
    row: u64,
    group: usize,
    /// The port's sequence number for a read, `None` for a write.
    read_seq: Option<usize>,
    /// Position in this run's arrival order: the oldest access has the
    /// smallest.
    arrival: u64,
    /// The next slot of this bank's list, or of the free list; `NIL` at
    /// the end.
    next: usize,
}

/// An access `schedule` chose to issue.
#[derive(Debug, Clone, Copy)]
struct Pick {
    /// Its predecessor in its bank's list, `NIL` for the head.
    prev: usize,
    slot: usize,
    /// The smallest `ready_at` over the other active banks, when the pick
    /// saw them all (FR-FCFS): `issue_at` after the issue is its minimum
    /// with the picked bank's. `None` under FCFS, which picks the cached
    /// oldest access and then looks for the next-oldest one.
    others_ready_at: Option<Cycle>,
}

/// The timing model of one HBM2 channel.
///
/// Scheduling is **FR-FCFS**: among queued requests, the oldest row hit
/// whose bank can accept a CAS this cycle wins; otherwise the oldest
/// request overall is started (activating/precharging as needed). A
/// starvation cap bounds consecutive hits per bank. The page policy is
/// **open adaptive**: after a CAS, the row stays open only if another
/// queued request targets it; otherwise an auto-precharge is scheduled.
///
/// The host cost follows the commands issued, not the cycles ticked.
/// The queue is a slot array whose live entries are linked per bank in
/// arrival order. Each bank caches `ready_at` and the number of queued
/// hits on its open row, and the controller caches `issue_at`, the first
/// cycle at which any queued access can issue. A `schedule` before
/// `issue_at` returns at once, and [`Controller::next_event`] reads the
/// cache. An issue makes one pass over the banks with a queued access,
/// which picks the access and finds the other banks' earliest ready
/// cycle for the new `issue_at`. The only queue entries it visits are
/// those up to a ready bank's oldest row hit and, when a row opens,
/// that bank's entries, to count its hits. Debug builds check every cached value
/// against a scan of the whole queue on every `schedule` and port-level
/// `next_event`.
#[derive(Debug, Clone)]
pub(crate) struct Controller {
    banks: Vec<BankState>,
    /// The banks with a queued access, in no particular order: the only
    /// bank records an issue examines.
    active: Vec<usize>,
    /// Queue storage: live slots are linked per bank, the others from
    /// `free`.
    slots: Vec<Queued>,
    /// First free slot, `NIL` when every slot is live.
    free: usize,
    /// Live slots.
    queued: usize,
    /// Accesses accepted this run: the next one's `arrival`.
    arrivals: u64,
    /// The first cycle at which `schedule` can issue: under FR-FCFS the
    /// smallest `ready_at` over the banks with a queued access, under
    /// FCFS the oldest access's bank's; `Cycle::MAX` when nothing is
    /// queued.
    issue_at: Cycle,
    /// FCFS only: the bank of the oldest queued access, `NIL` when
    /// nothing is queued.
    oldest_bank: usize,
    /// Issued reads as `(complete_at, read_seq)`, in issue order.
    in_flight: VecDeque<(Cycle, usize)>,
    bus_free_at: Cycle,
    last_group: Option<usize>,
    stats: HbmStats,
    /// Queue entries and bank records `schedule` has examined.
    probes: u64,
    /// Every command issued this run, in issue order.
    #[cfg(test)]
    commands: Vec<Command>,
}

impl Controller {
    pub(crate) fn new(cfg: &HbmConfig) -> Self {
        Self {
            banks: vec![COLD_BANK; cfg.banks],
            active: Vec::with_capacity(cfg.banks),
            slots: Vec::new(),
            free: NIL,
            queued: 0,
            arrivals: 0,
            issue_at: Cycle::MAX,
            oldest_bank: NIL,
            in_flight: VecDeque::new(),
            bus_free_at: 0,
            last_group: None,
            stats: HbmStats::default(),
            probes: 0,
            #[cfg(test)]
            commands: Vec::new(),
        }
    }

    /// Statistics gathered so far.
    pub(crate) fn stats(&self) -> HbmStats {
        self.stats
    }

    /// Queue entries and bank records the scheduler has examined so far.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// `true` when the request queue cannot take another entry.
    pub(crate) fn is_full(&self, cfg: &HbmConfig) -> bool {
        self.queued >= cfg.queue_depth
    }

    /// `true` when nothing is queued or on its way back.
    pub(crate) fn is_idle(&self) -> bool {
        self.queued == 0 && self.in_flight.is_empty()
    }

    /// Queues an access to channel-local address `local`; the caller has
    /// checked [`Controller::is_full`].
    pub(crate) fn accept(&mut self, cfg: &HbmConfig, local: u64, read_seq: Option<usize>) {
        let (bank, row, group) = cfg.map(local);
        let q = Queued {
            bank,
            row,
            group,
            read_seq,
            arrival: self.arrivals,
            next: NIL,
        };
        self.arrivals += 1;
        let slot = if self.free == NIL {
            self.slots.push(q);
            self.slots.len() - 1
        } else {
            let slot = self.free;
            self.free = self.slots[slot].next;
            self.slots[slot] = q;
            slot
        };
        let b = &mut self.banks[bank];
        if b.tail == NIL {
            b.head = slot;
            b.active_at = self.active.len();
            self.active.push(bank);
        } else {
            self.slots[b.tail].next = slot;
        }
        b.tail = slot;
        if b.open_row == Some(row) {
            b.hits += 1;
        }
        match cfg.sched_policy {
            SchedPolicy::FrFcfs => self.issue_at = self.issue_at.min(b.ready_at),
            SchedPolicy::Fcfs if self.queued == 0 => {
                self.issue_at = b.ready_at;
                self.oldest_bank = bank;
            }
            SchedPolicy::Fcfs => {}
        }
        self.queued += 1;
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
    /// [`Controller::schedule`] can act without a new `accept`,
    /// `Cycle::MAX` when nothing is queued or in flight: the first
    /// completion in flight or the cached `issue_at`. Bank state changes
    /// only when `schedule` issues, so the answer holds until then.
    pub(crate) fn next_event(&self) -> Cycle {
        let retire = self.in_flight.front().map_or(Cycle::MAX, |&(at, _)| at);
        self.issue_at.min(retire)
    }

    /// Issues at most one queued request this cycle.
    pub(crate) fn schedule(&mut self, cfg: &HbmConfig, now: Cycle) {
        #[cfg(debug_assertions)]
        let scanned = self.scan_pick(cfg, now);
        if now < self.issue_at {
            #[cfg(debug_assertions)]
            assert_eq!(
                scanned, None,
                "cycle {now}: the queue scan issues before issue_at"
            );
            return;
        }
        let pick = match cfg.sched_policy {
            SchedPolicy::FrFcfs => self.pick_first_ready(cfg, now),
            // Strict order: only the oldest request may issue, and
            // `issue_at` says its bank is ready.
            SchedPolicy::Fcfs => (self.oldest_bank != NIL).then(|| Pick {
                prev: NIL,
                slot: self.banks[self.oldest_bank].head,
                others_ready_at: None,
            }),
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            pick.map(|p| self.slots[p.slot].arrival),
            scanned,
            "cycle {now}: the pick differs from the queue scan's"
        );
        let Some(pick) = pick else { return };
        let q = self.unlink(pick.prev, pick.slot);
        self.issue(cfg, now, &q);
        // Only the issued bank's record changed.
        let b = &self.banks[q.bank];
        let own = if b.head == NIL {
            Cycle::MAX
        } else {
            b.ready_at
        };
        self.issue_at = match pick.others_ready_at {
            Some(others) => others.min(own),
            None => {
                self.probes += self.active.len() as u64;
                let head = |&i: &usize| self.slots[self.banks[i].head].arrival;
                self.oldest_bank = self.active.iter().copied().min_by_key(head).unwrap_or(NIL);
                self.banks
                    .get(self.oldest_bank)
                    .map_or(Cycle::MAX, |b| b.ready_at)
            }
        };
    }

    /// FR-FCFS over the ready banks: the oldest row hit under the streak
    /// cap, else the oldest access. The same pass over the active banks
    /// finds the smallest `ready_at` among the banks it does not pick.
    fn pick_first_ready(&mut self, cfg: &HbmConfig, now: Cycle) -> Option<Pick> {
        // `(arrival, predecessor, slot)` of the best row hit, and
        // `(arrival, slot)` of the oldest ready access (a list head).
        let mut hit: Option<(u64, usize, usize)> = None;
        let mut oldest: Option<(u64, usize)> = None;
        // The two smallest `ready_at`, and the bank of the first.
        let (mut first, mut first_bank, mut second) = (Cycle::MAX, NIL, Cycle::MAX);
        let mut walked = 0;
        for &i in &self.active {
            let b = &self.banks[i];
            if b.ready_at < first {
                (first, first_bank, second) = (b.ready_at, i, first);
            } else if b.ready_at < second {
                second = b.ready_at;
            }
            if b.ready_at > now {
                continue;
            }
            let head = self.slots[b.head].arrival;
            if oldest.is_none_or(|(a, _)| head < a) {
                oldest = Some((head, b.head));
            }
            // A bank's oldest hit is no older than its head, so look for
            // it only when the head beats the best hit so far.
            if b.hits > 0 && b.hit_streak < cfg.max_hit_streak && hit.is_none_or(|h| head < h.0) {
                let (mut prev, mut slot) = (NIL, b.head);
                while Some(self.slots[slot].row) != b.open_row {
                    prev = slot;
                    slot = self.slots[slot].next;
                    walked += 1;
                }
                walked += 1;
                let arrival = self.slots[slot].arrival;
                if hit.is_none_or(|h| arrival < h.0) {
                    hit = Some((arrival, prev, slot));
                }
            }
        }
        self.probes += self.active.len() as u64 + walked;
        let (prev, slot) = hit
            .map(|(_, prev, slot)| (prev, slot))
            .or(oldest.map(|(_, slot)| (NIL, slot)))?;
        let others = if self.slots[slot].bank == first_bank {
            second
        } else {
            first
        };
        Some(Pick {
            prev,
            slot,
            others_ready_at: Some(others),
        })
    }

    /// Takes `slot` (preceded by `prev`, `NIL` for the head) out of its
    /// bank's list and onto the free list.
    fn unlink(&mut self, prev: usize, slot: usize) -> Queued {
        let q = self.slots[slot];
        let b = &mut self.banks[q.bank];
        if prev == NIL {
            b.head = q.next;
        } else {
            self.slots[prev].next = q.next;
        }
        if b.tail == slot {
            b.tail = prev;
        }
        if b.open_row == Some(q.row) {
            b.hits -= 1;
        }
        if b.head == NIL {
            let at = b.active_at;
            self.active.swap_remove(at);
            if let Some(&moved) = self.active.get(at) {
                self.banks[moved].active_at = at;
            }
        }
        self.slots[slot].next = self.free;
        self.free = slot;
        self.queued -= 1;
        q
    }

    /// Issues `q` at `now`: commands, data bus, page policy and the read's
    /// completion.
    fn issue(&mut self, cfg: &HbmConfig, now: Cycle, q: &Queued) {
        let bank = &mut self.banks[q.bank];
        let cas_at = match bank.open_row {
            Some(open) if open == q.row => {
                self.stats.row_hits += 1;
                bank.hit_streak += 1;
                now.max(bank.next_cas_at)
            }
            opened => {
                let act_at = if opened.is_some() {
                    self.stats.row_conflicts += 1;
                    let pre_at = now.max(bank.next_cas_at).max(bank.last_act_at + cfg.t_ras);
                    #[cfg(test)]
                    self.commands.push(Command {
                        cycle: pre_at,
                        bank: q.bank,
                        kind: CommandKind::Pre,
                    });
                    pre_at + cfg.t_rp
                } else {
                    self.stats.row_empty += 1;
                    now.max(bank.next_act_at)
                };
                #[cfg(test)]
                self.commands.push(Command {
                    cycle: act_at,
                    bank: q.bank,
                    kind: CommandKind::Act { row: q.row },
                });
                bank.hit_streak = 0;
                bank.last_act_at = act_at;
                bank.open_row = Some(q.row);
                // The newly opened row's queued hits; a closed page shuts
                // it again below whatever they are.
                if cfg.page_policy != PagePolicy::Closed {
                    let (mut hits, mut slot) = (0, bank.head);
                    while slot != NIL {
                        hits += usize::from(self.slots[slot].row == q.row);
                        slot = self.slots[slot].next;
                        self.probes += 1;
                    }
                    bank.hits = hits;
                }
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
        #[cfg(test)]
        self.commands.push(Command {
            cycle: cas_at,
            bank: q.bank,
            kind: match q.read_seq {
                Some(_) => CommandKind::Rd {
                    row: q.row,
                    data_at: data_start,
                },
                None => CommandKind::Wr {
                    row: q.row,
                    data_at: data_start,
                },
            },
        });

        // Row-buffer management after the column access.
        let close = match cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::Closed => true,
            PagePolicy::OpenAdaptive => bank.hits == 0,
        };
        if close {
            bank.open_row = None;
            bank.hits = 0;
            let pre_at = (cas_at + cfg.t_rtp).max(bank.last_act_at + cfg.t_ras);
            bank.next_act_at = pre_at + cfg.t_rp;
            #[cfg(test)]
            self.commands.push(Command {
                cycle: pre_at,
                bank: q.bank,
                kind: CommandKind::Pre,
            });
        }
        // `ready_at` doubles as the row-hit test only because an open
        // bank's activate precedes its next CAS.
        debug_assert!(bank.open_row.is_none() || bank.next_act_at <= bank.next_cas_at);
        bank.ready_at = bank.next_act_at.max(bank.next_cas_at);

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
        self.banks.fill(COLD_BANK);
        self.active.clear();
        self.slots.clear();
        self.free = NIL;
        self.arrivals = 0;
        self.issue_at = Cycle::MAX;
        self.oldest_bank = NIL;
        self.bus_free_at = 0;
        self.last_group = None;
        self.stats = HbmStats::default();
        self.probes = 0;
        #[cfg(test)]
        self.commands.clear();
    }

    /// The commands issued this run, in issue order.
    #[cfg(test)]
    pub(crate) fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// The scheduler without its caches, as a check of them: walks every
    /// bank's list (links, arrival order, `hits`, `ready_at`, the open
    /// bank's activate-before-CAS order), recomputes `issue_at` from the
    /// whole queue and asserts it equals the cached one. Returns the
    /// arrival number of the access an arrival-order scan of the queue
    /// would issue at `now`.
    #[cfg(debug_assertions)]
    pub(crate) fn scan_pick(&self, cfg: &HbmConfig, now: Cycle) -> Option<u64> {
        let (mut live, mut active) = (0, 0);
        let mut earliest = Cycle::MAX;
        // `(arrival, eligible at, bank)` of the oldest access.
        let mut oldest: Option<(u64, Cycle, usize)> = None;
        let mut row_hit: Option<u64> = None;
        let mut first_ready: Option<u64> = None;
        for (i, b) in self.banks.iter().enumerate() {
            let eligible = b.next_act_at.max(b.next_cas_at);
            assert_eq!(b.ready_at, eligible, "bank {i}: cached ready_at");
            assert!(
                b.open_row.is_none() || b.next_act_at <= b.next_cas_at,
                "bank {i}: an open bank's activate must precede its next CAS"
            );
            let ready = b.next_act_at <= now && b.next_cas_at <= now;
            let (mut slot, mut last, mut hits) = (b.head, NIL, 0);
            let mut previous: Option<u64> = None;
            while slot != NIL {
                let q = &self.slots[slot];
                assert_eq!(q.bank, i, "slot {slot} is on another bank's list");
                assert!(
                    previous.is_none_or(|p| p < q.arrival),
                    "bank {i}: arrival order"
                );
                previous = Some(q.arrival);
                live += 1;
                earliest = earliest.min(eligible);
                if oldest.is_none_or(|o| q.arrival < o.0) {
                    oldest = Some((q.arrival, eligible, i));
                }
                if b.open_row == Some(q.row) {
                    hits += 1;
                    if b.next_cas_at <= now && b.hit_streak < cfg.max_hit_streak {
                        row_hit = Some(row_hit.map_or(q.arrival, |a| a.min(q.arrival)));
                    }
                }
                if ready {
                    first_ready = Some(first_ready.map_or(q.arrival, |a| a.min(q.arrival)));
                }
                last = slot;
                slot = q.next;
            }
            assert_eq!(last, b.tail, "bank {i}: list tail");
            if b.head != NIL {
                assert_eq!(self.active.get(b.active_at), Some(&i), "bank {i}: active");
                active += 1;
            }
            assert_eq!(hits, b.hits, "bank {i}: queued hits on the open row");
        }
        assert_eq!(live, self.queued, "live slots");
        assert_eq!(active, self.active.len(), "active banks");
        let issue_at = match cfg.sched_policy {
            SchedPolicy::FrFcfs => earliest,
            SchedPolicy::Fcfs => {
                let bank = oldest.map_or(NIL, |o| o.2);
                assert_eq!(self.oldest_bank, bank, "cached oldest bank");
                oldest.map_or(Cycle::MAX, |o| o.1)
            }
        };
        assert_eq!(self.issue_at, issue_at, "cached issue_at");
        match cfg.sched_policy {
            SchedPolicy::FrFcfs => row_hit.or(first_ready),
            SchedPolicy::Fcfs => oldest.filter(|o| o.1 <= now).map(|o| o.0),
        }
    }
}
