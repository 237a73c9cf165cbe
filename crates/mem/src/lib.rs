//! # nmpic-mem — cycle-level HBM2 model and byte-accurate memory
//!
//! This crate stands in for DRAMSys in the paper's methodology (Table I):
//! HBM2 channels at 1 GHz with 32 GB/s ideal bandwidth each, a 512 b
//! (64 B) access granularity, and an **open-adaptive FR-FCFS**
//! controller.
//!
//! Everything the adapter in `nmpic-core` and the systems above it see
//! of memory is the [`ChannelPort`] trait: wide requests in, in-order
//! read responses out. A port is a *data store* plus a *timing model*:
//!
//! * [`Memory`] — the store: a flat, byte-accurate image with a bump
//!   allocator ([`Memory::alloc`]). All simulated data (index arrays,
//!   nonzeros, vectors) actually lives here, so gather results can be
//!   checked against a golden model. Every port owns exactly one.
//! * [`HbmChannel`] — the HBM2 port. It owns the store, the request
//!   order and one reorder buffer, in front of `channels ≥ 1`
//!   block-interleaved, crate-private timing controllers (16 banks in 4
//!   bank groups, row-buffer state machines, FR-FCFS with an adaptive
//!   open-page policy, a 32 B/cycle data bus each) that never touch
//!   data.
//! * [`IdealChannel`] — a fixed-latency, full-bandwidth port for unit
//!   tests and upper-bound studies.
//!
//! [`BackendConfig`] names and builds them (`ideal`, `hbm`, `hbm xN`);
//! [`Cache`] is the tag-only LLC model the baseline system and the
//! analytic model share.
//!
//! The ports differ in two rules that drivers rely on. **Visibility:** an
//! HBM read response appears in the [`ChannelPort::tick`] that retires
//! it; an ideal one at [`ChannelPort::pop_response`]`(now)` once `now`
//! reaches its completion cycle, whatever `tick` did. **Writes:** the HBM
//! port commits the data at accept (program order) and queues only the
//! timing; the ideal port commits when the write issues, and its
//! acknowledgement keeps [`ChannelPort::is_idle`] false until a
//! `pop_response` at or after completion drops it.
//!
//! # Skipping idle cycles: the `next_event` contract
//!
//! [`ChannelPort::next_event`] lets a driver jump over cycles in which the
//! port cannot act. It returns the earliest cycle at which `tick` or
//! `pop_response` can change state if no new request is offered, and
//! `None` when nothing will (an idle port always answers `None`). The
//! HBM port takes the minimum over its controllers of the first
//! completion in flight and, for each queued access, the cycle its bank
//! becomes eligible under the configured scheduler; a filled reorder head
//! answers "now". Both halves are cached — each controller keeps its
//! earliest issue cycle, the port the minimum over its controllers — so
//! the query costs O(1), and `tick` visits only the controllers that are
//! due. The ideal port takes its next issue slot when something
//! is queued and its first completion in flight.
//!
//! The contract a driver relies on, pinned by this crate's tests on
//! stream, random and write-mix traces under every scheduling and page
//! policy: a driver that jumps to `next_event` whenever it has nothing to
//! offer sees the same responses, delivered in the same cycles, the same
//! final cycle and the same [`HbmStats`] as one that ticks every cycle.
//! The driver's side of the contract is to offer nothing during the
//! skip: a request refused this cycle, or one it will offer next cycle,
//! rules the skip out, because acceptance is not an event the port
//! reports.
//!
//! # Example
//!
//! ```
//! use nmpic_mem::{Memory, HbmChannel, HbmConfig, WideRequest, ChannelPort, BLOCK_BYTES};
//!
//! let mut mem = Memory::new(1 << 20);
//! mem.write_u64(128, 0xdead_beef);
//! let mut chan = HbmChannel::new(HbmConfig::default(), mem);
//!
//! chan.try_request(0, WideRequest::read(128, 0)).unwrap();
//! let mut now = 0;
//! let resp = loop {
//!     chan.tick(now);
//!     if let Some(r) = chan.pop_response(now) { break r; }
//!     now += 1;
//!     assert!(now < 1000, "response must arrive");
//! };
//! assert_eq!(resp.addr, 128 / BLOCK_BYTES as u64 * BLOCK_BYTES as u64);
//! assert_eq!(u64::from_le_bytes(resp.data[..8].try_into().unwrap()), 0xdead_beef);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cache;
mod channel;
mod controller;
mod ideal;
mod memory;

pub use backend::{BackendConfig, BackendKind};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use channel::HbmChannel;
pub use controller::{HbmConfig, HbmStats, PagePolicy, SchedPolicy};
pub use ideal::IdealChannel;
pub use memory::Memory;

use nmpic_sim::Cycle;

/// Bytes per wide DRAM access: 512 b, the access granularity of modern
/// HBM/LPDDR interfaces the paper targets.
pub const BLOCK_BYTES: usize = 64;

/// One 512 b data block.
pub type Block = [u8; BLOCK_BYTES];

/// Rounds an address down to its containing wide block.
///
/// # Example
///
/// ```
/// use nmpic_mem::block_addr;
/// assert_eq!(block_addr(0), 0);
/// assert_eq!(block_addr(63), 0);
/// assert_eq!(block_addr(64), 64);
/// assert_eq!(block_addr(130), 128);
/// ```
pub fn block_addr(addr: u64) -> u64 {
    addr & !(BLOCK_BYTES as u64 - 1)
}

/// Byte offset of `addr` within its wide block.
///
/// # Example
///
/// ```
/// use nmpic_mem::block_offset;
/// assert_eq!(block_offset(0), 0);
/// assert_eq!(block_offset(70), 6);
/// ```
pub fn block_offset(addr: u64) -> usize {
    // nmpic-lint: allow(L1) — in range on every target: the mask bounds the value below BLOCK_BYTES (64)
    (addr & (BLOCK_BYTES as u64 - 1)) as usize
}

/// The command carried by a [`WideRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WideCommand {
    /// Read one wide block.
    Read,
    /// Write one wide block; `mask` bit *i* enables byte *i* (AXI write
    /// strobes), so narrow writes coalesced into a block leave the other
    /// bytes untouched.
    Write {
        /// The 64 B of write data (unmasked bytes are ignored).
        data: Block,
        /// Byte-enable mask, bit *i* for byte *i*.
        mask: u64,
    },
}

/// A wide (512 b) request presented to a memory channel.
///
/// `tag` is opaque to the channel and is echoed in the response; the
/// adapter uses it to route responses between its index and element paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideRequest {
    /// Block-aligned byte address.
    pub addr: u64,
    /// Requestor-defined routing tag, echoed in the response.
    pub tag: u64,
    /// Read or write.
    pub command: WideCommand,
}

impl WideRequest {
    /// A wide read of the block containing `addr`.
    pub fn read(addr: u64, tag: u64) -> Self {
        Self {
            addr: block_addr(addr),
            tag,
            command: WideCommand::Read,
        }
    }

    /// A wide write of the whole block containing `addr`.
    pub fn write(addr: u64, tag: u64, data: Block) -> Self {
        Self::write_masked(addr, tag, data, u64::MAX)
    }

    /// A wide write with byte-enable strobes (bit *i* of `mask` enables
    /// byte *i*).
    pub fn write_masked(addr: u64, tag: u64, data: Block, mask: u64) -> Self {
        Self {
            addr: block_addr(addr),
            tag,
            command: WideCommand::Write { data, mask },
        }
    }
}

/// A wide response carrying one block of data (reads only; writes are
/// acknowledged implicitly by traffic counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideResponse {
    /// Block-aligned byte address of the data.
    pub addr: u64,
    /// The routing tag from the originating request.
    pub tag: u64,
    /// The 64 B block content at completion time.
    pub data: Block,
}

/// The interface a memory channel presents to requestors.
///
/// Responses to reads are delivered **in request order** (single AXI ID
/// semantics): the controller may service requests out of order internally
/// (FR-FCFS) but reorders completions before delivery, exactly like an AXI
/// DRAM controller front-end.
///
/// `Send` is a supertrait: every channel model is plain owned data, and
/// requiring it here is what lets the sharded engine move each shard's
/// `Box<dyn ChannelPort>` onto its own worker thread and lets
/// `SpmvService` share prepared plans across submitting threads.
pub trait ChannelPort: Send {
    /// Offers a request; `Err` returns it when the controller queue is full.
    fn try_request(&mut self, now: Cycle, req: WideRequest) -> Result<(), WideRequest>;

    /// Advances the controller by one cycle.
    fn tick(&mut self, now: Cycle);

    /// Pops the next in-order read response, if one is ready.
    fn pop_response(&mut self, now: Cycle) -> Option<WideResponse>;

    /// The earliest cycle at which [`ChannelPort::tick`] or
    /// [`ChannelPort::pop_response`] can change the port's state if no new
    /// request is offered; `None` when nothing will change without one,
    /// which includes every idle port. A cycle at or before the current
    /// one means the port can act now (a response is already waiting, or
    /// a queued request can issue).
    ///
    /// The query is read-only. A driver that has finished cycle `now`
    /// (offers, `tick(now)`, `pop_response(now)` until `None`) and has
    /// nothing to offer until cycle `t` may skip straight to
    /// `min(t, next_event())`: every `tick` and `pop_response` it leaves
    /// out would have changed nothing. See the crate docs.
    fn next_event(&self) -> Option<Cycle>;

    /// `true` when no requests are queued or in flight.
    fn is_idle(&self) -> bool;

    /// Shared access to the backing store.
    fn memory(&self) -> &Memory;

    /// Mutable access to the backing store (workload setup).
    fn memory_mut(&mut self) -> &mut Memory;

    /// Total bytes moved on the data bus so far (reads + writes).
    fn data_bytes(&self) -> u64;

    /// Peak deliverable bytes per cycle (32 for the paper's HBM2 channel).
    fn peak_bytes_per_cycle(&self) -> u64;

    /// DRAM-internal statistics, when the backend models DRAM (aggregated
    /// across channels for multi-channel backends). `None` for idealized
    /// channels with no row-buffer behaviour.
    fn dram_stats(&self) -> Option<HbmStats> {
        None
    }

    /// Resets the channel's *run* state — controller timing (bank state,
    /// bus reservations, in-order sequencing) and traffic statistics —
    /// while leaving the backing [`Memory`] image untouched.
    ///
    /// This is what lets a prepared SpMV plan reuse a warm backend across
    /// runs: the matrix arrays stay resident, only the vector is
    /// rewritten, and each run starts from a deterministic cold
    /// controller at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if requests are still queued or in flight
    /// (`!`[`ChannelPort::is_idle`]) — resetting mid-burst would lose
    /// responses.
    fn reset_run_state(&mut self);
}

/// The trace driver of every channel model's tests: offers `reqs` in
/// order, one attempt per cycle, and ticks until the channel has drained;
/// returns the read responses in delivery order and the cycle count.
#[cfg(test)]
pub(crate) fn run_trace(
    chan: &mut dyn ChannelPort,
    reqs: &[WideRequest],
) -> (Vec<WideResponse>, Cycle) {
    let mut clk = nmpic_sim::SimClock::new("request trace", 1_000_000);
    let mut responses = Vec::new();
    let mut issued = 0;
    while issued < reqs.len() || !chan.is_idle() {
        if issued < reqs.len() && chan.try_request(clk.now(), reqs[issued].clone()).is_ok() {
            issued += 1;
        }
        chan.tick(clk.now());
        while let Some(r) = chan.pop_response(clk.now()) {
            responses.push(r);
        }
        clk.tick();
    }
    (responses, clk.now())
}

/// [`run_trace`] over reads of `addrs` (tag = position).
#[cfg(test)]
pub(crate) fn run_reads(chan: &mut dyn ChannelPort, addrs: &[u64]) -> (Vec<WideResponse>, Cycle) {
    let reqs: Vec<WideRequest> = (0u64..)
        .zip(addrs)
        .map(|(tag, &addr)| WideRequest::read(addr, tag))
        .collect();
    run_trace(chan, &reqs)
}

#[cfg(test)]
mod tests;
