//! Element request generator and the element path behind it: lane-queue
//! indices (or synthesized strided addresses) become narrow element
//! requests, which either merge in the coalescer or — in `MLPnc` — each
//! issue their own wide read.

use std::collections::VecDeque;

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_mem::{block_offset, Block, WideRequest, BLOCK_BYTES};
use nmpic_sim::{Cycle, Fifo};

use crate::coalescer::{Coalescer, CoalescerStats};
use crate::config::{AdapterConfig, CoalescerMode};
use crate::request::{ElemOut, ElemRequest};

use super::{IndirectStreamUnit, TAG_ELEM};

/// Where narrow element requests go, chosen once from the adapter
/// variant.
#[derive(Debug)]
// One per unit and touched every cycle: boxing the coalescer would put
// each of its accesses behind one more pointer.
#[allow(clippy::large_enum_variant)]
pub(super) enum ElemPath {
    /// `MLPx` / `SEQx`: requests merge in the coalescer.
    Coalesced(Coalesced),
    /// `MLPnc`: every request is its own wide read.
    Direct(Direct),
}

/// The coalescer, its wide request staged in front of the DRAM arbiter,
/// and the responses its splitter has not yet taken.
#[derive(Debug)]
pub(super) struct Coalesced {
    coal: Coalescer,
    held: Option<u64>,
    staging: VecDeque<Block>,
}

/// Direct wide reads, at most `limit` in flight.
#[derive(Debug)]
pub(super) struct Direct {
    req_q: Fifo<WideRequest>,
    /// Reads in issue order (stream position, element offset in the
    /// block) with the data of the first `arrived`: the channel answers
    /// in order, so a response meets its read by construction.
    reads: VecDeque<(u64, usize, Block)>,
    arrived: usize,
    out: Fifo<ElemOut>,
    limit: usize,
    width: ElemSize,
}

impl ElemPath {
    pub(super) fn new(cfg: &AdapterConfig) -> Self {
        match cfg.mode {
            CoalescerMode::None => ElemPath::Direct(Direct {
                req_q: Fifo::new("nocoal_req_q", 4),
                reads: VecDeque::new(),
                arrived: 0,
                out: Fifo::new("nocoal_out", 4),
                limit: cfg.nocoal_outstanding,
                width: cfg.elem_size,
            }),
            CoalescerMode::Parallel | CoalescerMode::Sequential => ElemPath::Coalesced(Coalesced {
                coal: Coalescer::new(cfg),
                held: None,
                staging: VecDeque::new(),
            }),
        }
    }

    pub(super) fn reset(&mut self) {
        match self {
            ElemPath::Coalesced(c) => {
                c.coal.reset();
                c.held = None;
                c.staging.clear();
            }
            ElemPath::Direct(d) => {
                d.req_q.clear();
                d.reads.clear();
                d.arrived = 0;
                d.out.clear();
            }
        }
    }

    pub(super) fn coalescer_stats(&self) -> Option<CoalescerStats> {
        match self {
            ElemPath::Coalesced(c) => Some(c.coal.stats()),
            ElemPath::Direct(_) => None,
        }
    }

    /// Output ports, also dealing strided requests: the coalescer's, or one.
    pub(super) fn ports(&self) -> usize {
        match self {
            ElemPath::Coalesced(c) => c.coal.ports(),
            ElemPath::Direct(_) => 1,
        }
    }

    /// Requests one cycle can take: one per coalescer port, or the direct
    /// queue's free slots.
    fn issue_width(&self) -> usize {
        match self {
            ElemPath::Coalesced(c) => c.coal.ports(),
            ElemPath::Direct(d) => d.req_q.free(),
        }
    }

    fn can_accept(&self, port: usize) -> bool {
        match self {
            ElemPath::Coalesced(c) => c.coal.can_accept(port),
            ElemPath::Direct(d) => !d.req_q.is_full() && d.reads.len() < d.limit,
        }
    }

    /// Takes the request for stream position `seq` on `port`; the caller
    /// has checked [`ElemPath::can_accept`].
    fn push(&mut self, port: usize, seq: u64, addr: u64) {
        match self {
            ElemPath::Coalesced(c) => {
                let ok = c.coal.try_push_request(port, ElemRequest { seq, addr });
                debug_assert!(ok, "can_accept checked");
            }
            ElemPath::Direct(d) => {
                d.req_q.push(WideRequest::read(addr, TAG_ELEM));
                let k = block_offset(addr) / d.width.bytes();
                d.reads.push_back((seq, k, [0; BLOCK_BYTES]));
            }
        }
    }

    /// Accepts an element response from the channel.
    pub(super) fn arrive(&mut self, data: Block) {
        match self {
            ElemPath::Coalesced(c) => c.staging.push_back(data),
            ElemPath::Direct(d) => {
                d.reads[d.arrived].2 = data;
                d.arrived += 1;
            }
        }
    }

    /// One cycle of the response side: the coalescer, then the head
    /// response offered to it; or one element cut out of a direct read.
    pub(super) fn tick(&mut self, now: Cycle) {
        match self {
            ElemPath::Coalesced(c) => {
                c.coal.tick(now);
                if let Some(block) = c.staging.front() {
                    if c.coal.offer_response(*block) {
                        c.staging.pop_front();
                    }
                }
            }
            ElemPath::Direct(d) => {
                if d.arrived == 0 || d.out.is_full() {
                    return;
                }
                if let Some((seq, k, block)) = d.reads.pop_front() {
                    d.arrived -= 1;
                    let value = d.width.read(&block, k);
                    d.out.push(ElemOut { seq, value });
                }
            }
        }
    }

    /// The element at stream position `seq`, once it is ready.
    pub(super) fn pop_output(&mut self, seq: u64) -> Option<ElemOut> {
        match self {
            ElemPath::Coalesced(c) => c.coal.pop_output((seq % c.coal.ports() as u64) as usize),
            ElemPath::Direct(d) => d.out.pop(),
        }
    }

    /// Stages the coalescer's next wide request in front of the arbiter.
    pub(super) fn stage_request(&mut self) {
        if let ElemPath::Coalesced(c) = self {
            if c.held.is_none() {
                c.held = c.coal.pop_wide_request();
            }
        }
    }

    /// The wide element read the arbiter may send next.
    pub(super) fn pop_request(&mut self) -> Option<WideRequest> {
        match self {
            ElemPath::Coalesced(c) => c.held.take().map(|b| WideRequest::read(b, TAG_ELEM)),
            ElemPath::Direct(d) => d.req_q.pop(),
        }
    }
}

impl IndirectStreamUnit {
    /// Element request generator: lane indices (or strided addresses) →
    /// narrow element requests.
    pub(super) fn tick_request_gen(&mut self) {
        match self.burst {
            Some(PackRequest::Indirect { elem_base, .. }) => {
                let elem_bytes = self.cfg.elem_size.bytes() as u64;
                if self.path.ports() > 1 {
                    // Parallel: every lane feeds its own coalescer port.
                    for lane in 0..self.cfg.lanes {
                        if self.path.can_accept(lane) {
                            if let Some((seq, idx)) = self.lane_q.pop(lane) {
                                self.path.push(lane, seq, elem_base + idx * elem_bytes);
                                self.idx_outstanding -= 1;
                            }
                        }
                    }
                    return;
                }
                // Sequential or direct: in stream order through port 0.
                for _ in 0..self.path.issue_width() {
                    let lane = (self.next_gen_seq % self.cfg.lanes as u64) as usize;
                    if !self.path.can_accept(0) {
                        break;
                    }
                    let Some((seq, idx)) = self.lane_q.pop(lane) else {
                        break;
                    };
                    debug_assert_eq!(seq, self.next_gen_seq);
                    self.path.push(0, seq, elem_base + idx * elem_bytes);
                    self.next_gen_seq += 1;
                    self.idx_outstanding -= 1;
                }
            }
            // Strided bursts synthesize their requests (no index fetch),
            // dealt over the ports in stream order.
            Some(req @ PackRequest::Strided { base, stride, .. }) => {
                let ports = self.path.ports() as u64;
                for _ in 0..self.path.issue_width() {
                    let seq = self.strided_next;
                    let port = (seq % ports) as usize;
                    if seq >= req.count() || !self.path.can_accept(port) {
                        break;
                    }
                    self.path.push(port, seq, base + seq * stride);
                    self.strided_next += 1;
                }
            }
            _ => {}
        }
    }
}
