//! Element request generator: lane-queue indices (or synthesized strided
//! addresses) become narrow element requests feeding the coalescer — or
//! their own wide reads in `MLPnc` — plus the matching response handling.

use nmpic_mem::{block_offset, WideRequest};

use crate::config::CoalescerMode;
use crate::request::{ElemOut, ElemRequest};

use super::{ActiveBurst, IndirectStreamUnit, TAG_ELEM};

impl IndirectStreamUnit {
    /// Element request generator: lane indices → narrow element requests.
    pub(super) fn tick_request_gen(&mut self) {
        let (elem_base, elem_bytes) = match &self.burst {
            Some(ActiveBurst::Indirect {
                elem_base,
                elem_size,
            }) => (*elem_base, elem_size.bytes() as u64),
            Some(ActiveBurst::Strided { .. }) => {
                self.tick_strided_gen();
                return;
            }
            _ => return,
        };
        match self.cfg.mode {
            CoalescerMode::Parallel => {
                // nmpic-lint: allow(L2) — invariant: parallel mode constructs the unit with a coalescer
                let coal = self.coal.as_mut().expect("parallel mode has coalescer");
                for lane in 0..self.cfg.lanes {
                    if !coal.can_accept(lane) {
                        continue;
                    }
                    let Some((seq, idx)) = self.lane_q.pop(lane) else {
                        continue;
                    };
                    let addr = elem_base + idx as u64 * elem_bytes;
                    let ok = coal.try_push_request(lane, ElemRequest { seq, addr });
                    debug_assert!(ok, "can_accept checked");
                    self.idx_outstanding -= 1;
                }
            }
            CoalescerMode::Sequential => {
                // One request per cycle, in stream order, through port 0.
                // nmpic-lint: allow(L2) — invariant: sequential mode constructs the unit with a coalescer
                let coal = self.coal.as_mut().expect("seq mode has coalescer");
                let lane = (self.next_gen_seq % self.cfg.lanes as u64) as usize;
                if coal.can_accept(0) {
                    if let Some((seq, idx)) = self.lane_q.pop(lane) {
                        debug_assert_eq!(seq, self.next_gen_seq);
                        let addr = elem_base + idx as u64 * elem_bytes;
                        let ok = coal.try_push_request(0, ElemRequest { seq, addr });
                        debug_assert!(ok, "can_accept checked");
                        self.next_gen_seq += 1;
                        self.idx_outstanding -= 1;
                    }
                }
            }
            CoalescerMode::None => {
                // Each narrow request becomes its own wide read, in stream
                // order, bounded by the outstanding-request credit.
                while !self.nocoal_req_q.is_full()
                    && self.nocoal_outstanding < self.cfg.nocoal_outstanding
                {
                    let lane = (self.next_gen_seq % self.cfg.lanes as u64) as usize;
                    let Some((seq, idx)) = self.lane_q.pop(lane) else {
                        break;
                    };
                    debug_assert_eq!(seq, self.next_gen_seq);
                    let addr = elem_base + idx as u64 * elem_bytes;
                    // nmpic-lint: allow(L1) — in range: block offsets are below BLOCK_BYTES (64), so the lane offset fits 8 bits
                    let offset = (block_offset(addr) / elem_bytes as usize) as u8;
                    self.nocoal_req_q
                        .try_push(WideRequest::read(addr, TAG_ELEM))
                        // nmpic-lint: allow(L2) — invariant: fullness was checked before issuing this request
                        .expect("checked not full");
                    self.nocoal_meta.push_back((seq, offset));
                    self.nocoal_outstanding += 1;
                    self.next_gen_seq += 1;
                    self.idx_outstanding -= 1;
                    self.stats.elem_wide_reads += 1;
                }
            }
        }
    }

    /// Strided bursts synthesize element requests directly (no index
    /// fetch) and stream through the same coalescer/no-coalescer path.
    pub(super) fn tick_strided_gen(&mut self) {
        let Some(ActiveBurst::Strided {
            base,
            stride,
            elem_size,
            count,
            next,
        }) = &mut self.burst
        else {
            return;
        };
        let elem_size = *elem_size;
        match self.cfg.mode {
            CoalescerMode::None => {
                while *next < *count
                    && !self.nocoal_req_q.is_full()
                    && self.nocoal_outstanding < self.cfg.nocoal_outstanding
                {
                    let seq = *next;
                    let addr = *base + seq * *stride;
                    let elem_bytes = elem_size.bytes();
                    // nmpic-lint: allow(L1) — in range: block offsets are below BLOCK_BYTES (64), so the lane offset fits 8 bits
                    let offset = (block_offset(addr) / elem_bytes) as u8;
                    self.nocoal_req_q
                        .try_push(WideRequest::read(addr, TAG_ELEM))
                        // nmpic-lint: allow(L2) — invariant: fullness was checked before issuing this request
                        .expect("checked not full");
                    self.nocoal_meta.push_back((seq, offset));
                    self.nocoal_outstanding += 1;
                    self.stats.elem_wide_reads += 1;
                    *next += 1;
                }
            }
            _ => {
                // nmpic-lint: allow(L2) — invariant: every coalescing mode constructs the unit with a coalescer
                let coal = self.coal.as_mut().expect("coalescer present");
                let ports = coal.ports() as u64;
                for _ in 0..ports {
                    if *next >= *count {
                        break;
                    }
                    let seq = *next;
                    let port = (seq % ports) as usize;
                    if !coal.can_accept(port) {
                        break;
                    }
                    let addr = *base + seq * *stride;
                    let ok = coal.try_push_request(port, ElemRequest { seq, addr });
                    debug_assert!(ok);
                    *next += 1;
                }
            }
        }
    }

    /// MLPnc response handling: one element per wide response.
    pub(super) fn tick_elem_responses(&mut self) {
        if self.cfg.mode != CoalescerMode::None {
            // Coalesced path: offer the head response to the splitter.
            if let Some(block) = self.elem_staging.front() {
                // nmpic-lint: allow(L2) — invariant: every coalescing mode constructs the unit with a coalescer
                let coal = self.coal.as_mut().expect("coalescer present");
                if coal.offer_response(*block) {
                    self.elem_staging.pop_front();
                }
            }
            return;
        }
        if self.nocoal_out.is_full() {
            return;
        }
        let Some(block) = self.elem_staging.pop_front() else {
            return;
        };
        let (seq, offset) = self
            .nocoal_meta
            .pop_front()
            // nmpic-lint: allow(L2) — invariant: a meta record is enqueued with every issued request, in order
            .expect("meta pushed at request");
        let e = self.cfg.elem_size.bytes();
        let lo = offset as usize * e;
        let mut buf = [0u8; 8];
        buf[..e].copy_from_slice(&block[lo..lo + e]);
        self.nocoal_out
            .try_push(ElemOut {
                seq,
                value: u64::from_le_bytes(buf),
            })
            // nmpic-lint: allow(L2) — invariant: the caller checked free space on this queue this cycle
            .expect("checked space");
        self.nocoal_outstanding -= 1;
    }
}
