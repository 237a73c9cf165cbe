//! Fixed-latency, full-bandwidth memory channel for unit tests and bounds.

use std::collections::VecDeque;

use nmpic_sim::Cycle;

use crate::memory::Memory;
use crate::{ChannelPort, WideCommand, WideRequest, WideResponse, BLOCK_BYTES};

/// An idealized memory channel: constant latency, one 64 B block per
/// `t_bl` cycles of throughput, responses in order.
///
/// Useful for isolating adapter behaviour from DRAM scheduling effects in
/// unit tests, and for "ideal" reference curves in experiments.
///
/// Unlike the HBM port, a response becomes visible at
/// `pop_response(now)` once `now` reaches its completion cycle, not in
/// `tick`; a write commits when it issues, and its acknowledgement keeps
/// `is_idle()` false until a `pop_response` at or after its completion
/// cycle drops it.
///
/// # Example
///
/// ```
/// use nmpic_mem::{IdealChannel, Memory, WideRequest, ChannelPort};
/// let mut chan = IdealChannel::new(Memory::new(1 << 16), 10, 2);
/// chan.memory_mut().write_u32(0, 42);
/// chan.try_request(0, WideRequest::read(0, 0)).unwrap();
/// let mut now = 0;
/// let resp = loop {
///     chan.tick(now);
///     if let Some(r) = chan.pop_response(now) { break r; }
///     now += 1;
/// };
/// assert_eq!(u32::from_le_bytes(resp.data[..4].try_into().unwrap()), 42);
/// ```
#[derive(Debug, Clone)]
pub struct IdealChannel {
    memory: Memory,
    latency: Cycle,
    t_bl: Cycle,
    queue: VecDeque<WideRequest>,
    in_flight: VecDeque<(Cycle, Option<WideResponse>)>,
    next_issue_at: Cycle,
    data_bytes: u64,
}

/// Request queue depth (the HBM controller's default).
const QUEUE_DEPTH: usize = 32;

impl IdealChannel {
    /// Creates an ideal channel with the given access `latency` and a
    /// throughput of one block per `t_bl` cycles.
    pub fn new(memory: Memory, latency: Cycle, t_bl: Cycle) -> Self {
        Self {
            memory,
            latency,
            t_bl: t_bl.max(1),
            queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            next_issue_at: 0,
            data_bytes: 0,
        }
    }
}

impl ChannelPort for IdealChannel {
    fn try_request(&mut self, _now: Cycle, req: WideRequest) -> Result<(), WideRequest> {
        if self.queue.len() >= QUEUE_DEPTH {
            return Err(req);
        }
        self.queue.push_back(req);
        Ok(())
    }

    fn tick(&mut self, now: Cycle) {
        if now >= self.next_issue_at {
            if let Some(req) = self.queue.pop_front() {
                self.next_issue_at = now + self.t_bl;
                self.data_bytes += BLOCK_BYTES as u64;
                let complete = now + self.latency;
                match req.command {
                    WideCommand::Read => {
                        let data = self.memory.read_block(req.addr);
                        self.in_flight.push_back((
                            complete,
                            Some(WideResponse {
                                addr: req.addr,
                                tag: req.tag,
                                data,
                            }),
                        ));
                    }
                    WideCommand::Write { data, mask } => {
                        self.memory.write_masked(req.addr, &data, mask);
                        self.in_flight.push_back((complete, None));
                    }
                }
            }
        }
    }

    fn pop_response(&mut self, now: Cycle) -> Option<WideResponse> {
        // Drop matured write acknowledgements, then deliver the next read.
        while let Some((ready, resp)) = self.in_flight.front() {
            if *ready > now {
                return None;
            }
            if resp.is_some() {
                return self.in_flight.pop_front().and_then(|(_, r)| r);
            }
            self.in_flight.pop_front();
        }
        None
    }

    fn next_event(&self) -> Option<Cycle> {
        let issue = (!self.queue.is_empty()).then_some(self.next_issue_at);
        let retire = self.in_flight.front().map(|&(ready, _)| ready);
        issue.into_iter().chain(retire).min()
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    fn peak_bytes_per_cycle(&self) -> u64 {
        BLOCK_BYTES as u64 / self.t_bl
    }

    fn reset_run_state(&mut self) {
        assert!(self.is_idle(), "reset_run_state on a busy ideal channel");
        self.next_issue_at = 0;
        self.data_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_constant() {
        let mut chan = IdealChannel::new(Memory::new(1 << 12), 7, 1);
        chan.try_request(0, WideRequest::read(0, 0)).unwrap();
        for now in 0..7 {
            chan.tick(now);
            assert!(chan.pop_response(now).is_none(), "early at {now}");
        }
        chan.tick(7);
        assert!(chan.pop_response(7).is_some());
    }

    #[test]
    fn throughput_is_one_block_per_tbl() {
        let mut chan = IdealChannel::new(Memory::new(1 << 12), 4, 2);
        for i in 0..4 {
            chan.try_request(0, WideRequest::read(i * 64, i)).unwrap();
        }
        let mut got = Vec::new();
        for now in 0..32 {
            chan.tick(now);
            while let Some(r) = chan.pop_response(now) {
                got.push((now, r.tag));
            }
        }
        assert_eq!(got.len(), 4);
        // Issue cycles 0,2,4,6 → completions at 4,6,8,10.
        let cycles: Vec<Cycle> = got.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![4, 6, 8, 10]);
    }

    #[test]
    fn in_order_tags() {
        let mut chan = IdealChannel::new(Memory::new(1 << 12), 3, 1);
        for i in 0..8 {
            chan.try_request(0, WideRequest::read(i * 64, 100 + i))
                .unwrap();
        }
        let mut tags = Vec::new();
        for now in 0..64 {
            chan.tick(now);
            while let Some(r) = chan.pop_response(now) {
                tags.push(r.tag);
            }
        }
        assert_eq!(tags, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn writes_then_reads_see_data() {
        let mut chan = IdealChannel::new(Memory::new(1 << 12), 2, 1);
        let mut blk = [0u8; BLOCK_BYTES];
        blk[5] = 99;
        chan.try_request(0, WideRequest::write(128, 0, blk))
            .unwrap();
        chan.try_request(0, WideRequest::read(128, 1)).unwrap();
        let mut seen = None;
        for now in 0..32 {
            chan.tick(now);
            if let Some(r) = chan.pop_response(now) {
                seen = Some(r);
            }
        }
        let r = seen.expect("read response");
        assert_eq!(r.data[5], 99);
        assert!(chan.is_idle());
    }
}
