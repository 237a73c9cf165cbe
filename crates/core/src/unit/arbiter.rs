//! DRAM request arbiter: round-robin among {index fetch, element fetch,
//! contiguous fetch}, one wide request per cycle to the channel.

use nmpic_mem::ChannelPort;
use nmpic_sim::Cycle;

use super::IndirectStreamUnit;

impl IndirectStreamUnit {
    /// Round-robin arbiter: one wide request per cycle to the channel,
    /// among {index fetch, element fetch, contiguous fetch}.
    pub(super) fn tick_arbiter(&mut self, now: Cycle, chan: &mut dyn ChannelPort) {
        if self.held_req.is_none() {
            self.path.stage_request();
            // Round-robin over the three sources.
            for i in 0..3 {
                let src = (self.arb_rr + i) % 3;
                let req = match src {
                    0 => self.idx_req_q.pop(),
                    1 => self
                        .path
                        .pop_request()
                        .inspect(|_| self.stats.elem_wide_reads += 1),
                    _ => self.contig_req_q.pop(),
                };
                if let Some(req) = req {
                    self.held_req = Some(req);
                    self.arb_rr = (src + 1) % 3;
                    break;
                }
            }
        }
        if let Some(req) = self.held_req.take() {
            self.held_req = chan.try_request(now, req).err();
        }
    }
}
