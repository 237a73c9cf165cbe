//! Index splitter: deals arriving index blocks element-round-robin into
//! the N lane queues (stream position `k` → lane `k mod N`).

use nmpic_axi::PackRequest;

use super::IndirectStreamUnit;

impl IndirectStreamUnit {
    /// Index splitter: deals up to one wide block of indices per cycle
    /// into the lane queues, element-round-robin. The block reader carries
    /// indices only during an indirect burst.
    pub(super) fn tick_splitter(&mut self) {
        if !matches!(self.burst, Some(PackRequest::Indirect { .. })) {
            return;
        }
        let lanes = self.cfg.lanes as u64;
        let (lane_q, seq) = (&mut self.lane_q, &mut self.next_split_seq);
        self.reader.drain_front(|idx| {
            let lane = (*seq % lanes) as usize;
            if lane_q.is_full(lane) {
                return false; // stall mid-block; resume next cycle
            }
            lane_q.push(lane, (*seq, idx));
            *seq += 1;
            true
        });
    }
}
