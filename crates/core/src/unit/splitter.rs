//! Index splitter: deals arriving index blocks element-round-robin into
//! the N lane queues (stream position `k` → lane `k mod N`).

use super::IndirectStreamUnit;

impl IndirectStreamUnit {
    /// Index splitter: deals up to one wide block of indices per cycle
    /// into the lane queues, element-round-robin.
    pub(super) fn tick_splitter(&mut self) {
        if self.split_cur.is_none() {
            if let Some(block) = self.idx_staging.pop_front() {
                let (start, cnt) = self
                    .idx_block_meta
                    .pop_front()
                    // nmpic-lint: allow(L2) — invariant: a meta record is enqueued with every issued block request, in order
                    .expect("meta pushed at issue");
                self.split_cur = Some((block, start, cnt));
            } else {
                return;
            }
        }
        let lanes = self.cfg.lanes as u64;
        let idx_bytes = self.cfg.idx_size.bytes();
        // nmpic-lint: allow(L2) — invariant: split_cur was populated in the branch above
        let (block, start, cnt) = self.split_cur.as_mut().expect("set above");
        while *cnt > 0 {
            let lane = (self.next_split_seq % lanes) as usize;
            if self.lane_q.is_full(lane) {
                return; // stall mid-block; resume next cycle
            }
            let lo = *start * idx_bytes;
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&block[lo..lo + idx_bytes.min(4)]);
            let idx = u32::from_le_bytes(buf);
            self.lane_q.push(lane, (self.next_split_seq, idx));
            self.next_split_seq += 1;
            *start += 1;
            *cnt -= 1;
        }
        self.split_cur = None;
    }
}
