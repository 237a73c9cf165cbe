//! Block reader and the unit's fetchers: wide DRAM reads covering a
//! packed array — the index array of an indirect burst, or the elements
//! of a contiguous one — each credit-throttled by what consumes it. The
//! scatter unit reads its index array through the same reader.

use std::collections::VecDeque;

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_mem::{block_addr, Block, WideRequest, BLOCK_BYTES};

use super::{IndirectStreamUnit, TAG_CONTIG, TAG_IDX};

/// Contiguous-burst reads in flight at most.
const CONTIG_OUTSTANDING: usize = 16;

/// A cursor over the 64 B blocks that cover `[base, base + count × width)`
/// of a packed array, computed once at [`BlockReader::begin`], and the
/// blocks it has read. Only the first block can start mid-block and only
/// the last can end early, so the span of elements an arrived block
/// carries follows from a second cursor on the consuming side: a response
/// meets its span by construction, with no per-request record.
#[derive(Debug)]
pub(crate) struct BlockReader {
    width: ElemSize,
    next_block: u64,
    blocks_left: u64,
    /// Elements not yet covered by an issued block.
    unissued: u64,
    /// Element offset, inside the next block to issue, of its first element.
    first: usize,
    /// Arrived blocks, oldest first.
    arrived: VecDeque<Block>,
    /// Blocks issued and not yet consumed.
    in_flight: usize,
    /// Element offset, inside the oldest arrived block, of its next element.
    next: usize,
    /// Elements not yet consumed.
    unread: u64,
}

impl BlockReader {
    pub(crate) fn new() -> Self {
        Self {
            width: ElemSize::B8,
            next_block: 0,
            blocks_left: 0,
            unissued: 0,
            first: 0,
            arrived: VecDeque::new(),
            in_flight: 0,
            next: 0,
            unread: 0,
        }
    }

    /// Aims the reader at `count` elements of `width` from `base`. The
    /// previous array must have been fully consumed.
    pub(crate) fn begin(&mut self, base: u64, count: u64, width: ElemSize) {
        debug_assert_eq!(self.in_flight, 0, "previous array still in flight");
        let bytes = width.bytes() as u64;
        let first = block_addr(base);
        let last = block_addr(base + count * bytes - 1);
        self.width = width;
        self.next_block = first;
        self.blocks_left = (last - first) / BLOCK_BYTES as u64 + 1;
        self.first = ((base - first) / bytes) as usize;
        self.next = self.first;
        (self.unissued, self.unread) = (count, count);
    }

    /// Elements a block starting at element offset `at` carries when
    /// `left` elements remain.
    fn span(&self, at: usize, left: u64) -> usize {
        ((BLOCK_BYTES / self.width.bytes() - at) as u64).min(left) as usize
    }

    /// Elements the next block carries; `None` once every block is issued.
    pub(crate) fn next_len(&self) -> Option<usize> {
        (self.blocks_left > 0).then(|| self.span(self.first, self.unissued))
    }

    /// Issues the next block, which carries the `len` elements
    /// [`BlockReader::next_len`] reported, as a wide read tagged `tag`.
    pub(crate) fn issue(&mut self, len: usize, tag: u64) -> WideRequest {
        let req = WideRequest::read(self.next_block, tag);
        self.next_block += BLOCK_BYTES as u64;
        self.blocks_left -= 1;
        self.unissued -= len as u64;
        self.first = 0;
        self.in_flight += 1;
        req
    }

    /// Accepts the response to the oldest issued block still in flight.
    pub(crate) fn arrive(&mut self, data: Block) {
        self.arrived.push_back(data);
    }

    /// Blocks issued and not yet consumed.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Elements left in the oldest arrived block.
    pub(crate) fn front_len(&self) -> Option<usize> {
        (!self.arrived.is_empty()).then(|| self.span(self.next, self.unread))
    }

    /// Hands the oldest arrived block's remaining elements to `take` in
    /// order until it refuses one (which stays for the next call), and
    /// retires the block once all are taken.
    pub(crate) fn drain_front(&mut self, mut take: impl FnMut(u64) -> bool) {
        let Some(block) = self.arrived.front() else {
            return;
        };
        for _ in 0..self.span(self.next, self.unread) {
            if !take(self.width.read(block, self.next)) {
                return;
            }
            self.next += 1;
            self.unread -= 1;
        }
        self.arrived.pop_front();
        self.in_flight -= 1;
        self.next = 0;
    }

    pub(crate) fn clear(&mut self) {
        (self.blocks_left, self.unissued, self.unread) = (0, 0, 0);
        (self.in_flight, self.next) = (0, 0);
        self.arrived.clear();
    }
}

impl IndirectStreamUnit {
    /// One wide read per cycle: index blocks credit-limited by lane-queue
    /// capacity, contiguous blocks by [`CONTIG_OUTSTANDING`].
    pub(super) fn tick_fetcher(&mut self) {
        let Some(len) = self.reader.next_len() else {
            return;
        };
        match self.burst {
            Some(PackRequest::Indirect { .. }) => {
                let capacity = self.cfg.lanes * self.cfg.idx_queue_depth;
                if self.idx_req_q.is_full() || self.idx_outstanding + len > capacity {
                    return;
                }
                self.idx_outstanding += len;
                self.idx_req_q.push(self.reader.issue(len, TAG_IDX));
                self.stats.idx_wide_reads += 1;
            }
            Some(PackRequest::Contiguous { .. }) => {
                if self.contig_req_q.is_full() || self.reader.in_flight() >= CONTIG_OUTSTANDING {
                    return;
                }
                self.contig_req_q.push(self.reader.issue(len, TAG_CONTIG));
                self.stats.contig_wide_reads += 1;
            }
            _ => {}
        }
    }
}
