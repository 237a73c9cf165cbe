//! A stamped open-addressed set of 64 B block addresses with O(1) clear.
//!
//! The coalescer compares a whole window against its CSHR tag in one
//! cycle; both of its host models — the cycle-accurate
//! [`Coalescer`](crate::Coalescer) and the structural
//! [`CoalescerTrafficModel`](crate::CoalescerTrafficModel) — need "the
//! distinct blocks of this window" as a set that is rebuilt every
//! window. [`BlockTable`] is that set: a flat array of slots probed
//! linearly from a multiplicative hash, where a slot is live only while
//! its stamp equals the table's current stamp. Clearing bumps the stamp,
//! so a window costs nothing to forget; the stamps are zeroed only when
//! the stamp wraps.
//!
//! The hash is fixed, not keyed: block addresses come from matrix
//! column indices, which a caller controls. A generation holds at most
//! one window's blocks, so even a stream crafted to collide costs a probe
//! of at most that many slots, never more memory.

use nmpic_mem::BLOCK_BYTES;

/// One slot: the block it holds and the generation that wrote it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    block: u64,
    stamp: u32,
}

/// An open-addressed set of block addresses, sized for at most
/// `max_blocks` blocks between two [`BlockTable::clear`]s.
///
/// Slot indices are stable until the next clear, so a caller can keep
/// per-block data (the coalescer's chain heads) in a parallel array of
/// [`BlockTable::slots`] entries.
#[derive(Debug, Clone)]
pub(crate) struct BlockTable {
    slots: Vec<Slot>,
    /// The live generation; never 0, the stamp of a never-written slot.
    stamp: u32,
    /// Blocks inserted since the last clear.
    len: usize,
}

impl BlockTable {
    /// A table for up to `max_blocks` blocks per generation: at least
    /// twice as many slots, a power of two, so the load stays at or
    /// below one half and a probe always reaches a free slot.
    pub(crate) fn new(max_blocks: usize) -> Self {
        Self {
            slots: vec![Slot::default(); (2 * max_blocks.max(1)).next_power_of_two()],
            stamp: 1,
            len: 0,
        }
    }

    /// Number of slots; slot indices run below it.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Forgets every block in O(1) by starting a new generation.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old stamps could alias the new generations.
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }

    /// The block held by slot `i`, live or not.
    pub(crate) fn block(&self, i: usize) -> u64 {
        self.slots[i].block
    }

    /// The slot of `block` when it is in the set, else the free slot
    /// where it would go.
    #[inline]
    fn probe(&self, block: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let hashed = (block / BLOCK_BYTES as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (hashed >> 32) as usize & mask;
        while self.slots[i].stamp == self.stamp {
            if self.slots[i].block == block {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// The slot of `block`, if it is in the set.
    pub(crate) fn find(&self, block: u64) -> Option<usize> {
        self.probe(block).ok()
    }

    /// The slot of `block`, inserting it when absent; the flag is `true`
    /// when this call inserted it.
    #[inline]
    pub(crate) fn entry(&mut self, block: u64) -> (usize, bool) {
        match self.probe(block) {
            Ok(i) => (i, false),
            Err(free) => {
                self.len += 1;
                debug_assert!(
                    2 * self.len <= self.slots.len(),
                    "block table over its sized load: {} blocks in {} slots",
                    self.len,
                    self.slots.len()
                );
                self.slots[free] = Slot {
                    block,
                    stamp: self.stamp,
                };
                (free, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_inserts_once_and_find_sees_it() {
        let mut t = BlockTable::new(8);
        assert_eq!(t.slots(), 16);
        let (i, new) = t.entry(640);
        assert!(new);
        assert_eq!(t.entry(640), (i, false));
        assert_eq!(t.find(640), Some(i));
        assert_eq!(t.block(i), 640);
        assert_eq!(t.find(64), None);
    }

    #[test]
    fn clear_forgets_every_block() {
        let mut t = BlockTable::new(4);
        for b in 0..4u64 {
            assert!(t.entry(b * 64).1);
        }
        t.clear();
        for b in 0..4u64 {
            assert_eq!(t.find(b * 64), None);
            assert!(t.entry(b * 64).1);
        }
    }

    /// Colliding blocks (same hash bucket) probe past each other.
    #[test]
    fn a_full_generation_of_colliding_blocks_stays_distinct() {
        let mut t = BlockTable::new(16);
        let blocks: Vec<u64> = (0..16u64).map(|k| k << 40).collect();
        let slots: Vec<usize> = blocks.iter().map(|&b| t.entry(b).0).collect();
        for (&b, &s) in blocks.iter().zip(&slots) {
            assert_eq!(t.find(b), Some(s));
        }
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), slots.len());
    }

    #[test]
    fn stamp_wrap_zeroes_the_stamps() {
        let mut t = BlockTable::new(4);
        t.stamp = u32::MAX;
        assert!(t.entry(0).1);
        t.clear();
        assert_eq!(t.stamp, 1);
        assert!(t.slots.iter().all(|s| s.stamp == 0));
        assert_eq!(t.find(0), None);
        assert!(t.entry(0).1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "block table over its sized load")]
    fn overfilling_a_generation_trips_the_probe_bound() {
        let mut t = BlockTable::new(2);
        for b in 0..3u64 {
            t.entry(b * 64);
        }
    }
}
