//! Flat byte-accurate backing store with a bump allocator.

use crate::{block_addr, Block, BLOCK_BYTES};

/// A flat, byte-accurate memory image.
///
/// All simulated application data (index arrays, nonzero values, the dense
/// vector) is actually written here, so simulated gather results can be
/// compared against a golden software model — the simulator checks data
/// correctness, not just timing.
///
/// Addresses start at 0; a bump allocator ([`Memory::alloc`]) hands out
/// block-aligned regions for workload arrays.
///
/// # Example
///
/// ```
/// use nmpic_mem::Memory;
/// let mut m = Memory::new(4096);
/// let a = m.alloc(16, 64);
/// m.write_u32(a, 0x1234_5678);
/// assert_eq!(m.read_u32(a), 0x1234_5678);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    next_free: u64,
}

impl Memory {
    /// Creates a zero-initialized memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of the 64 B block size, since the
    /// channel model transfers whole blocks.
    pub fn new(size: usize) -> Self {
        assert!(
            size.is_multiple_of(BLOCK_BYTES),
            "memory size must be a multiple of {BLOCK_BYTES} bytes"
        );
        Self {
            data: vec![0; size],
            next_free: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Bytes handed out by the allocator so far.
    pub fn allocated(&self) -> u64 {
        self.next_free
    }

    /// Allocates `bytes` with the given power-of-two alignment and returns
    /// the base address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the region does not fit.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next_free + align - 1) & !(align - 1);
        let end = base + bytes;
        assert!(
            end <= self.data.len() as u64,
            "out of simulated memory: need {end} bytes, have {}",
            self.data.len()
        );
        self.next_free = end;
        base
    }

    /// Allocates a block-aligned region for `count` elements of
    /// `elem_bytes` each, returning the base address.
    pub fn alloc_array(&mut self, count: u64, elem_bytes: u64) -> u64 {
        self.alloc(count * elem_bytes, BLOCK_BYTES as u64)
    }

    /// Converts a simulated byte address into a backing-store index,
    /// **checked**: a simulated address that does not fit in `usize`
    /// cannot possibly be in bounds (capacity is a `usize`), so it must
    /// fail the same way any other out-of-range address does — on the
    /// bounds check — rather than silently truncating on a 32-bit
    /// target and aliasing a lower address (the `as u32` SELL
    /// `slice_ptr` bug class from the byte-identity post-mortems).
    fn index(&self, addr: u64) -> usize {
        match usize::try_from(addr) {
            Ok(a) => a,
            Err(_) => {
                // nmpic-lint: allow(L2) — documented panic: an address wider than usize is out of bounds by definition, matching the slice bounds-check contract below
                panic!(
                    "address {addr:#x} exceeds the simulated address space ({} bytes)",
                    self.data.len()
                )
            }
        }
    }

    /// Reads the 64 B block containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside memory.
    pub fn read_block(&self, addr: u64) -> Block {
        let base = self.index(block_addr(addr));
        let mut out = [0u8; BLOCK_BYTES];
        out.copy_from_slice(&self.data[base..base + BLOCK_BYTES]);
        out
    }

    /// Writes the 64 B block containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside memory.
    pub fn write_block(&mut self, addr: u64, block: &Block) {
        let base = self.index(block_addr(addr));
        self.data[base..base + BLOCK_BYTES].copy_from_slice(block);
    }

    /// Writes the bytes of `data` that `mask` enables (bit *i* for byte
    /// *i*, AXI write strobes) into the 64 B block containing `addr`,
    /// leaving the other bytes untouched.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside memory.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_mem::Memory;
    /// let mut m = Memory::new(128);
    /// m.write_u32(64, 0x1111_1111);
    /// m.write_masked(64, &[0xAB; 64], 0b0110);
    /// assert_eq!(m.read_u32(64), 0x11AB_AB11);
    /// ```
    pub fn write_masked(&mut self, addr: u64, data: &Block, mask: u64) {
        let base = self.index(block_addr(addr));
        for (i, byte) in self.data[base..base + BLOCK_BYTES].iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *byte = data[i];
            }
        }
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = self.index(addr);
        u32::from_le_bytes([
            self.data[a],
            self.data[a + 1],
            self.data[a + 2],
            self.data[a + 3],
        ])
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let a = self.index(addr);
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = self.index(addr);
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.data[a..a + 8]);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let a = self.index(addr);
        self.data[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Writes a whole `u32` slice starting at `base` and returns the byte
    /// length written.
    pub fn write_u32_slice(&mut self, base: u64, values: &[u32]) -> u64 {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(base + 4 * i as u64, *v);
        }
        4 * values.len() as u64
    }

    /// Writes a whole `f64` slice starting at `base` and returns the byte
    /// length written.
    pub fn write_f64_slice(&mut self, base: u64, values: &[f64]) -> u64 {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(base + 8 * i as u64, *v);
        }
        8 * values.len() as u64
    }

    /// Reads `count` little-endian `u32`s starting at `base`.
    pub fn read_u32_slice(&self, base: u64, count: usize) -> Vec<u32> {
        (0..count)
            .map(|i| self.read_u32(base + 4 * i as u64))
            .collect()
    }

    /// Reads `count` `f64`s starting at `base`.
    pub fn read_f64_slice(&self, base: u64, count: usize) -> Vec<f64> {
        (0..count)
            .map(|i| self.read_f64(base + 8 * i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_bumps() {
        let mut m = Memory::new(1024);
        let a = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        let b = m.alloc(10, 64);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
    }

    #[test]
    #[should_panic(expected = "out of simulated memory")]
    fn alloc_overflow_panics() {
        let mut m = Memory::new(64);
        m.alloc(128, 64);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut m = Memory::new(256);
        m.write_u32(4, 0xAABBCCDD);
        assert_eq!(m.read_u32(4), 0xAABBCCDD);
        m.write_u64(16, u64::MAX - 3);
        assert_eq!(m.read_u64(16), u64::MAX - 3);
        m.write_f64(32, -1234.5);
        assert_eq!(m.read_f64(32), -1234.5);
    }

    #[test]
    fn block_roundtrip_and_unaligned_read() {
        let mut m = Memory::new(256);
        let mut blk = [0u8; BLOCK_BYTES];
        for (i, b) in blk.iter_mut().enumerate() {
            *b = i as u8;
        }
        m.write_block(64, &blk);
        // Reading anywhere inside the block yields the whole block.
        assert_eq!(m.read_block(100), blk);
    }

    #[test]
    fn slice_roundtrips() {
        let mut m = Memory::new(1024);
        let idx = [1u32, 5, 9, 13];
        m.write_u32_slice(128, &idx);
        assert_eq!(m.read_u32_slice(128, 4), idx);
        let vals = [0.5f64, -2.0, 3.25];
        m.write_f64_slice(256, &vals);
        assert_eq!(m.read_f64_slice(256, 3), vals);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn odd_size_panics() {
        let _ = Memory::new(100);
    }

    /// Regression (32-bit-target truncation audit): an address near the
    /// top of the u64 space must fail loudly — the bounds check on
    /// 64-bit targets, the checked `index` conversion on 32-bit ones —
    /// never alias a low address. Before the checked conversion, `addr
    /// as usize` on a 32-bit target would silently wrap `u32::MAX + 4`
    /// down to 4 and read/write the wrong bytes.
    #[test]
    #[should_panic]
    fn huge_address_panics_instead_of_aliasing() {
        let m = Memory::new(256);
        let _ = m.read_u32(u64::MAX - 16);
    }
}
