//! # nmpic-axi — AXI4 and AXI-Pack protocol model
//!
//! AXI-Pack ([Zhang et al., DATE 2023]) extends Arm's AXI4 with *packed*
//! burst semantics: many narrow elements are transported densely on a wide
//! (here 512 b) data bus, and bursts may be **contiguous**, **strided**, or
//! **indirect** (gather through an index array). This crate provides the
//! protocol-level types shared by the adapter (`nmpic-core`) and the
//! processor system (`nmpic-system`):
//!
//! * [`PackRequest`] — the three AXI-Pack burst flavours with their
//!   element/index geometry.
//! * [`Beat`] — one 512 b densely packed data beat.
//! * [`Packer`] — lossless element → beat conversion, the function the
//!   AXI-Pack *element packer* performs at the upstream port;
//!   [`Beat::elements`] reads a beat back.
//! * [`ElemSize`] — legal narrow element widths.
//!
//! The on-chip bus efficiency argument of AXI-Pack is exactly this packing:
//! a 512 b bus moving 64 b elements carries 8 elements per beat instead of
//! one response per element.
//!
//! # Example
//!
//! ```
//! use nmpic_axi::{Packer, ElemSize, BUS_BYTES};
//!
//! let mut p = Packer::new(ElemSize::B8);
//! for v in 0..8u64 { p.push(v); }
//! let beat = p.pop_beat().expect("8×8 B fills one beat");
//! assert_eq!(beat.elems, 8);
//! assert_eq!(beat.data.len(), BUS_BYTES);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;

/// Width of the wide on-chip data bus in bytes (512 b).
pub const BUS_BYTES: usize = 64;

/// Legal element widths for packed transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElemSize {
    /// 8-bit elements.
    B1,
    /// 16-bit elements.
    B2,
    /// 32-bit elements (the paper's index width).
    B4,
    /// 64-bit elements (the paper's value width).
    B8,
}

impl ElemSize {
    /// The width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            ElemSize::B1 => 1,
            ElemSize::B2 => 2,
            ElemSize::B4 => 4,
            ElemSize::B8 => 8,
        }
    }

    /// Elements that fit in one 512 b beat.
    pub fn per_beat(self) -> usize {
        BUS_BYTES / self.bytes()
    }

    /// Reads element `k` of a densely packed little-endian array (bytes
    /// `k × width .. (k + 1) × width`), zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if element `k` does not lie inside `bytes`.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_axi::ElemSize;
    /// let mut block = [0u8; 64];
    /// ElemSize::B4.write(&mut block, 3, 0xAABB_CCDD_EEFF);
    /// assert_eq!(ElemSize::B4.read(&block, 3), 0xCCDD_EEFF, "low 4 bytes kept");
    /// assert_eq!(ElemSize::B2.read(&block, 6), 0xEEFF);
    /// ```
    #[inline]
    pub fn read(self, bytes: &[u8], k: usize) -> u64 {
        // One fixed-size copy per width: a load, not a `memcpy` call.
        fn le<const N: usize>(bytes: &[u8], k: usize) -> u64 {
            let mut buf = [0u8; 8];
            buf[..N].copy_from_slice(&bytes[k * N..(k + 1) * N]);
            u64::from_le_bytes(buf)
        }
        match self {
            ElemSize::B1 => le::<1>(bytes, k),
            ElemSize::B2 => le::<2>(bytes, k),
            ElemSize::B4 => le::<4>(bytes, k),
            ElemSize::B8 => le::<8>(bytes, k),
        }
    }

    /// Writes the low `width` bytes of `value` as element `k` of a densely
    /// packed little-endian array, leaving every other byte untouched.
    ///
    /// # Panics
    ///
    /// Panics if element `k` does not lie inside `bytes`.
    #[inline]
    pub fn write(self, bytes: &mut [u8], k: usize, value: u64) {
        fn le<const N: usize>(bytes: &mut [u8], k: usize, value: u64) {
            bytes[k * N..(k + 1) * N].copy_from_slice(&value.to_le_bytes()[..N]);
        }
        match self {
            ElemSize::B1 => le::<1>(bytes, k, value),
            ElemSize::B2 => le::<2>(bytes, k, value),
            ElemSize::B4 => le::<4>(bytes, k, value),
            ElemSize::B8 => le::<8>(bytes, k, value),
        }
    }
}

impl fmt::Display for ElemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bytes() * 8)
    }
}

/// An AXI-Pack burst request, issued by a manager (e.g. the L2 prefetcher)
/// to an AXI-Pack subordinate (the adapter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackRequest {
    /// Densely packed contiguous stream: `count` elements of `elem_size`
    /// starting at `base`.
    Contiguous {
        /// Start byte address.
        base: u64,
        /// Element width.
        elem_size: ElemSize,
        /// Number of elements.
        count: u64,
    },
    /// Strided gather: element `k` lives at `base + k * stride`.
    Strided {
        /// Start byte address.
        base: u64,
        /// Stride between consecutive elements in bytes.
        stride: u64,
        /// Element width.
        elem_size: ElemSize,
        /// Number of elements.
        count: u64,
    },
    /// Indirect gather: element `k` lives at
    /// `elem_base + index[k] * elem_size`, with the index array itself
    /// streamed from `idx_base`.
    ///
    /// This is the burst type the paper's indirect stream unit accelerates.
    Indirect {
        /// Byte address of the index array.
        idx_base: u64,
        /// Index width.
        idx_size: ElemSize,
        /// Number of indices (= number of gathered elements).
        count: u64,
        /// Base byte address of the element array.
        elem_base: u64,
        /// Element width.
        elem_size: ElemSize,
    },
}

impl PackRequest {
    /// Number of elements the burst delivers upstream.
    pub fn count(&self) -> u64 {
        match *self {
            PackRequest::Contiguous { count, .. }
            | PackRequest::Strided { count, .. }
            | PackRequest::Indirect { count, .. } => count,
        }
    }

    /// Element width delivered upstream.
    pub fn elem_size(&self) -> ElemSize {
        match *self {
            PackRequest::Contiguous { elem_size, .. }
            | PackRequest::Strided { elem_size, .. }
            | PackRequest::Indirect { elem_size, .. } => elem_size,
        }
    }

    /// Payload bytes delivered upstream (excluding index traffic).
    pub fn payload_bytes(&self) -> u64 {
        self.count() * self.elem_size().bytes() as u64
    }

    /// Number of full-or-partial 512 b beats needed upstream.
    pub fn beats(&self) -> u64 {
        let per = self.elem_size().per_beat() as u64;
        self.count().div_ceil(per)
    }
}

/// One 512 b packed data beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Beat {
    /// Bus-width data, elements packed densely from byte 0.
    pub data: [u8; BUS_BYTES],
    /// Number of valid elements in this beat.
    pub elems: usize,
    /// Element width used for packing.
    pub elem_size: ElemSize,
}

impl Beat {
    /// Extracts element `i` as a little-endian bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.elems`.
    pub fn element(&self, i: usize) -> u64 {
        assert!(i < self.elems, "element index {i} out of {}", self.elems);
        self.elem_size.read(&self.data, i)
    }

    /// Iterates over the valid elements as bit patterns.
    pub fn elements(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.elems).map(move |i| self.element(i))
    }
}

/// Packs narrow elements densely into 512 b beats — the element packer of
/// the AXI-Pack adapter.
///
/// Elements are supplied as little-endian bit patterns (low `elem_size`
/// bytes significant). [`Packer::pop_beat`] yields a beat once full;
/// [`Packer::flush`] emits a final partial beat.
///
/// # Example
///
/// ```
/// use nmpic_axi::{Packer, ElemSize};
/// let mut p = Packer::new(ElemSize::B4);
/// for v in 0..20u64 { p.push(v); }
/// assert_eq!(p.pop_beat().unwrap().elems, 16); // 16 × 32 b per beat
/// assert!(p.pop_beat().is_none());             // only 4 left
/// assert_eq!(p.flush().unwrap().elems, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Packer {
    elem_size: ElemSize,
    pending: VecDeque<u64>,
    beats_emitted: u64,
    elems_packed: u64,
}

impl Packer {
    /// Creates a packer for the given element width.
    pub fn new(elem_size: ElemSize) -> Self {
        Self {
            elem_size,
            pending: VecDeque::new(),
            beats_emitted: 0,
            elems_packed: 0,
        }
    }

    /// Queues one element (low `elem_size` bytes of `value`).
    pub fn push(&mut self, value: u64) {
        self.pending.push_back(value);
        self.elems_packed += 1;
    }

    /// Number of queued elements not yet emitted.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Emits a full beat if enough elements are queued.
    pub fn pop_beat(&mut self) -> Option<Beat> {
        let per = self.elem_size.per_beat();
        if self.pending.len() >= per {
            Some(self.emit(per))
        } else {
            None
        }
    }

    /// Emits a final, possibly partial beat; `None` if nothing is queued.
    pub fn flush(&mut self) -> Option<Beat> {
        let n = self.pending.len().min(self.elem_size.per_beat());
        if n == 0 {
            None
        } else {
            Some(self.emit(n))
        }
    }

    /// Total beats emitted so far.
    pub fn beats_emitted(&self) -> u64 {
        self.beats_emitted
    }

    /// Total elements accepted so far.
    pub fn elems_packed(&self) -> u64 {
        self.elems_packed
    }

    fn emit(&mut self, n: usize) -> Beat {
        let mut data = [0u8; BUS_BYTES];
        for (i, v) in self.pending.drain(..n).enumerate() {
            self.elem_size.write(&mut data, i, v);
        }
        self.beats_emitted += 1;
        Beat {
            data,
            elems: n,
            elem_size: self.elem_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_size_geometry() {
        assert_eq!(ElemSize::B4.per_beat(), 16);
        assert_eq!(ElemSize::B8.per_beat(), 8);
        assert_eq!(ElemSize::B1.per_beat(), 64);
    }

    #[test]
    fn pack_request_beat_math() {
        let r = PackRequest::Contiguous {
            base: 0,
            elem_size: ElemSize::B8,
            count: 17,
        };
        assert_eq!(r.beats(), 3); // 8 + 8 + 1
        assert_eq!(r.payload_bytes(), 136);
    }

    #[test]
    fn packer_roundtrip_all_widths() {
        for size in [ElemSize::B1, ElemSize::B2, ElemSize::B4, ElemSize::B8] {
            let mask = if size.bytes() == 8 {
                u64::MAX
            } else {
                (1u64 << (size.bytes() * 8)) - 1
            };
            let values: Vec<u64> = (0..37u64).map(|v| (v * 0x9E3779B9) & mask).collect();
            let mut p = Packer::new(size);
            let mut got = Vec::new();
            for &v in &values {
                p.push(v);
                while let Some(b) = p.pop_beat() {
                    assert_eq!(b.elem_size, size);
                    got.extend(b.elements());
                }
            }
            if let Some(b) = p.flush() {
                got.extend(b.elements());
            }
            assert_eq!(got, values, "width {size}");
        }
    }

    #[test]
    fn packer_counts_beats_for_dense_utilization() {
        let mut p = Packer::new(ElemSize::B8);
        for v in 0..64u64 {
            p.push(v);
            while p.pop_beat().is_some() {}
        }
        assert!(p.flush().is_none());
        assert_eq!(p.beats_emitted(), 8); // 64 elems / 8 per beat — fully dense
        assert_eq!(p.elems_packed(), 64);
    }

    /// Every width reads back what it wrote at every position of a 64 B
    /// block, keeps only its low bytes, and leaves its neighbours alone.
    #[test]
    fn elem_codec_roundtrips_every_width_and_position() {
        for size in [ElemSize::B1, ElemSize::B2, ElemSize::B4, ElemSize::B8] {
            let w = size.bytes();
            for k in 0..BUS_BYTES / w {
                let mut block = [0xA5u8; BUS_BYTES];
                size.write(&mut block, k, 0x0102_0304_0506_0708);
                let want = 0x0102_0304_0506_0708u64 & (u64::MAX >> (64 - 8 * w));
                assert_eq!(size.read(&block, k), want, "{size} element {k}");
                let mut outside = (0..BUS_BYTES).filter(|b| !(k * w..(k + 1) * w).contains(b));
                assert!(outside.all(|b| block[b] == 0xA5), "{size} element {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn elem_codec_read_past_the_end_panics() {
        let _ = ElemSize::B8.read(&[0u8; BUS_BYTES], BUS_BYTES / 8);
    }

    #[test]
    fn beat_element_extraction() {
        let mut p = Packer::new(ElemSize::B4);
        p.push(0xAABB);
        p.push(0xCCDD);
        let b = p.flush().unwrap();
        assert_eq!(b.element(0), 0xAABB);
        assert_eq!(b.element(1), 0xCCDD);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn beat_element_out_of_range_panics() {
        let mut p = Packer::new(ElemSize::B8);
        p.push(1);
        let b = p.flush().unwrap();
        let _ = b.element(1);
    }
}
