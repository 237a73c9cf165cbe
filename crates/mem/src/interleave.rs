//! Multi-channel extension: block-interleaved HBM channels behind one
//! [`ChannelPort`].
//!
//! The paper evaluates a single HBM2 channel (32 GB/s); real HBM stacks
//! expose 8–16. This adapter-facing front-end interleaves consecutive
//! 64 B blocks across N independent [`HbmChannel`]s and restores global
//! in-order response delivery, enabling the `scaling_channels`
//! experiment of `nmpic-bench`.
//!
//! Data lives in one global [`Memory`]; the per-channel models are used
//! for timing while reads return data from the global store at delivery
//! (writes commit at accept, consistent with the single-channel model).

use std::collections::{BTreeMap, VecDeque};

use nmpic_sim::Cycle;

use crate::channel::{HbmChannel, HbmConfig};
use crate::memory::Memory;
use crate::{
    block_addr, block_offset, ChannelPort, WideCommand, WideRequest, WideResponse, BLOCK_BYTES,
};

/// N block-interleaved HBM channels presenting a single request port.
///
/// # Example
///
/// ```
/// use nmpic_mem::{ChannelPort, HbmConfig, InterleavedChannels, Memory, WideRequest};
///
/// let mut chans = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 16), 4);
/// chans.memory_mut().write_u64(320, 99);
/// chans.try_request(0, WideRequest::read(320, 7)).unwrap();
/// let mut now = 0;
/// let resp = loop {
///     chans.tick(now);
///     if let Some(r) = chans.pop_response(now) { break r; }
///     now += 1;
///     assert!(now < 1000);
/// };
/// assert_eq!(resp.tag, 7);
/// assert_eq!(u64::from_le_bytes(resp.data[..8].try_into().unwrap()), 99);
/// ```
#[derive(Debug)]
pub struct InterleavedChannels {
    memory: Memory,
    channels: Vec<HbmChannel>,
    /// Per-channel FIFO of outstanding reads: (global seq, global addr, tag).
    pending: Vec<VecDeque<(u64, u64, u64)>>,
    reorder: BTreeMap<u64, WideResponse>,
    next_seq: u64,
    next_deliver: u64,
}

impl InterleavedChannels {
    /// Creates `n` channels with identical configuration in front of one
    /// global memory.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(cfg: HbmConfig, memory: Memory, n: usize) -> Self {
        assert!(n > 0, "at least one channel");
        let local_size = (memory.size() / n).next_multiple_of(BLOCK_BYTES) + BLOCK_BYTES;
        let channels = (0..n)
            .map(|_| HbmChannel::new(cfg.clone(), Memory::new(local_size)))
            .collect();
        Self {
            memory,
            channels,
            pending: vec![VecDeque::new(); n],
            reorder: BTreeMap::new(),
            next_seq: 0,
            next_deliver: 0,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Maps a global address to `(channel, channel-local address)`:
    /// consecutive blocks rotate across channels.
    pub fn map(&self, addr: u64) -> (usize, u64) {
        let n = self.channels.len() as u64;
        let block = addr / BLOCK_BYTES as u64;
        // nmpic-lint: allow(L1) — in range on every target: the modulo bounds the value below channels.len(), a usize
        let ch = (block % n) as usize;
        let local = (block / n) * BLOCK_BYTES as u64 + block_offset(addr) as u64;
        (ch, local)
    }

    /// Inverse of [`InterleavedChannels::map`]: reconstructs the global
    /// address from `(channel, channel-local address)`.
    pub fn unmap(&self, ch: usize, local: u64) -> u64 {
        let n = self.channels.len() as u64;
        let local_block = local / BLOCK_BYTES as u64;
        (local_block * n + ch as u64) * BLOCK_BYTES as u64 + block_offset(local) as u64
    }

    /// Aggregate DRAM statistics summed over all channels.
    pub fn stats(&self) -> crate::HbmStats {
        crate::HbmStats::sum(self.channels.iter().map(HbmChannel::stats))
    }
}

impl ChannelPort for InterleavedChannels {
    fn try_request(&mut self, now: Cycle, req: WideRequest) -> Result<(), WideRequest> {
        let (ch, local) = self.map(req.addr);
        match &req.command {
            WideCommand::Read => {
                let fwd = WideRequest::read(local, req.tag);
                match self.channels[ch].try_request(now, fwd) {
                    Ok(()) => {
                        self.pending[ch].push_back((self.next_seq, req.addr, req.tag));
                        self.next_seq += 1;
                        Ok(())
                    }
                    Err(_) => Err(req),
                }
            }
            WideCommand::Write { data, mask } => {
                // Commit globally at accept (program order), forward a
                // timing-only write to the owning channel.
                let fwd = WideRequest::write_masked(local, req.tag, **data, *mask);
                match self.channels[ch].try_request(now, fwd) {
                    Ok(()) => {
                        let mut block = self.memory.read_block(req.addr);
                        crate::apply_masked_write(&mut block, data, *mask);
                        self.memory.write_block(req.addr, &block);
                        Ok(())
                    }
                    Err(_) => Err(req),
                }
            }
        }
    }

    fn tick(&mut self, now: Cycle) {
        for ch in 0..self.channels.len() {
            self.channels[ch].tick(now);
            while let Some(_local) = self.channels[ch].pop_response(now) {
                let (seq, addr, tag) = self.pending[ch]
                    .pop_front()
                    // nmpic-lint: allow(L2) — invariant: the channel only emits a response for a request this port pushed onto pending[ch]
                    .expect("response implies pending read");
                let data = self.memory.read_block(addr);
                self.reorder.insert(
                    seq,
                    WideResponse {
                        addr: block_addr(addr),
                        tag,
                        data: Box::new(data),
                    },
                );
            }
        }
    }

    fn pop_response(&mut self, _now: Cycle) -> Option<WideResponse> {
        if let Some(resp) = self.reorder.remove(&self.next_deliver) {
            self.next_deliver += 1;
            Some(resp)
        } else {
            None
        }
    }

    fn is_idle(&self) -> bool {
        self.reorder.is_empty()
            && self.pending.iter().all(VecDeque::is_empty)
            && self.channels.iter().all(ChannelPort::is_idle)
    }

    fn memory(&self) -> &Memory {
        &self.memory
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    fn data_bytes(&self) -> u64 {
        self.channels.iter().map(ChannelPort::data_bytes).sum()
    }

    fn peak_bytes_per_cycle(&self) -> u64 {
        self.channels
            .iter()
            .map(ChannelPort::peak_bytes_per_cycle)
            .sum()
    }

    fn dram_stats(&self) -> Option<crate::HbmStats> {
        Some(self.stats())
    }

    fn reset_run_state(&mut self) {
        assert!(
            self.is_idle(),
            "reset_run_state on busy interleaved channels"
        );
        for ch in &mut self.channels {
            ch.reset_run_state();
        }
        self.next_seq = 0;
        self.next_deliver = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_reads;

    #[test]
    fn mapping_rotates_blocks() {
        let c = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 12), 4);
        assert_eq!(c.map(0).0, 0);
        assert_eq!(c.map(64).0, 1);
        assert_eq!(c.map(128).0, 2);
        assert_eq!(c.map(192).0, 3);
        assert_eq!(c.map(256).0, 0);
        assert_eq!(c.map(256).1, 64);
        // Offsets survive translation.
        assert_eq!(c.map(70).1 % 64, 6);
    }

    #[test]
    fn reads_return_global_data_in_order() {
        let mut mem = Memory::new(1 << 14);
        for i in 0..64u64 {
            mem.write_u64(i * 64, 1000 + i);
        }
        let mut chans = InterleavedChannels::new(HbmConfig::default(), mem, 4);
        let addrs: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
        let (resps, _) = run_reads(&mut chans, &addrs);
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(r.tag, i as u64, "global order preserved");
            assert_eq!(
                u64::from_le_bytes(r.data[..8].try_into().unwrap()),
                1000 + i as u64
            );
        }
    }

    #[test]
    fn streaming_bandwidth_scales_with_channels() {
        let addrs: Vec<u64> = (0..1024u64).map(|i| i * 64).collect();
        let mut cycles = Vec::new();
        for n in [1usize, 2, 4] {
            let mut chans = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 20), n);
            let (_, t) = run_reads(&mut chans, &addrs);
            cycles.push(t);
        }
        // One request per cycle caps the front-end at 64 GB/s, so two
        // channels help; beyond that the port saturates.
        assert!(
            cycles[1] as f64 <= cycles[0] as f64 * 0.7,
            "2 channels should be well faster: {cycles:?}"
        );
        assert!(cycles[2] <= cycles[1], "{cycles:?}");
    }

    #[test]
    fn writes_commit_and_read_back() {
        let mut chans = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 12), 2);
        let mut blk = [0u8; BLOCK_BYTES];
        blk[0] = 0x5A;
        chans
            .try_request(0, WideRequest::write(128, 0, blk))
            .unwrap();
        for now in 0..200 {
            chans.tick(now);
        }
        assert_eq!(chans.memory().read_block(128)[0], 0x5A);
        assert!(chans.is_idle());
        assert_eq!(chans.data_bytes(), 64);
    }

    #[test]
    fn peak_bandwidth_sums() {
        let c = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 12), 4);
        assert_eq!(c.peak_bytes_per_cycle(), 4 * 32);
    }

    /// Property: for every channel count, `map` is a bijection over block
    /// addresses — `unmap ∘ map` is the identity (exhaustively over a
    /// small address space and on pseudo-random 32 b addresses), distinct
    /// blocks never collide on (channel, local), and consecutive blocks
    /// spread evenly over all channels.
    #[test]
    fn interleaving_map_is_a_bijection_over_blocks() {
        for n in [1usize, 2, 3, 4, 5, 8, 16] {
            let c = InterleavedChannels::new(HbmConfig::default(), Memory::new(1 << 12), n);
            // Exhaustive roundtrip + injectivity over the first 4096 blocks.
            let mut seen = std::collections::HashSet::new();
            let mut per_channel = vec![0u64; n];
            for block in 0..4096u64 {
                let addr = block * BLOCK_BYTES as u64;
                let (ch, local) = c.map(addr);
                assert!(ch < n, "{n} channels");
                assert_eq!(local % BLOCK_BYTES as u64, 0, "block stays aligned");
                assert_eq!(c.unmap(ch, local), addr, "roundtrip (n={n})");
                assert!(
                    seen.insert((ch, local)),
                    "collision at block {block} (n={n})"
                );
                per_channel[ch] += 1;
            }
            // 4096 consecutive blocks spread evenly (up to rounding).
            let min = per_channel.iter().min().unwrap();
            let max = per_channel.iter().max().unwrap();
            assert!(max - min <= 1, "uneven spread {per_channel:?} (n={n})");
            // Pseudo-random probes across the whole 32 b address range,
            // including unaligned byte offsets.
            let mut rng = nmpic_sim::SimRng::new(n as u64);
            for _ in 0..10_000 {
                let addr = rng.gen_u64(0, 1 << 32);
                let (ch, local) = c.map(addr);
                assert_eq!(c.unmap(ch, local), addr, "roundtrip addr {addr} (n={n})");
                assert_eq!(local % BLOCK_BYTES as u64, addr % BLOCK_BYTES as u64);
            }
        }
    }

    /// An interleaved gather returns byte-identical data to a
    /// single-channel run over the same memory image.
    #[test]
    fn interleaved_gather_matches_single_channel_bytes() {
        // Pseudo-random read pattern over a 32 KiB image with distinctive
        // per-block contents.
        let mut image = Memory::new(1 << 15);
        for i in 0..(1u64 << 15) / 8 {
            image.write_u64(i * 8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE);
        }
        let mut rng = nmpic_sim::SimRng::new(0xDEF0);
        let addrs: Vec<u64> = (0..256).map(|_| rng.gen_u64(0, 1 << 15) & !63).collect();

        let reference: Vec<Box<crate::Block>> = {
            let mut chan = InterleavedChannels::new(HbmConfig::default(), image.clone(), 1);
            run_reads(&mut chan, &addrs)
                .0
                .into_iter()
                .map(|r| r.data)
                .collect()
        };
        for n in [2usize, 4, 8] {
            let mut chan = InterleavedChannels::new(HbmConfig::default(), image.clone(), n);
            let (resps, _) = run_reads(&mut chan, &addrs);
            for (k, r) in resps.iter().enumerate() {
                assert_eq!(r.tag, k as u64, "order (n={n})");
                assert_eq!(r.data, reference[k], "data for read {k} (n={n})");
            }
        }
    }
}
