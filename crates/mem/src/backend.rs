//! Pluggable memory-backend layer: one factory, every channel model.
//!
//! The paper evaluates its adapter against a single HBM2 channel; this
//! layer generalizes the memory side into a first-class configuration
//! axis so every consumer — the stream unit, the scatter unit, the SpMV
//! system models and the experiment drivers — can run unchanged against
//! an ideal channel or the cycle-level HBM2 port with one or N
//! block-interleaved channels (the SparseP-style memory-level-parallelism
//! scenario).
//!
//! [`BackendConfig::build`] is the single construction point: it returns
//! a boxed [`ChannelPort`], and everything downstream drives
//! `dyn ChannelPort`.
//!
//! # Example
//!
//! ```
//! use nmpic_mem::{BackendConfig, Memory, WideRequest};
//!
//! for cfg in [BackendConfig::ideal(), BackendConfig::hbm(), BackendConfig::interleaved(4)] {
//!     let mut chan = cfg.build(Memory::new(1 << 16));
//!     chan.memory_mut().write_u64(256, 4242);
//!     chan.try_request(0, WideRequest::read(256, 0)).unwrap();
//!     let mut now = 0;
//!     let resp = loop {
//!         chan.tick(now);
//!         if let Some(r) = chan.pop_response(now) { break r; }
//!         now += 1;
//!         assert!(now < 1000);
//!     };
//!     assert_eq!(u64::from_le_bytes(resp.data[..8].try_into().unwrap()), 4242);
//! }
//! ```

use std::fmt;

use nmpic_sim::Cycle;

use crate::channel::HbmChannel;
use crate::controller::HbmConfig;
use crate::ideal::IdealChannel;
use crate::memory::Memory;
use crate::ChannelPort;

/// Which channel model backs the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Fixed-latency, full-bandwidth channel ([`IdealChannel`]): isolates
    /// adapter behaviour from DRAM scheduling, and provides upper-bound
    /// reference curves.
    Ideal,
    /// The cycle-level HBM2 port ([`HbmChannel`]): `channels`
    /// block-interleaved channels behind a single port. One channel is
    /// the paper's Table I environment; more is the multi-channel scaling
    /// scenario.
    Hbm {
        /// Number of identical HBM2 channels (must be nonzero).
        channels: usize,
    },
}

impl BackendKind {
    /// Number of physical channels behind the port.
    pub fn channels(&self) -> usize {
        match self {
            BackendKind::Ideal => 1,
            BackendKind::Hbm { channels } => *channels,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Ideal => write!(f, "ideal"),
            BackendKind::Hbm { channels: 1 } => write!(f, "hbm"),
            BackendKind::Hbm { channels } => write!(f, "hbm x{channels}"),
        }
    }
}

/// Full backend configuration: the kind plus the per-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendConfig {
    /// Which channel model to build.
    pub kind: BackendKind,
    /// HBM2 channel timing/geometry (used by `Hbm`).
    pub hbm: HbmConfig,
    /// Access latency of the ideal channel, in cycles.
    pub ideal_latency: Cycle,
    /// Ideal-channel burst length: one 64 B block per this many cycles
    /// (2 matches the HBM2 data bus, 32 B/cycle).
    pub ideal_burst: Cycle,
}

impl Default for BackendConfig {
    /// The paper's environment: one HBM2 channel.
    fn default() -> Self {
        Self {
            kind: BackendKind::Hbm { channels: 1 },
            hbm: HbmConfig::default(),
            ideal_latency: 20,
            ideal_burst: 2,
        }
    }
}

impl BackendConfig {
    /// One cycle-level HBM2 channel (the paper's setup).
    pub fn hbm() -> Self {
        Self::default()
    }

    /// The fixed-latency ideal channel.
    pub fn ideal() -> Self {
        Self {
            kind: BackendKind::Ideal,
            ..Self::default()
        }
    }

    /// `channels` block-interleaved HBM2 channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn interleaved(channels: usize) -> Self {
        assert!(channels > 0, "at least one channel");
        Self {
            kind: BackendKind::Hbm { channels },
            ..Self::default()
        }
    }

    /// Display label (`ideal`, `hbm`, `hbm x4`).
    pub fn label(&self) -> String {
        self.kind.to_string()
    }

    /// Divides this backend's channels across `units` parallel
    /// indexing/coalescing units, returning the per-unit backend
    /// configuration — the memory side of the paper's replicated-PIC
    /// organization, where each unit sits in front of its own slice of
    /// the HBM stack.
    ///
    /// An `Hbm { channels }` backend splits into
    /// `max(1, channels / units)` channels per unit. When `units` does
    /// not divide `channels`, the `channels % units` remainder channels
    /// are **left unused** — every unit gets the same `floor` share, so
    /// K units model `K · floor(channels / K)` channels in total (e.g.
    /// `hbm8.split(3)` models 6 of the 8 channels; consumers report peak
    /// bandwidth from the split result, keeping the numbers honest).
    /// When `units ≥ channels` each unit gets one full channel,
    /// modelling the paper's one-unit-per-channel replication. `Ideal`
    /// is a single-channel model, so every unit gets its own copy.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_mem::BackendConfig;
    /// let hbm8 = BackendConfig::interleaved(8);
    /// assert_eq!(hbm8.split(4), BackendConfig::interleaved(2));
    /// assert_eq!(hbm8.split(8), BackendConfig::hbm());
    /// assert_eq!(hbm8.split(1), hbm8);
    /// ```
    pub fn split(&self, units: usize) -> BackendConfig {
        assert!(units > 0, "at least one unit");
        let kind = match self.kind {
            BackendKind::Ideal => BackendKind::Ideal,
            BackendKind::Hbm { channels } => BackendKind::Hbm {
                channels: (channels / units).max(1),
            },
        };
        Self {
            kind,
            ..self.clone()
        }
    }

    /// Peak deliverable bytes per cycle across all channels.
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        match self.kind {
            BackendKind::Ideal => crate::BLOCK_BYTES as u64 / self.ideal_burst.max(1),
            BackendKind::Hbm { channels } => self.hbm.peak_bytes_per_cycle() * channels as u64,
        }
    }

    /// Builds the configured backend in front of `memory`.
    pub fn build(&self, memory: Memory) -> Box<dyn ChannelPort> {
        match self.kind {
            BackendKind::Ideal => Box::new(IdealChannel::new(
                memory,
                self.ideal_latency,
                self.ideal_burst,
            )),
            BackendKind::Hbm { channels } => {
                Box::new(HbmChannel::interleaved(self.hbm.clone(), memory, channels))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_one(chan: &mut dyn ChannelPort, addr: u64) -> u64 {
        let (resps, _) = crate::run_reads(chan, &[addr]);
        u64::from_le_bytes(resps[0].data[..8].try_into().unwrap())
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            BackendKind::Ideal,
            BackendKind::Hbm { channels: 1 },
            BackendKind::Hbm { channels: 2 },
            BackendKind::Hbm { channels: 8 },
        ] {
            let cfg = BackendConfig {
                kind,
                ..BackendConfig::default()
            };
            let mut mem = Memory::new(1 << 14);
            mem.write_u64(512, 0xFEED);
            let mut chan = cfg.build(mem);
            assert_eq!(drain_one(&mut *chan, 512), 0xFEED, "{kind}");
            assert!(chan.is_idle());
        }
    }

    #[test]
    fn labels_and_channels() {
        assert_eq!(BackendConfig::ideal().label(), "ideal");
        assert_eq!(BackendConfig::hbm().label(), "hbm");
        assert_eq!(BackendConfig::interleaved(4).label(), "hbm x4");
        assert_eq!(BackendConfig::interleaved(4).kind.channels(), 4);
        assert_eq!(BackendConfig::hbm().kind.channels(), 1);
    }

    /// One channel is one channel however it was asked for: same kind,
    /// same label, and the same built port.
    #[test]
    fn interleaved_one_is_hbm() {
        assert_eq!(BackendConfig::interleaved(1), BackendConfig::hbm());
        assert_eq!(BackendConfig::interleaved(1).label(), "hbm");
        let run = |cfg: BackendConfig| {
            let mut chan = cfg.build(Memory::new(1 << 14));
            let addrs: Vec<u64> = (0..64u64).map(|i| i * 5 % 64 * 256).collect();
            (crate::run_reads(&mut *chan, &addrs), chan.dram_stats())
        };
        assert_eq!(
            run(BackendConfig::interleaved(1)),
            run(BackendConfig::hbm())
        );
    }

    #[test]
    fn split_divides_channels_across_units() {
        let hbm8 = BackendConfig::interleaved(8);
        // Total channels are preserved for unit counts dividing 8.
        for units in [1usize, 2, 4, 8] {
            let per = hbm8.split(units);
            assert_eq!(
                per.peak_bytes_per_cycle() * units as u64,
                hbm8.peak_bytes_per_cycle(),
                "{units} units"
            );
        }
        // More units than channels: each unit still gets a full channel.
        assert_eq!(hbm8.split(16), BackendConfig::hbm());
        // Non-dividing unit counts floor the share; the remainder
        // channels go unused (3 units × 2 channels models 6 of 8).
        assert_eq!(hbm8.split(3), BackendConfig::interleaved(2));
        // Single-channel kinds replicate.
        assert_eq!(BackendConfig::hbm().split(4), BackendConfig::hbm());
        assert_eq!(BackendConfig::ideal().split(4), BackendConfig::ideal());
    }

    #[test]
    fn peak_bandwidth_scales_with_channels() {
        assert_eq!(BackendConfig::hbm().peak_bytes_per_cycle(), 32);
        assert_eq!(BackendConfig::interleaved(8).peak_bytes_per_cycle(), 8 * 32);
        assert_eq!(BackendConfig::ideal().peak_bytes_per_cycle(), 32);
    }

    #[test]
    fn reset_run_state_keeps_memory_but_clears_traffic() {
        for cfg in [
            BackendConfig::ideal(),
            BackendConfig::hbm(),
            BackendConfig::interleaved(2),
        ] {
            let mut mem = Memory::new(1 << 12);
            mem.write_u64(128, 77);
            let mut chan = cfg.build(mem);
            assert_eq!(drain_one(&mut *chan, 128), 77);
            assert!(chan.data_bytes() > 0);
            chan.reset_run_state();
            assert_eq!(chan.data_bytes(), 0, "{}", cfg.label());
            if let Some(s) = chan.dram_stats() {
                assert_eq!(s.reads, 0, "{}", cfg.label());
            }
            // The memory image survives and a rerun from cycle 0 behaves
            // exactly like the first run did.
            assert_eq!(drain_one(&mut *chan, 128), 77, "{}", cfg.label());
        }
    }

    #[test]
    fn dram_stats_present_for_hbm_kinds_only() {
        let mut ideal = BackendConfig::ideal().build(Memory::new(1 << 12));
        assert!(ideal.dram_stats().is_none());
        drain_one(&mut *ideal, 0);

        for cfg in [BackendConfig::hbm(), BackendConfig::interleaved(2)] {
            let mut chan = cfg.build(Memory::new(1 << 12));
            drain_one(&mut *chan, 0);
            let stats = chan.dram_stats().expect("hbm-backed");
            assert_eq!(stats.reads, 1);
        }
    }
}
