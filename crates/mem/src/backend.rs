//! Pluggable memory-backend layer: one factory, every channel model.
//!
//! The paper evaluates its adapter against a single HBM2 channel; this
//! layer generalizes the memory side into a first-class configuration
//! axis so every consumer — the stream unit, the scatter unit, the SpMV
//! system models and the experiment drivers — can run unchanged against
//! an ideal channel, the cycle-level HBM2 model, or an N-channel
//! block-interleaved HBM stack ([`InterleavedChannels`], the SparseP-style
//! memory-level-parallelism scenario).
//!
//! [`BackendConfig::build`] (or the free function [`build_backend`]) is
//! the single construction point: it returns a boxed [`ChannelPort`], and
//! everything downstream drives `dyn ChannelPort`.
//!
//! # Example
//!
//! ```
//! use nmpic_mem::{build_backend, BackendConfig, BackendKind, Memory, WideRequest};
//!
//! for kind in [BackendKind::Ideal, BackendKind::Hbm, BackendKind::Interleaved { channels: 4 }] {
//!     let cfg = BackendConfig { kind, ..BackendConfig::default() };
//!     let mut chan = build_backend(&cfg, Memory::new(1 << 16));
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
use std::str::FromStr;

use nmpic_sim::Cycle;

use crate::channel::{HbmChannel, HbmConfig, HbmStats};
use crate::ideal::IdealChannel;
use crate::interleave::InterleavedChannels;
use crate::memory::Memory;
use crate::ChannelPort;

/// Which channel model backs the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Fixed-latency, full-bandwidth channel ([`IdealChannel`]): isolates
    /// adapter behaviour from DRAM scheduling, and provides upper-bound
    /// reference curves.
    Ideal,
    /// One cycle-level HBM2 channel ([`HbmChannel`]) — the paper's
    /// Table I environment.
    Hbm,
    /// `channels` block-interleaved HBM2 channels behind a single port
    /// ([`InterleavedChannels`]) — the multi-channel scaling scenario.
    Interleaved {
        /// Number of identical HBM2 channels (must be nonzero).
        channels: usize,
    },
}

impl BackendKind {
    /// Number of physical channels behind the port.
    pub fn channels(&self) -> usize {
        match self {
            BackendKind::Ideal | BackendKind::Hbm => 1,
            BackendKind::Interleaved { channels } => *channels,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Ideal => write!(f, "ideal"),
            BackendKind::Hbm => write!(f, "hbm"),
            BackendKind::Interleaved { channels } => write!(f, "hbm x{channels}"),
        }
    }
}

/// Error returned when a backend name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend '{}': expected 'ideal', 'hbm', or 'hbmN' (N channels, e.g. hbm4)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    /// Parses `ideal`, `hbm`, or `hbm<N>` (e.g. `hbm4` for four
    /// interleaved channels), so tools can expose backend selection as a
    /// flag or environment variable.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "ideal" => Ok(BackendKind::Ideal),
            "hbm" | "hbm1" => Ok(BackendKind::Hbm),
            _ => {
                if let Some(n) = t.strip_prefix("hbm") {
                    if let Ok(channels) = n.parse::<usize>() {
                        if channels > 0 {
                            return Ok(BackendKind::Interleaved { channels });
                        }
                    }
                }
                Err(ParseBackendError(s.to_string()))
            }
        }
    }
}

/// Full backend configuration: the kind plus the per-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendConfig {
    /// Which channel model to build.
    pub kind: BackendKind,
    /// HBM2 channel timing/geometry (used by `Hbm` and `Interleaved`).
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
            kind: BackendKind::Hbm,
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
            kind: BackendKind::Interleaved { channels },
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
    /// An `Interleaved { channels }` backend splits into
    /// `max(1, channels / units)` channels per unit. When `units` does
    /// not divide `channels`, the `channels % units` remainder channels
    /// are **left unused** — every unit gets the same `floor` share, so
    /// K units model `K · floor(channels / K)` channels in total (e.g.
    /// `hbm8.split(3)` models 6 of the 8 channels; consumers report peak
    /// bandwidth from the split result, keeping the numbers honest).
    /// When `units ≥ channels` each unit gets one full channel,
    /// modelling the paper's one-unit-per-channel replication. `Ideal`
    /// and `Hbm` are single-channel models, so every unit gets its own
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_mem::{BackendConfig, BackendKind};
    /// let hbm8 = BackendConfig::interleaved(8);
    /// assert_eq!(hbm8.split(4).kind, BackendKind::Interleaved { channels: 2 });
    /// assert_eq!(hbm8.split(8).kind, BackendKind::Hbm);
    /// assert_eq!(hbm8.split(1).kind, hbm8.kind);
    /// ```
    pub fn split(&self, units: usize) -> BackendConfig {
        assert!(units > 0, "at least one unit");
        let kind = match self.kind {
            BackendKind::Ideal => BackendKind::Ideal,
            BackendKind::Hbm => BackendKind::Hbm,
            BackendKind::Interleaved { channels } => {
                let per_unit = (channels / units).max(1);
                if per_unit == 1 {
                    BackendKind::Hbm
                } else {
                    BackendKind::Interleaved { channels: per_unit }
                }
            }
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
            BackendKind::Hbm => self.hbm.peak_bytes_per_cycle(),
            BackendKind::Interleaved { channels } => {
                self.hbm.peak_bytes_per_cycle() * channels as u64
            }
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
            BackendKind::Hbm => Box::new(HbmChannel::new(self.hbm.clone(), memory)),
            BackendKind::Interleaved { channels } => {
                Box::new(InterleavedChannels::new(self.hbm.clone(), memory, channels))
            }
        }
    }
}

/// Builds a memory backend from its configuration — the single
/// construction point every consumer goes through.
pub fn build_backend(cfg: &BackendConfig, memory: Memory) -> Box<dyn ChannelPort> {
    cfg.build(memory)
}

/// Forward [`ChannelPort`] through boxes so factory-built backends drive
/// the same generic code paths as concrete channels.
impl<T: ChannelPort + ?Sized> ChannelPort for Box<T> {
    fn try_request(
        &mut self,
        now: Cycle,
        req: crate::WideRequest,
    ) -> Result<(), crate::WideRequest> {
        (**self).try_request(now, req)
    }

    fn tick(&mut self, now: Cycle) {
        (**self).tick(now)
    }

    fn pop_response(&mut self, now: Cycle) -> Option<crate::WideResponse> {
        (**self).pop_response(now)
    }

    fn is_idle(&self) -> bool {
        (**self).is_idle()
    }

    fn memory(&self) -> &Memory {
        (**self).memory()
    }

    fn memory_mut(&mut self) -> &mut Memory {
        (**self).memory_mut()
    }

    fn data_bytes(&self) -> u64 {
        (**self).data_bytes()
    }

    fn peak_bytes_per_cycle(&self) -> u64 {
        (**self).peak_bytes_per_cycle()
    }

    fn dram_stats(&self) -> Option<HbmStats> {
        (**self).dram_stats()
    }

    fn reset_run_state(&mut self) {
        (**self).reset_run_state()
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
            BackendKind::Hbm,
            BackendKind::Interleaved { channels: 2 },
            BackendKind::Interleaved { channels: 8 },
        ] {
            let cfg = BackendConfig {
                kind,
                ..BackendConfig::default()
            };
            let mut mem = Memory::new(1 << 14);
            mem.write_u64(512, 0xFEED);
            let mut chan = build_backend(&cfg, mem);
            assert_eq!(drain_one(&mut *chan, 512), 0xFEED, "{kind}");
            assert!(chan.is_idle());
        }
    }

    #[test]
    fn kind_parses_from_str() {
        assert_eq!("ideal".parse::<BackendKind>().unwrap(), BackendKind::Ideal);
        assert_eq!("hbm".parse::<BackendKind>().unwrap(), BackendKind::Hbm);
        assert_eq!("HBM1".parse::<BackendKind>().unwrap(), BackendKind::Hbm);
        assert_eq!(
            "hbm4".parse::<BackendKind>().unwrap(),
            BackendKind::Interleaved { channels: 4 }
        );
        assert!("hbm0".parse::<BackendKind>().is_err());
        assert!("dramsys".parse::<BackendKind>().is_err());
    }

    #[test]
    fn labels_and_channels() {
        assert_eq!(BackendConfig::ideal().label(), "ideal");
        assert_eq!(BackendConfig::hbm().label(), "hbm");
        assert_eq!(BackendConfig::interleaved(4).label(), "hbm x4");
        assert_eq!(BackendKind::Interleaved { channels: 4 }.channels(), 4);
        assert_eq!(BackendKind::Hbm.channels(), 1);
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
        assert_eq!(hbm8.split(16).kind, BackendKind::Hbm);
        // Non-dividing unit counts floor the share; the remainder
        // channels go unused (3 units × 2 channels models 6 of 8).
        assert_eq!(hbm8.split(3).kind, BackendKind::Interleaved { channels: 2 });
        // Single-channel kinds replicate.
        assert_eq!(BackendConfig::hbm().split(4).kind, BackendKind::Hbm);
        assert_eq!(BackendConfig::ideal().split(4).kind, BackendKind::Ideal);
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
            let mut chan = build_backend(&cfg, mem);
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
        let mut ideal = build_backend(&BackendConfig::ideal(), Memory::new(1 << 12));
        assert!(ideal.dram_stats().is_none());
        drain_one(&mut *ideal, 0);

        for cfg in [BackendConfig::hbm(), BackendConfig::interleaved(2)] {
            let mut chan = build_backend(&cfg, Memory::new(1 << 12));
            drain_one(&mut *chan, 0);
            let stats = chan.dram_stats().expect("hbm-backed");
            assert_eq!(stats.reads, 1);
        }
    }
}
