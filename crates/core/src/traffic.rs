//! Structural (event-free) traffic model of the request coalescer.
//!
//! [`CoalescerTrafficModel`] replays an element address stream through
//! the coalescer's *window/CSHR semantics only* — W-entry windows,
//! parallel hit check against one open tag, oldest-first re-tagging, and
//! cross-window tag carry — without queues, timers or per-cycle
//! stepping. It predicts how many wide DRAM requests the real
//! [`Coalescer`](crate::Coalescer) issues for the stream, which is the
//! x-gather traffic term the analytic execution mode in `nmpic-model`
//! needs: every wide request is one 64 B line of off-chip traffic.
//!
//! The model is exact on steady-state streams (the regulator's partial
//! windows and the watchdog change *when* requests issue, not *how
//! many*). A window's adopted blocks live in the same stamped
//! open-addressed block table the cycle-accurate coalescer uses, so an
//! element costs one short probe (no hashing library, no allocation)
//! and opening a window costs O(1), instead of hundreds of simulated
//! cycles.

use nmpic_mem::block_addr;

use crate::block_table::BlockTable;
use crate::config::{AdapterConfig, CoalescerMode};

/// Counters accumulated by a [`CoalescerTrafficModel`] replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounts {
    /// Elements pushed through the model.
    pub elements: u64,
    /// Wide (64 B) requests the coalescer would issue downstream.
    pub wide_requests: u64,
    /// Elements that merged into an already-open block (window hit or
    /// cross-window carry) instead of costing a new wide request.
    pub reused: u64,
}

impl TrafficCounts {
    /// Elements served per wide request — the paper's coalesce rate.
    /// `0.0` when nothing was requested.
    pub fn coalesce_rate(&self) -> f64 {
        if self.wide_requests == 0 {
            0.0
        } else {
            self.elements as f64 / self.wide_requests as f64
        }
    }
}

/// Streaming structural model of the coalescer's wide-request count.
///
/// Feed element byte addresses in stream order with
/// [`CoalescerTrafficModel::push`]; read the prediction from
/// [`CoalescerTrafficModel::counts`] at any point. Window state mirrors
/// the hardware: each window holds `W` elements, every element whose
/// block was already adopted in the current window (or is the tag
/// carried across the boundary in cross-window mode) coalesces for
/// free, and each newly adopted block costs exactly one wide request
/// when its tag eventually retires.
///
/// # Example
///
/// ```
/// use nmpic_core::{AdapterConfig, CoalescerTrafficModel};
///
/// let mut m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
/// for k in 0..16u64 {
///     m.push(k * 8); // two windows, both fully inside blocks 0 and 64
/// }
/// assert_eq!(m.counts().wide_requests, 2);
/// assert!(m.counts().coalesce_rate() > 7.9);
/// ```
#[derive(Debug, Clone)]
pub struct CoalescerTrafficModel {
    window: usize,
    coalescing: bool,
    cross_window: bool,
    /// Block tag the CSHR holds open across the next window boundary.
    carry: Option<u64>,
    /// Last block adopted in the current window (the tag that will be
    /// open at the boundary, when any adoption happened).
    last_adopted: Option<u64>,
    /// Blocks that coalesce for free in the current window: everything
    /// adopted here plus the carried tag (at most `W + 1`).
    adopted: BlockTable,
    /// Elements consumed by the current window so far.
    fill: usize,
    counts: TrafficCounts,
}

impl CoalescerTrafficModel {
    /// Builds the model for an adapter configuration. `MLPnc`
    /// (no-coalescing) configurations degrade to one wide request per
    /// element, exactly like the real request generator's direct path.
    pub fn new(cfg: &AdapterConfig) -> Self {
        let window = cfg.window.max(1);
        Self {
            window,
            coalescing: cfg.mode != CoalescerMode::None,
            cross_window: cfg.cross_window,
            carry: None,
            last_adopted: None,
            adopted: BlockTable::new(window + 1),
            fill: 0,
            counts: TrafficCounts::default(),
        }
    }

    /// Feeds one element byte address in stream order.
    #[inline]
    pub fn push(&mut self, addr: u64) {
        self.counts.elements += 1;
        if !self.coalescing {
            self.counts.wide_requests += 1;
            return;
        }
        if self.fill == 0 {
            // A fresh window opens with the whole window visible to the
            // watcher; the carried tag (if any) coalesces its matches
            // anywhere in the window before any new adoption.
            self.adopted.clear();
            if let Some(carry) = self.carry {
                self.adopted.entry(carry);
            }
        }
        let block = block_addr(addr);
        if self.adopted.entry(block).1 {
            // A new block adoption: one wide request when it retires.
            self.last_adopted = Some(block);
            self.counts.wide_requests += 1;
        } else {
            self.counts.reused += 1;
        }
        self.fill += 1;
        if self.fill == self.window {
            self.close_window();
        }
    }

    /// Feeds a whole slice of element addresses.
    pub fn push_all(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for a in addrs {
            self.push(a);
        }
    }

    /// The counters accumulated so far.
    pub fn counts(&self) -> TrafficCounts {
        self.counts
    }

    /// Ends the current (possibly partial) window, as the regulator's
    /// fill timeout does at a stream tail, and resets for a fresh burst
    /// while keeping the counters.
    pub fn flush(&mut self) {
        self.close_window();
        self.carry = None;
        self.last_adopted = None;
    }

    fn close_window(&mut self) {
        self.fill = 0;
        if self.cross_window {
            // The tag open at the boundary survives: the last adoption,
            // or the previous carry when this window adopted nothing.
            if let Some(b) = self.last_adopted.take() {
                self.carry = Some(b);
            }
        } else {
            // Ablation mode retires the CSHR at every window boundary.
            self.carry = None;
            self.last_adopted = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use nmpic_sim::SimRng;

    use super::*;

    fn count(cfg: &AdapterConfig, addrs: &[u64]) -> TrafficCounts {
        let mut m = CoalescerTrafficModel::new(cfg);
        m.push_all(addrs.iter().copied());
        m.counts()
    }

    #[test]
    fn all_same_block_is_one_wide_request() {
        let c = count(
            &AdapterConfig::mlp(8),
            &(0..8u64).map(|s| s * 8).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 1);
        assert_eq!(c.reused, 7);
    }

    #[test]
    fn distinct_blocks_cost_one_each() {
        let c = count(
            &AdapterConfig::mlp(8),
            &(0..8u64).map(|s| s * 64).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 8);
        assert_eq!(c.reused, 0);
    }

    #[test]
    fn cross_window_carry_matches_real_coalescer_counts() {
        // The cycle-accurate coalescer's pinned behaviours
        // (`coalescer.rs` tests): 24 same-block requests over three
        // windows plus one foreign block → 2 wide requests with carry,
        // one per window boundary without.
        let mut addrs: Vec<u64> = (0..24u64).map(|s| (s % 8) * 8).collect();
        addrs.push(4096);
        let carry = count(&AdapterConfig::mlp(8), &addrs);
        assert_eq!(carry.wide_requests, 2);
        let mut no_carry_cfg = AdapterConfig::mlp(8);
        no_carry_cfg.cross_window = false;
        let same_block: Vec<u64> = (0..32u64).map(|s| (s % 8) * 8).collect();
        assert_eq!(count(&no_carry_cfg, &same_block).wide_requests, 4);
        assert_eq!(count(&AdapterConfig::mlp(8), &same_block).wide_requests, 1);
    }

    #[test]
    fn interleaved_blocks_dedup_within_window() {
        // Alternating between two far-apart blocks: each window of 8
        // holds 4 of each → 2 adoptions per window; the carry saves at
        // most the re-adoption of the boundary tag.
        let addrs: Vec<u64> = (0..16u64).map(|s| (s % 2) * 1024 + (s / 2) * 8).collect();
        let c = count(&AdapterConfig::mlp(8), &addrs);
        assert!(
            (2..=4).contains(&c.wide_requests),
            "wide {}",
            c.wide_requests
        );
    }

    #[test]
    fn nocoal_mode_is_one_request_per_element() {
        let c = count(
            &AdapterConfig::mlp_nc(),
            &(0..100u64).map(|s| (s % 4) * 8).collect::<Vec<_>>(),
        );
        assert_eq!(c.wide_requests, 100);
        assert_eq!(c.coalesce_rate(), 1.0);
    }

    #[test]
    fn flush_ends_the_carry() {
        let mut m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
        m.push_all((0..8u64).map(|s| s * 8));
        m.flush();
        m.push_all((0..8u64).map(|s| s * 8));
        // Two separate bursts to the same block: no carry across flush.
        assert_eq!(m.counts().wide_requests, 2);
    }

    /// The window and carry semantics written from the definition, on
    /// ordered sets: a burst (the elements between two flushes) is cut
    /// into `W`-element windows; in each, an element whose block is the
    /// carried tag or already seen in the window is reused, any other
    /// adopts its block and costs one wide request; the last adoption (or,
    /// when the window adopted nothing, the old carry) is carried into the
    /// next window when `cross_window` is on. `MLPnc` costs one wide
    /// request per element.
    fn reference(cfg: &AdapterConfig, bursts: &[Vec<u64>]) -> TrafficCounts {
        let mut c = TrafficCounts::default();
        for burst in bursts {
            c.elements += burst.len() as u64;
            if cfg.mode == CoalescerMode::None {
                c.wide_requests += burst.len() as u64;
                continue;
            }
            let mut carry = None;
            for window in burst.chunks(cfg.window) {
                let mut seen: BTreeSet<u64> = carry.into_iter().collect();
                let mut newest = None;
                for &addr in window {
                    let block = addr / 64 * 64;
                    if seen.insert(block) {
                        c.wide_requests += 1;
                        newest = Some(block);
                    } else {
                        c.reused += 1;
                    }
                }
                carry = if cfg.cross_window {
                    newest.or(carry)
                } else {
                    None
                };
            }
        }
        c
    }

    /// `len` element addresses of one stream shape over a 4096-column
    /// vector at `0x10_0000`.
    fn stream(shape: &str, len: usize, rng: &mut SimRng) -> Vec<u64> {
        const COLS: u64 = 4096;
        let col = |c: u64| 0x10_0000 + 8 * (c % COLS);
        (0..len as u64)
            .map(|k| match shape {
                "uniform" => col(rng.gen_u64(0, COLS)),
                "banded" => col(k / 6 + rng.gen_u64(0, 24)),
                "hub" if rng.gen_u64(0, 3) > 0 => col(rng.gen_u64(0, 4) * 997),
                "hub" => col(rng.gen_u64(0, COLS)),
                "one block" => col(rng.gen_u64(0, 8)),
                "stride 64" => col(8 * k),
                other => panic!("unknown shape {other}"),
            })
            .collect()
    }

    /// [`CoalescerTrafficModel`] against [`reference`] on seeded streams
    /// of five shapes, for W ∈ {8, 64, 256} with cross-window carry on and
    /// off and for `MLPnc`, flushing at random points.
    #[test]
    fn model_matches_an_ordered_set_reference() {
        let mut cfgs = vec![AdapterConfig::mlp_nc()];
        for w in [8, 64, 256] {
            for cross_window in [true, false] {
                let mut cfg = AdapterConfig::mlp(w);
                cfg.cross_window = cross_window;
                cfgs.push(cfg);
            }
        }
        let shapes = ["uniform", "banded", "hub", "one block", "stride 64"];
        for seed in 1..=4 {
            let mut rng = SimRng::new(seed);
            for shape in shapes {
                let addrs = stream(shape, 3000, &mut rng);
                let mut bursts = Vec::new();
                let mut rest = &addrs[..];
                while !rest.is_empty() {
                    let cut = rng.gen_usize(1, 1200).min(rest.len());
                    bursts.push(rest[..cut].to_vec());
                    rest = &rest[cut..];
                }
                for cfg in &cfgs {
                    let mut m = CoalescerTrafficModel::new(cfg);
                    for burst in &bursts {
                        m.push_all(burst.iter().copied());
                        m.flush();
                    }
                    assert_eq!(
                        m.counts(),
                        reference(cfg, &bursts),
                        "{shape}, seed {seed}, {} cross_window {}",
                        cfg.label(),
                        cfg.cross_window
                    );
                }
            }
        }
    }

    #[test]
    fn empty_stream_has_zero_rate() {
        let m = CoalescerTrafficModel::new(&AdapterConfig::mlp(8));
        assert_eq!(m.counts().coalesce_rate(), 0.0);
    }
}
