//! Ideal-requestor experiment harness: runs a whole indirect stream
//! against an HBM channel, verifies the gathered data against a golden
//! model, and reports the paper's Fig. 3 / Fig. 4 metrics.
//!
//! This reproduces the paper's indirect-stream methodology: "an ideal
//! requestor issued continuous AXI-Pack indirect read requests from
//! upstream, and our matrices, prepared in either SELL or CSR format,
//! were preloaded into the HBM model."

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_mem::{BackendConfig, Memory, BLOCK_BYTES};
use nmpic_sim::Cycle;

use crate::coalescer::CoalescerStats;
use crate::config::AdapterConfig;
use crate::unit::{AdapterStats, IndirectStreamUnit};

/// Deterministic element pattern: the 64 b value stored at vector
/// position `i`. Gathered results are checked against this function.
pub fn golden_element(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B
}

/// Result of one indirect-stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Adapter variant name (`MLP256`, `SEQ256`, `MLPnc`, ...).
    pub variant: String,
    /// Total cycles from first request to full drain.
    pub cycles: Cycle,
    /// Elements delivered upstream.
    pub elements: u64,
    /// Effective indirect-stream bandwidth in GB/s (Fig. 3's metric).
    pub indir_gbps: f64,
    /// Downstream bandwidth spent fetching indices (Fig. 4).
    pub index_gbps: f64,
    /// Downstream bandwidth spent fetching elements (Fig. 4).
    pub elem_gbps: f64,
    /// Unused downstream bandwidth relative to the channel peak (Fig. 4).
    pub loss_gbps: f64,
    /// The paper's coalesce rate (payload bytes / element-fetch bytes).
    pub coalesce_rate: f64,
    /// Whether every gathered element matched the golden model.
    pub verified: bool,
    /// Raw adapter statistics.
    pub adapter: AdapterStats,
    /// Raw coalescer statistics (`None` for `MLPnc`, which has no
    /// coalescer).
    pub coalescer: Option<CoalescerStats>,
    /// DRAM row-buffer hit rate over the run.
    pub row_hit_rate: f64,
    /// DRAM data-bus utilization over the run.
    pub bus_utilization: f64,
}

/// Options for [`run_indirect_stream`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Memory backend (defaults to the paper's single HBM2 channel; see
    /// [`BackendConfig`] for the ideal and multi-channel alternatives).
    pub backend: BackendConfig,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            backend: BackendConfig::hbm(),
        }
    }
}

/// Runs one full indirect stream (the entire `indices` array gathered
/// from a `vec_len`-element vector of 64 b values) through the adapter
/// and the memory backend `opts` selects (an ideal channel, one HBM2
/// channel, or an interleaved multi-channel stack), verifying the
/// gathered data.
///
/// This is the generator for Fig. 3 (indirect bandwidth) and Fig. 4
/// (bandwidth breakdown + coalesce rate): pass a CSR `col_idx` array or a
/// SELL `col_idx` array as `indices`. `row_hit_rate` comes from
/// [`nmpic_mem::ChannelPort::dram_stats`] and is zero for backends that do
/// not model DRAM internals.
///
/// # Panics
///
/// Panics if `indices` is empty, or with `"indirect stream burst: cycle
/// budget of <n> exceeded — model deadlock"` if the burst has not drained
/// within `200_000 + 256 × indices.len()` cycles.
///
/// # Example
///
/// ```
/// use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
/// let indices: Vec<u32> = (0..256).map(|k| k % 32).collect();
/// let r = run_indirect_stream(&AdapterConfig::mlp(64), &indices, 32, &StreamOptions::default());
/// assert!(r.verified);
/// assert!(r.indir_gbps > 0.0);
/// ```
pub fn run_indirect_stream(
    cfg: &AdapterConfig,
    indices: &[u32],
    vec_len: usize,
    opts: &StreamOptions,
) -> StreamResult {
    assert!(!indices.is_empty(), "empty index stream");
    let count = indices.len() as u64;
    let mut chan = opts
        .backend
        .build(Memory::new(stream_memory_size(indices.len(), vec_len)));

    // Lay out the index array and the vector in DRAM.
    let mem = chan.memory_mut();
    let idx_base = mem.alloc_array(count, 4);
    let elem_base = mem.alloc_array(vec_len as u64, 8);
    mem.write_u32_slice(idx_base, indices);
    for i in 0..vec_len as u64 {
        mem.write_u64(elem_base + 8 * i, golden_element(i));
    }

    let mut unit = IndirectStreamUnit::new(cfg.clone());
    let mut verified = true;
    let mut checked = 0u64;
    let cycles = unit
        .run_burst(
            &mut *chan,
            PackRequest::Indirect {
                idx_base,
                idx_size: ElemSize::B4,
                count,
                elem_base,
                elem_size: ElemSize::B8,
            },
            |beat| {
                for v in beat.elements() {
                    let want = golden_element(indices[checked as usize] as u64);
                    if v != want {
                        verified = false;
                    }
                    checked += 1;
                }
            },
        )
        // nmpic-lint: allow(L2) — invariant: the unit was constructed just above and the stream is non-empty, so the burst is accepted
        .expect("fresh unit accepts a non-empty burst");
    verified &= checked == count;

    let stats = unit.stats();
    let freq = 1.0; // GHz
    let gbps = |bytes: u64| bytes as f64 * freq / cycles as f64;
    let peak = chan.peak_bytes_per_cycle() as f64 * freq;
    let index_gbps = gbps(stats.idx_bytes());
    let elem_gbps = gbps(stats.elem_bytes());
    let row_hit_rate = chan.dram_stats().map_or(0.0, |s| s.row_hit_rate());
    // Utilization of the aggregate data bus: bytes actually moved over the
    // peak the backend could have moved in `cycles` cycles.
    let bus_utilization = if cycles == 0 || peak == 0.0 {
        0.0
    } else {
        chan.data_bytes() as f64 / (cycles as f64 * peak)
    };
    StreamResult {
        variant: cfg.variant_name(),
        cycles,
        elements: stats.elements_delivered,
        indir_gbps: gbps(stats.payload_bytes),
        index_gbps,
        elem_gbps,
        loss_gbps: (peak - index_gbps - elem_gbps).max(0.0),
        coalesce_rate: stats.coalesce_rate(),
        verified,
        adapter: stats,
        coalescer: unit.coalescer_stats(),
        row_hit_rate,
        bus_utilization,
    }
}

/// Memory footprint [`run_indirect_stream`] allocates for a given stream
/// (index array + vector + slack), rounded to a power of two.
pub fn stream_memory_size(count: usize, vec_len: usize) -> usize {
    let need = 4 * count as u64 + 8 * vec_len as u64 + 8192;
    (need.next_multiple_of(BLOCK_BYTES as u64) as usize).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local_indices(n: usize, span: u32) -> Vec<u32> {
        // Runs of 8 consecutive indices hopping around a span.
        (0..n)
            .map(|k| {
                let run = (k / 8) as u64;
                let base = (run.wrapping_mul(0x9E37) % (span as u64 / 8)) * 8;
                (base + (k % 8) as u64) as u32
            })
            .collect()
    }

    #[test]
    fn stream_verifies_and_reports_positive_bandwidth() {
        let idx = local_indices(2048, 1024);
        let r = run_indirect_stream(
            &AdapterConfig::mlp(64),
            &idx,
            1024,
            &StreamOptions::default(),
        );
        assert!(r.verified, "gather mismatch");
        assert_eq!(r.elements, 2048);
        assert!(r.indir_gbps > 1.0);
        assert!(r.loss_gbps >= 0.0);
    }

    #[test]
    fn coalescer_beats_no_coalescer_on_local_stream() {
        let idx = local_indices(4096, 2048);
        let opts = StreamOptions::default();
        let nc = run_indirect_stream(&AdapterConfig::mlp_nc(), &idx, 2048, &opts);
        let c256 = run_indirect_stream(&AdapterConfig::mlp(256), &idx, 2048, &opts);
        assert!(nc.verified && c256.verified);
        assert!(
            c256.indir_gbps > 3.0 * nc.indir_gbps,
            "MLP256 {:.1} GB/s vs MLPnc {:.1} GB/s",
            c256.indir_gbps,
            nc.indir_gbps
        );
        assert!(c256.coalesce_rate > nc.coalesce_rate);
    }

    #[test]
    fn seq_capped_under_8_gbps() {
        let idx = local_indices(4096, 2048);
        let r = run_indirect_stream(
            &AdapterConfig::seq(256),
            &idx,
            2048,
            &StreamOptions::default(),
        );
        assert!(r.verified);
        assert!(
            r.indir_gbps <= 8.0 + 1e-6,
            "SEQ is one elem/cycle = 8 GB/s max, got {:.2}",
            r.indir_gbps
        );
    }

    #[test]
    fn breakdown_sums_to_peak() {
        let idx = local_indices(2048, 4096);
        let r = run_indirect_stream(
            &AdapterConfig::mlp(64),
            &idx,
            4096,
            &StreamOptions::default(),
        );
        let sum = r.index_gbps + r.elem_gbps + r.loss_gbps;
        assert!(
            (sum - 32.0).abs() < 1.0,
            "index {:.1} + elem {:.1} + loss {:.1} = {sum:.1} != 32",
            r.index_gbps,
            r.elem_gbps,
            r.loss_gbps
        );
    }
}
