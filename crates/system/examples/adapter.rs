//! The indirect stream adapter on its own, without a processor system.
//!
//! First, gather a suite matrix's SELL column-index stream through three
//! adapter variants and print the effective bandwidth and coalesce rate
//! next to each variant's area and on-chip storage. Then permute a
//! vector through DRAM with both indirect units: gather `src[perm[k]]`
//! into a packed stream and scatter it back to `dst[perm[k]]`, so the
//! example asserts `dst == src`.
//!
//! Run with: `cargo run --release -p nmpic-system --example adapter`

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_core::{
    run_indirect_stream, AdapterConfig, IndirectStreamUnit, ScatterRequest, ScatterUnit,
    StreamOptions,
};
use nmpic_mem::{ChannelPort, HbmChannel, HbmConfig, Memory};
use nmpic_model::adapter_area;
use nmpic_sparse::{by_name, Sell};

fn main() {
    gather_variants();
    scatter_gather_round_trip();
}

/// Streams a matrix's column indices through MLPnc, MLP64 and MLP256.
fn gather_variants() {
    // The HPCG 27-point stencil from the paper's suite, scaled to ~50k
    // nonzeros so the cycle-accurate run finishes in moments.
    let spec = by_name("HPCG").expect("suite matrix");
    let csr = spec.build_capped(50_000);
    let sell = Sell::from_csr_default(&csr);
    println!(
        "matrix {}: {} rows, {} nnz ({} padded SELL entries)",
        spec.name,
        csr.rows(),
        csr.nnz(),
        sell.padded_len()
    );

    // Each gather runs against a cycle-accurate HBM2 channel and is
    // verified element by element against a golden model.
    for cfg in [
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(256),
    ] {
        let r = run_indirect_stream(&cfg, sell.col_idx(), csr.cols(), &StreamOptions::default());
        assert!(r.verified, "gathered data must match the golden model");
        let area = adapter_area(&cfg);
        println!(
            "{:8}  {:6.2} GB/s, coalesce rate {:4.2}, {:6.3} mm^2, {:6.1} kB",
            r.variant,
            r.indir_gbps,
            r.coalesce_rate,
            area.area_mm2(),
            cfg.storage_bytes() as f64 / 1024.0
        );
    }
    println!("The 256-entry window turns ~one DRAM access per element into one");
    println!("access per coalesced request warp: the paper's 8x claim.\n");
}

/// Gathers through a permutation and scatters back through the same one.
fn scatter_gather_round_trip() {
    let n: u64 = 4096;
    let mut mem = Memory::new(1 << 22);
    let idx_base = mem.alloc_array(n, 4);
    let src = mem.alloc_array(n, 8);
    let dst = mem.alloc_array(n, 8);

    // A locality-rich permutation: blocks of 16 shuffled around.
    let perm: Vec<u32> = (0..n as u32)
        .map(|k| {
            let blk = (k / 16) as u64;
            let shuffled = (blk.wrapping_mul(0x9E37) % (n / 16)) as u32;
            shuffled * 16 + k % 16
        })
        .collect();
    mem.write_u32_slice(idx_base, &perm);
    for i in 0..n {
        mem.write_u64(src + 8 * i, 0xC0FFEE00 + i);
    }
    let mut chan = HbmChannel::new(HbmConfig::default(), mem);

    let mut gather = IndirectStreamUnit::new(AdapterConfig::mlp(256));
    let mut gathered = Vec::new();
    let gather_cycles = gather
        .run_burst(
            &mut chan,
            PackRequest::Indirect {
                idx_base,
                idx_size: ElemSize::B4,
                count: n,
                elem_base: src,
                elem_size: ElemSize::B8,
            },
            |beat| gathered.extend(beat.elements()),
        )
        .expect("fresh unit");
    println!(
        "gather:  {n} elements in {gather_cycles} cycles, {} wide reads (coalesce rate {:.2})",
        gather.stats().elem_wide_reads,
        gather.stats().coalesce_rate()
    );

    // Each burst starts its own clock at cycle 0, so the drained
    // channel's timing state is reset first (its memory image stays).
    chan.reset_run_state();
    let mut scatter = ScatterUnit::new(AdapterConfig::mlp(256));
    let scatter_cycles = scatter
        .run_burst(
            &mut chan,
            ScatterRequest {
                idx_base,
                idx_size: ElemSize::B4,
                count: n,
                elem_base: dst,
                elem_size: ElemSize::B8,
            },
            gathered,
        )
        .expect("fresh unit");
    println!(
        "scatter: {n} elements in {scatter_cycles} cycles, {} wide masked writes (coalesce rate {:.2})",
        scatter.stats().wide_writes,
        scatter.stats().coalesce_rate()
    );

    for i in 0..n {
        let want = chan.memory().read_u64(src + 8 * i);
        let got = chan.memory().read_u64(dst + 8 * i);
        assert_eq!(got, want, "slot {i}");
    }
    println!("verified: dst == src after the scatter/gather round trip");
}
