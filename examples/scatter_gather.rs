//! Scatter + gather round trip: permute a vector through DRAM using the
//! indirect units in both directions, with write coalescing at work.
//!
//! Gathers `src[perm[k]]` into a packed stream, then scatters that stream
//! to `dst[perm[k]]` — so `dst` must equal `src` — and reports how many
//! wide accesses each direction needed.
//!
//! Run with: `cargo run --release --example scatter_gather`

use nmpic::axi::{ElemSize, PackRequest, Unpacker};
use nmpic::core::{AdapterConfig, IndirectStreamUnit, ScatterRequest, ScatterUnit};
use nmpic::mem::{ChannelPort, HbmChannel, HbmConfig, Memory};

fn main() {
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

    // --- Gather pass.
    let mut gather = IndirectStreamUnit::new(AdapterConfig::mlp(256));
    let mut stream = Unpacker::new(ElemSize::B8);
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
            |beat| stream.push_beat(beat),
        )
        .expect("fresh unit");
    let gathered = stream.drain();
    println!(
        "gather:  {n} elements in {gather_cycles} cycles, {} wide reads (coalesce rate {:.2})",
        gather.stats().elem_wide_reads,
        gather.stats().coalesce_rate()
    );

    // --- Scatter pass: write the gathered stream back through the same
    // permutation, so dst[perm[k]] = src[perm[k]]. Each burst starts its
    // own clock at cycle 0, so the drained channel's timing state is
    // reset first (its memory image stays).
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

    // --- Verify the round trip.
    for i in 0..n {
        let want = chan.memory().read_u64(src + 8 * i);
        let got = chan.memory().read_u64(dst + 8 * i);
        assert_eq!(got, want, "slot {i}");
    }
    println!("verified: dst == src after the scatter/gather round trip");
}
