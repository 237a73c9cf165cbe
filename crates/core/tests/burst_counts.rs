//! Pinned simulated counts of the bursts `coalescer_counts.rs` does not
//! drive: contiguous and strided gathers, indirect scatters, and one unit
//! serving the pack prefetcher's contiguous → contiguous → indirect order
//! without a `reset` in between (which carries the DRAM arbiter's
//! round-robin pointer across bursts).
//!
//! Every row records the exact cycle count and statistics block of its
//! burst on `ideal` and on `hbm`, and every burst checks its data against
//! a golden model. A host-side rewrite of the units must leave this table
//! untouched and green. On a mismatch the failure message prints the
//! measured rows in source form, so a deliberate model change re-pins by
//! copy and paste.

use std::fmt::Debug;

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_core::{
    AdapterConfig, AdapterStats, IndirectStreamUnit, ScatterRequest, ScatterStats, ScatterUnit,
};
use nmpic_mem::{BackendConfig, ChannelPort, Memory};

/// `[cycles, elements_delivered, payload_bytes, idx_wide_reads,
/// elem_wide_reads, contig_wide_reads, beats_emitted]`.
type Gather = [u64; 7];
/// `[cycles, elements_in, wide_writes, idx_wide_reads, writes_coalesced]`.
type Scatter = [u64; 5];

/// `(element width, block-aligned base, count, backend, counts)`.
type ContigRow = (&'static str, bool, u64, &'static str, Gather);
/// `(stride in bytes, variant, backend, counts)`.
type StridedRow = (u64, &'static str, &'static str, Gather);
/// `(index pattern, variant, backend, counts)`.
type ScatterRow = (&'static str, &'static str, &'static str, Scatter);
/// `(variant, backend, cycles of the three bursts, final counts with the
/// cycle slot zero)`.
type ChainRow = (&'static str, &'static str, [u64; 3], Gather);

const BACKENDS: [&str; 2] = ["ideal", "hbm"];

#[rustfmt::skip]
const CONTIGUOUS: &[ContigRow] = &[
    ("b4", true, 1, "ideal", [22, 1, 4, 0, 0, 1, 1]),
    ("b4", true, 1, "hbm", [41, 1, 4, 0, 0, 1, 1]),
    ("b4", true, 100, "ideal", [34, 100, 400, 0, 0, 7, 7]),
    ("b4", true, 100, "hbm", [103, 100, 400, 0, 0, 7, 7]),
    ("b4", true, 5000, "ideal", [646, 5000, 20000, 0, 0, 313, 313]),
    ("b4", true, 5000, "hbm", [1450, 5000, 20000, 0, 0, 313, 313]),
    ("b4", false, 1, "ideal", [22, 1, 4, 0, 0, 1, 1]),
    ("b4", false, 1, "hbm", [41, 1, 4, 0, 0, 1, 1]),
    ("b4", false, 100, "ideal", [35, 100, 400, 0, 0, 7, 7]),
    ("b4", false, 100, "hbm", [104, 100, 400, 0, 0, 7, 7]),
    ("b4", false, 5000, "ideal", [647, 5000, 20000, 0, 0, 313, 313]),
    ("b4", false, 5000, "hbm", [1451, 5000, 20000, 0, 0, 313, 313]),
    ("b8", true, 1, "ideal", [22, 1, 8, 0, 0, 1, 1]),
    ("b8", true, 1, "hbm", [41, 1, 8, 0, 0, 1, 1]),
    ("b8", true, 100, "ideal", [46, 100, 800, 0, 0, 13, 13]),
    ("b8", true, 100, "hbm", [127, 100, 800, 0, 0, 13, 13]),
    ("b8", true, 5000, "ideal", [1270, 5000, 40000, 0, 0, 625, 625]),
    ("b8", true, 5000, "hbm", [2861, 5000, 40000, 0, 0, 625, 625]),
    ("b8", false, 1, "ideal", [22, 1, 8, 0, 0, 1, 1]),
    ("b8", false, 1, "hbm", [41, 1, 8, 0, 0, 1, 1]),
    ("b8", false, 100, "ideal", [47, 100, 800, 0, 0, 13, 13]),
    ("b8", false, 100, "hbm", [128, 100, 800, 0, 0, 13, 13]),
    ("b8", false, 5000, "ideal", [1272, 5000, 40000, 0, 0, 626, 625]),
    ("b8", false, 5000, "hbm", [2868, 5000, 40000, 0, 0, 626, 625]),
];

#[rustfmt::skip]
const STRIDED: &[StridedRow] = &[
    (16, "mlp64", "ideal", [421, 777, 6216, 0, 195, 0, 98]),
    (16, "mlp64", "hbm", [505, 777, 6216, 0, 195, 0, 98]),
    (16, "seq64", "ideal", [846, 777, 6216, 0, 195, 0, 98]),
    (16, "seq64", "hbm", [895, 777, 6216, 0, 195, 0, 98]),
    (16, "mlpnc", "ideal", [1575, 777, 6216, 0, 777, 0, 98]),
    (16, "mlpnc", "hbm", [2267, 777, 6216, 0, 777, 0, 98]),
    (24, "mlp64", "ideal", [615, 777, 6216, 0, 292, 0, 98]),
    (24, "mlp64", "hbm", [690, 777, 6216, 0, 292, 0, 98]),
    (24, "seq64", "ideal", [853, 777, 6216, 0, 292, 0, 98]),
    (24, "seq64", "hbm", [927, 777, 6216, 0, 292, 0, 98]),
    (24, "mlpnc", "ideal", [1575, 777, 6216, 0, 777, 0, 98]),
    (24, "mlpnc", "hbm", [1849, 777, 6216, 0, 777, 0, 98]),
    (4096, "mlp64", "ideal", [1585, 777, 6216, 0, 777, 0, 98]),
    (4096, "mlp64", "hbm", [8200, 777, 6216, 0, 777, 0, 98]),
    (4096, "seq64", "ideal", [1596, 777, 6216, 0, 777, 0, 98]),
    (4096, "seq64", "hbm", [8209, 777, 6216, 0, 777, 0, 98]),
    (4096, "mlpnc", "ideal", [1575, 777, 6216, 0, 777, 0, 98]),
    (4096, "mlpnc", "hbm", [8190, 777, 6216, 0, 777, 0, 98]),
];

#[rustfmt::skip]
const SCATTER: &[ScatterRow] = &[
    ("sequential", "mlp64", "ideal", [542, 500, 63, 32, 437]),
    ("sequential", "mlp64", "hbm", [597, 500, 63, 32, 437]),
    ("sequential", "mlpnc", "ideal", [542, 500, 63, 32, 437]),
    ("sequential", "mlpnc", "hbm", [597, 500, 63, 32, 437]),
    ("sequential", "seq256", "ideal", [542, 500, 63, 32, 437]),
    ("sequential", "seq256", "hbm", [597, 500, 63, 32, 437]),
    ("random", "mlp64", "ideal", [1083, 500, 500, 32, 0]),
    ("random", "mlp64", "hbm", [604, 500, 500, 32, 0]),
    ("random", "mlpnc", "ideal", [1083, 500, 500, 32, 0]),
    ("random", "mlpnc", "hbm", [604, 500, 500, 32, 0]),
    ("random", "seq256", "ideal", [1083, 500, 500, 32, 0]),
    ("random", "seq256", "hbm", [604, 500, 500, 32, 0]),
    ("duplicate", "mlp64", "ideal", [957, 500, 437, 32, 63]),
    ("duplicate", "mlp64", "hbm", [1803, 500, 437, 32, 63]),
    ("duplicate", "mlpnc", "ideal", [957, 500, 437, 32, 63]),
    ("duplicate", "mlpnc", "hbm", [1803, 500, 437, 32, 63]),
    ("duplicate", "seq256", "ideal", [957, 500, 437, 32, 63]),
    ("duplicate", "seq256", "hbm", [1803, 500, 437, 32, 63]),
    ("single_block", "mlp64", "ideal", [542, 500, 1, 32, 499]),
    ("single_block", "mlp64", "hbm", [569, 500, 1, 32, 499]),
    ("single_block", "mlpnc", "ideal", [542, 500, 1, 32, 499]),
    ("single_block", "mlpnc", "hbm", [569, 500, 1, 32, 499]),
    ("single_block", "seq256", "ideal", [542, 500, 1, 32, 499]),
    ("single_block", "seq256", "hbm", [569, 500, 1, 32, 499]),
];

#[rustfmt::skip]
const CHAIN: &[ChainRow] = &[
    ("mlp64", "ideal", [27, 96, 540], [0, 637, 4948, 19, 240, 41, 79]),
    ("mlp64", "hbm", [88, 237, 636], [0, 637, 4948, 19, 246, 41, 79]),
    ("seq64", "ideal", [27, 96, 559], [0, 637, 4948, 19, 247, 41, 79]),
    ("seq64", "hbm", [88, 237, 632], [0, 637, 4948, 19, 247, 41, 79]),
    ("mlpnc", "ideal", [27, 96, 659], [0, 637, 4948, 19, 300, 41, 79]),
    ("mlpnc", "hbm", [88, 237, 724], [0, 637, 4948, 19, 300, 41, 79]),
];

fn backend(name: &str) -> BackendConfig {
    match name {
        "ideal" => BackendConfig::ideal(),
        "hbm" => BackendConfig::hbm(),
        other => panic!("unknown backend '{other}'"),
    }
}

fn config(variant: &str) -> AdapterConfig {
    match variant {
        "mlp64" => AdapterConfig::mlp(64),
        "seq64" => AdapterConfig::seq(64),
        "seq256" => AdapterConfig::seq(256),
        "mlpnc" => AdapterConfig::mlp_nc(),
        other => panic!("unknown variant '{other}'"),
    }
}

fn width(name: &str) -> ElemSize {
    match name {
        "b4" => ElemSize::B4,
        "b8" => ElemSize::B8,
        other => panic!("unknown width '{other}'"),
    }
}

/// The value stored at element `i`, cut to `bytes` bytes.
fn golden(i: u64, bytes: usize) -> u64 {
    let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF;
    if bytes == 8 {
        v
    } else {
        v & ((1 << (8 * bytes)) - 1)
    }
}

fn write_elem(mem: &mut Memory, addr: u64, value: u64, bytes: usize) {
    match bytes {
        4 => mem.write_u32(addr, u32::try_from(value).expect("4-byte value")),
        _ => mem.write_u64(addr, value),
    }
}

fn gather_counts(cycles: u64, s: AdapterStats) -> Gather {
    [
        cycles,
        s.elements_delivered,
        s.payload_bytes,
        s.idx_wide_reads,
        s.elem_wide_reads,
        s.contig_wide_reads,
        s.beats_emitted,
    ]
}

/// Runs `req` on `unit` and returns the cycle count and the delivered
/// elements.
fn run(
    unit: &mut IndirectStreamUnit,
    chan: &mut dyn ChannelPort,
    req: PackRequest,
) -> (u64, Vec<u64>) {
    let (mut got, width) = (Vec::new(), req.elem_size());
    let cycles = unit
        .run_burst(chan, req, |beat| {
            assert_eq!(beat.elem_size, width);
            got.extend(beat.elements());
        })
        .expect("idle unit accepts the burst");
    (cycles, got)
}

fn contiguous(w: &str, aligned: bool, count: u64, backend_name: &str) -> Gather {
    let bytes = width(w).bytes();
    let mut mem = Memory::new(1 << 17);
    let region = mem.alloc(count * bytes as u64 + 64, 64);
    let base = if aligned {
        region
    } else {
        region + 3 * bytes as u64
    };
    for i in 0..count {
        write_elem(&mut mem, base + i * bytes as u64, golden(i, bytes), bytes);
    }
    let mut chan = backend(backend_name).build(mem);
    let mut unit = IndirectStreamUnit::new(config("mlp64"));
    let req = PackRequest::Contiguous {
        base,
        elem_size: width(w),
        count,
    };
    let (cycles, vals) = run(&mut unit, &mut *chan, req);
    let want: Vec<u64> = (0..count).map(|i| golden(i, bytes)).collect();
    assert_eq!(
        vals, want,
        "contiguous {w} aligned={aligned} x{count} on {backend_name}"
    );
    gather_counts(cycles, unit.stats())
}

const STRIDED_COUNT: u64 = 777;

fn strided(stride: u64, variant: &str, backend_name: &str) -> Gather {
    let mut mem = Memory::new(((STRIDED_COUNT * stride + 4096) as usize).next_multiple_of(64));
    let base = mem.alloc(STRIDED_COUNT * stride, 64);
    for k in 0..STRIDED_COUNT {
        mem.write_u64(base + k * stride, golden(k, 8));
    }
    let mut chan = backend(backend_name).build(mem);
    let mut unit = IndirectStreamUnit::new(config(variant));
    let req = PackRequest::Strided {
        base,
        stride,
        elem_size: ElemSize::B8,
        count: STRIDED_COUNT,
    };
    let (cycles, vals) = run(&mut unit, &mut *chan, req);
    let want: Vec<u64> = (0..STRIDED_COUNT).map(|k| golden(k, 8)).collect();
    assert_eq!(vals, want, "stride {stride} {variant} on {backend_name}");
    gather_counts(cycles, unit.stats())
}

const SCATTER_COUNT: u64 = 500;
const SCATTER_DST: u64 = 512;

fn scatter_indices(pattern: &str) -> Vec<u32> {
    (0..SCATTER_COUNT as u32)
        .map(|k| match pattern {
            "sequential" => k,
            "random" => (k as u64 * 2_654_435_761 % SCATTER_DST) as u32,
            // Every slot is written several times, out of order.
            "duplicate" => k * 7 % 24,
            // Every write lands in one 64 B block.
            "single_block" => k * 3 % 8,
            other => panic!("unknown pattern '{other}'"),
        })
        .collect()
}

fn scatter(pattern: &str, variant: &str, backend_name: &str) -> Scatter {
    let indices = scatter_indices(pattern);
    let mut mem = Memory::new(1 << 14);
    let idx_base = mem.alloc_array(SCATTER_COUNT, 4);
    let dst = mem.alloc_array(SCATTER_DST, 8);
    mem.write_u32_slice(idx_base, &indices);
    let mut chan = backend(backend_name).build(mem);
    let mut unit = ScatterUnit::new(config(variant));
    let req = ScatterRequest {
        idx_base,
        idx_size: ElemSize::B4,
        count: SCATTER_COUNT,
        elem_base: dst,
        elem_size: ElemSize::B8,
    };
    let values = (0..SCATTER_COUNT).map(|k| golden(k, 8));
    let cycles = unit
        .run_burst(&mut *chan, req, values)
        .expect("idle unit accepts the burst");
    let mut want = vec![0u64; SCATTER_DST as usize];
    for (k, &i) in indices.iter().enumerate() {
        want[i as usize] = golden(k as u64, 8);
    }
    for (i, w) in want.iter().enumerate() {
        let got = chan.memory().read_u64(dst + 8 * i as u64);
        assert_eq!(got, *w, "{pattern} {variant} on {backend_name}: slot {i}");
    }
    let s: ScatterStats = unit.stats();
    [
        cycles,
        s.elements_in,
        s.wide_writes,
        s.idx_wide_reads,
        s.writes_coalesced,
    ]
}

/// One unit, no `reset`: 37 unaligned 32 b slice pointers, 300 values,
/// then 300 gathers through them — the pack prefetcher's tile order.
fn chain(variant: &str, backend_name: &str) -> ([u64; 3], Gather) {
    const N: u64 = 300;
    const PTRS: u64 = 37;
    const VEC: u64 = 512;
    let mut mem = Memory::new(1 << 16);
    let ptr_base = mem.alloc(4 * PTRS + 64, 64) + 4;
    let val_base = mem.alloc_array(N, 8);
    let idx_base = mem.alloc_array(N, 4);
    let vec_base = mem.alloc_array(VEC, 8);
    for i in 0..PTRS {
        write_elem(&mut mem, ptr_base + 4 * i, golden(i, 4), 4);
    }
    let indices: Vec<u32> = (0..N as u32).map(|k| k * 37 % VEC as u32).collect();
    mem.write_u32_slice(idx_base, &indices);
    for i in 0..N {
        mem.write_u64(val_base + 8 * i, golden(1000 + i, 8));
    }
    for i in 0..VEC {
        mem.write_u64(vec_base + 8 * i, golden(i, 8));
    }
    let mut chan = backend(backend_name).build(mem);
    let mut unit = IndirectStreamUnit::new(config(variant));
    let bursts = [
        PackRequest::Contiguous {
            base: ptr_base,
            elem_size: ElemSize::B4,
            count: PTRS,
        },
        PackRequest::Contiguous {
            base: val_base,
            elem_size: ElemSize::B8,
            count: N,
        },
        PackRequest::Indirect {
            idx_base,
            idx_size: ElemSize::B4,
            count: N,
            elem_base: vec_base,
            elem_size: ElemSize::B8,
        },
    ];
    let wants: [Vec<u64>; 3] = [
        (0..PTRS).map(|i| golden(i, 4)).collect(),
        (0..N).map(|i| golden(1000 + i, 8)).collect(),
        indices.iter().map(|&i| golden(i as u64, 8)).collect(),
    ];
    let mut cycles = [0; 3];
    for (b, (req, want)) in bursts.into_iter().zip(&wants).enumerate() {
        chan.reset_run_state();
        let (c, vals) = run(&mut unit, &mut *chan, req);
        assert_eq!(&vals, want, "{variant} on {backend_name}: burst {b}");
        cycles[b] = c;
    }
    (cycles, gather_counts(0, unit.stats()))
}

fn check<R: PartialEq + Debug>(what: &str, pinned: &[R], measured: &[R]) {
    let drifted: Vec<String> = measured
        .iter()
        .enumerate()
        .filter(|&(i, row)| pinned.get(i) != Some(row))
        .map(|(_, row)| format!("    {row:?},"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.len() == measured.len(),
        "{what} counts drifted ({} of {} rows); measured rows:\n{}",
        drifted.len(),
        measured.len(),
        drifted.join("\n")
    );
}

#[test]
fn contiguous_counts_match_the_pinned_table() {
    let mut measured = Vec::new();
    for w in ["b4", "b8"] {
        for aligned in [true, false] {
            for count in [1, 100, 5000] {
                for b in BACKENDS {
                    measured.push((w, aligned, count, b, contiguous(w, aligned, count, b)));
                }
            }
        }
    }
    check("contiguous", CONTIGUOUS, &measured);
}

#[test]
fn strided_counts_match_the_pinned_table() {
    let mut measured = Vec::new();
    for stride in [16, 24, 4096] {
        for variant in ["mlp64", "seq64", "mlpnc"] {
            for b in BACKENDS {
                measured.push((stride, variant, b, strided(stride, variant, b)));
            }
        }
    }
    check("strided", STRIDED, &measured);
}

#[test]
fn scatter_counts_match_the_pinned_table() {
    let mut measured = Vec::new();
    for pattern in ["sequential", "random", "duplicate", "single_block"] {
        for variant in ["mlp64", "mlpnc", "seq256"] {
            for b in BACKENDS {
                measured.push((pattern, variant, b, scatter(pattern, variant, b)));
            }
        }
    }
    check("scatter", SCATTER, &measured);
}

#[test]
fn back_to_back_bursts_match_the_pinned_table() {
    let mut measured = Vec::new();
    for variant in ["mlp64", "seq64", "mlpnc"] {
        for b in BACKENDS {
            let (cycles, counts) = chain(variant, b);
            measured.push((variant, b, cycles, counts));
        }
    }
    check("back-to-back", CHAIN, &measured);
}
