//! Unit tests for the indirect stream unit: gather correctness across
//! variants, contiguous/strided bursts, and edge geometries.

use super::*;
use nmpic_mem::{BackendConfig, HbmChannel, HbmConfig, IdealChannel, Memory};

fn indirect(count: usize, idx_base: u64, elem_base: u64) -> PackRequest {
    PackRequest::Indirect {
        idx_base,
        idx_size: ElemSize::B4,
        count: count as u64,
        elem_base,
        elem_size: ElemSize::B8,
    }
}

/// Runs one burst on `unit` and returns (values, cycles).
fn run(
    unit: &mut IndirectStreamUnit,
    chan: &mut dyn ChannelPort,
    req: PackRequest,
) -> (Vec<u64>, u64) {
    let (mut got, width) = (Vec::new(), req.elem_size());
    let cycles = unit
        .run_burst(chan, req, |beat| {
            assert_eq!(beat.elem_size, width);
            got.extend(beat.elements());
        })
        .unwrap();
    (got, cycles)
}

/// Runs a full indirect burst on a fresh unit and returns (values, cycles).
fn gather(
    chan: &mut dyn ChannelPort,
    cfg: AdapterConfig,
    indices: &[u32],
    elem_base: u64,
    idx_base: u64,
) -> (Vec<u64>, u64) {
    let mut unit = IndirectStreamUnit::new(cfg);
    run(
        &mut unit,
        chan,
        indirect(indices.len(), idx_base, elem_base),
    )
}

fn setup(indices: &[u32], vec_len: usize) -> (Memory, u64, u64) {
    let need = 4 * indices.len() + 8 * vec_len + 4096;
    let size = need.next_multiple_of(64).next_power_of_two();
    let mut mem = Memory::new(size);
    let idx_base = mem.alloc_array(indices.len() as u64, 4);
    let elem_base = mem.alloc_array(vec_len as u64, 8);
    mem.write_u32_slice(idx_base, indices);
    for i in 0..vec_len as u64 {
        mem.write_u64(elem_base + 8 * i, golden(i));
    }
    (mem, idx_base, elem_base)
}

fn golden(i: u64) -> u64 {
    i.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD
}

fn check_all(cfg: AdapterConfig, indices: &[u32], vec_len: usize) -> (AdapterStats, u64) {
    let (mem, idx_base, elem_base) = setup(indices, vec_len);
    let mut chan = IdealChannel::new(mem, 20, 2);
    let mut unit = IndirectStreamUnit::new(cfg);
    let req = indirect(indices.len(), idx_base, elem_base);
    let (values, cycles) = run(&mut unit, &mut chan, req);
    assert_eq!(values.len(), indices.len());
    for (k, &v) in values.iter().enumerate() {
        assert_eq!(v, golden(indices[k] as u64), "element {k}");
    }
    (unit.stats(), cycles)
}

#[test]
fn mlp_gathers_correctly_sequential_indices() {
    let indices: Vec<u32> = (0..200u32).collect();
    check_all(AdapterConfig::mlp(8), &indices, 256);
}

#[test]
fn mlp_gathers_correctly_random_indices() {
    let indices: Vec<u32> = (0..500u32)
        .map(|k| ((k as u64).wrapping_mul(2654435761) % 1000) as u32)
        .collect();
    for cfg in [
        AdapterConfig::mlp(8),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(256),
    ] {
        check_all(cfg, &indices, 1000);
    }
}

#[test]
fn seq_and_nocoal_gather_correctly() {
    let indices: Vec<u32> = (0..300u32)
        .map(|k| ((k as u64 * 48271) % 512) as u32)
        .collect();
    check_all(AdapterConfig::seq(64), &indices, 512);
    check_all(AdapterConfig::mlp_nc(), &indices, 512);
}

#[test]
fn unaligned_index_base_handled() {
    // idx_base not block-aligned: first block is partial.
    let indices: Vec<u32> = (0..100u32).map(|k| k % 64).collect();
    let (mut mem, _, _) = setup(&indices, 64);
    // Rewrite indices at an offset 20 bytes into a block.
    let idx_base = mem.alloc(4 * indices.len() as u64 + 20, 64) + 20;
    mem.write_u32_slice(idx_base, &indices);
    let elem_base = {
        // Elements already written by setup at their base; find them by
        // writing again at a fresh region for clarity.
        let base = mem.alloc_array(64, 8);
        for i in 0..64u64 {
            mem.write_u64(base + 8 * i, golden(i));
        }
        base
    };
    let mut chan = IdealChannel::new(mem, 10, 2);
    let (values, _) = gather(
        &mut chan,
        AdapterConfig::mlp(16),
        &indices,
        elem_base,
        idx_base,
    );
    for (k, &v) in values.iter().enumerate() {
        assert_eq!(v, golden(indices[k] as u64));
    }
}

#[test]
fn coalescing_reduces_elem_traffic_on_local_stream() {
    // All indices inside one 8-element block region.
    let indices: Vec<u32> = (0..256u32).map(|k| k % 8).collect();
    let (nc, _) = check_all(AdapterConfig::mlp_nc(), &indices, 64);
    let (mlp, _) = check_all(AdapterConfig::mlp(64), &indices, 64);
    assert_eq!(nc.elem_wide_reads, 256, "MLPnc: one wide read per element");
    assert!(
        mlp.elem_wide_reads <= 8,
        "coalescer must merge, got {}",
        mlp.elem_wide_reads
    );
    assert!(mlp.coalesce_rate() > 1.0);
    assert!((nc.coalesce_rate() - 0.125).abs() < 1e-9);
}

#[test]
fn bigger_window_is_faster_on_local_stream() {
    let indices: Vec<u32> = (0..2000u32)
        .map(|k| (k / 4) % 512) // runs of 4 identical indices
        .collect();
    let (_, c_nc) = check_all(AdapterConfig::mlp_nc(), &indices, 512);
    let (_, c_256) = check_all(AdapterConfig::mlp(256), &indices, 512);
    assert!(
        c_256 * 2 < c_nc,
        "MLP256 ({c_256}) should beat MLPnc ({c_nc}) by >2x on local streams"
    );
}

#[test]
fn seq_is_slower_than_parallel_same_window() {
    // Local pattern (runs of 8 consecutive indices) so the stream is
    // not DRAM-bound: the parallel coalescer can exceed one element
    // per cycle while SEQ is port-limited to one.
    let indices: Vec<u32> = (0..3000u32).map(|k| (k / 8) * 8 % 2048 + k % 8).collect();
    let (_, c_mlp) = check_all(AdapterConfig::mlp(64), &indices, 2048);
    let (_, c_seq) = check_all(AdapterConfig::seq(64), &indices, 2048);
    assert!(
        c_seq as f64 > c_mlp as f64 * 1.3,
        "SEQ ({c_seq}) must be clearly slower than MLP ({c_mlp}) on local streams"
    );
}

#[test]
fn works_against_hbm_channel() {
    let indices: Vec<u32> = (0..400u32)
        .map(|k| ((k as u64 * 1103515245 + 12345) % 4096) as u32)
        .collect();
    let (mem, idx_base, elem_base) = setup(&indices, 4096);
    let mut chan = HbmChannel::new(HbmConfig::default(), mem);
    let (values, _) = gather(
        &mut chan,
        AdapterConfig::mlp(256),
        &indices,
        elem_base,
        idx_base,
    );
    for (k, &v) in values.iter().enumerate() {
        assert_eq!(v, golden(indices[k] as u64), "element {k}");
    }
}

#[test]
fn contiguous_burst_streams_in_order() {
    let mut mem = Memory::new(1 << 16);
    let base = mem.alloc_array(100, 8);
    for i in 0..100u64 {
        mem.write_u64(base + 8 * i, 1000 + i);
    }
    let mut chan = IdealChannel::new(mem, 10, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let req = PackRequest::Contiguous {
        base,
        elem_size: ElemSize::B8,
        count: 100,
    };
    let (vals, _) = run(&mut unit, &mut chan, req);
    assert_eq!(vals, (1000..1100u64).collect::<Vec<_>>());
}

#[test]
fn strided_burst_gathers_every_other_element() {
    let mut mem = Memory::new(1 << 16);
    let base = mem.alloc_array(128, 8);
    for i in 0..128u64 {
        mem.write_u64(base + 8 * i, 7 * i);
    }
    let mut chan = IdealChannel::new(mem, 10, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let req = PackRequest::Strided {
        base,
        stride: 16,
        elem_size: ElemSize::B8,
        count: 64,
    };
    let (vals, _) = run(&mut unit, &mut chan, req);
    assert_eq!(vals.len(), 64);
    for (k, &v) in vals.iter().enumerate() {
        assert_eq!(v, 7 * 2 * k as u64);
    }
}

#[test]
fn begin_while_busy_is_rejected() {
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    unit.begin(PackRequest::Contiguous {
        base: 0,
        elem_size: ElemSize::B8,
        count: 8,
    })
    .unwrap();
    let err = unit.begin(PackRequest::Contiguous {
        base: 0,
        elem_size: ElemSize::B8,
        count: 8,
    });
    assert_eq!(err, Err(BeginError::Busy));
}

#[test]
fn empty_burst_is_rejected() {
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let err = unit.begin(PackRequest::Contiguous {
        base: 0,
        elem_size: ElemSize::B8,
        count: 0,
    });
    assert_eq!(err, Err(BeginError::EmptyBurst));
}

#[test]
fn back_to_back_bursts_reuse_the_unit() {
    let indices: Vec<u32> = (0..64u32).collect();
    let (mem, idx_base, elem_base) = setup(&indices, 64);
    let mut chan = IdealChannel::new(mem, 10, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(16));
    for _ in 0..3 {
        // The drained channel is reset because each burst restarts time.
        chan.reset_run_state();
        let (vals, _) = run(&mut unit, &mut chan, indirect(64, idx_base, elem_base));
        assert_eq!(vals.len(), 64);
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(v, golden(k as u64));
        }
    }
    assert_eq!(unit.stats().elements_delivered, 192);
}

/// `reset` clears the unit in place instead of rebuilding it; a reset
/// unit must be indistinguishable from a fresh one. For every coalescer
/// mode: dirty a unit with a burst whose odd length leaves the upsizer's
/// and downsizer's round-robin pointers, the window stamp and the
/// sequence counters mid-rotation, reset it, and replay a reference
/// burst — beats, cycle count and both statistics blocks must equal a
/// fresh unit's bit for bit.
#[test]
fn reset_unit_replays_a_fresh_unit_bit_for_bit() {
    let reference: Vec<u32> = (0..700u32)
        .map(|k| ((k as u64 * 2654435761) % 512) as u32)
        .collect();
    let dirt: Vec<u32> = (0..77u32).map(|k| (k * 5) % 512).collect();
    let replay = |unit: &mut IndirectStreamUnit, backend: &BackendConfig| {
        let (mem, idx_base, elem_base) = setup(&reference, 512);
        let mut chan = backend.build(mem);
        let mut beats = Vec::new();
        let cycles = unit
            .run_burst(
                &mut *chan,
                indirect(reference.len(), idx_base, elem_base),
                |beat| beats.push(beat.clone()),
            )
            .unwrap();
        (beats, cycles, unit.stats(), unit.coalescer_stats())
    };
    for cfg in [
        AdapterConfig::mlp(64),
        AdapterConfig::seq(64),
        AdapterConfig::mlp_nc(),
    ] {
        for backend in [BackendConfig::ideal(), BackendConfig::hbm()] {
            let ctx = format!("{} on {}", cfg.variant_name(), backend.label());
            let want = replay(&mut IndirectStreamUnit::new(cfg.clone()), &backend);
            assert_eq!(want.2.elements_delivered, 700, "{ctx}");

            let mut unit = IndirectStreamUnit::new(cfg.clone());
            let (mem, idx_base, elem_base) = setup(&dirt, 512);
            let mut chan = backend.build(mem);
            run(
                &mut unit,
                &mut *chan,
                indirect(dirt.len(), idx_base, elem_base),
            );
            unit.reset();
            assert_eq!(unit.stats(), AdapterStats::default(), "{ctx}");
            let got = replay(&mut unit, &backend);
            assert_eq!(got.1, want.1, "{ctx}: cycles");
            assert_eq!(got.2, want.2, "{ctx}: adapter stats");
            assert_eq!(got.3, want.3, "{ctx}: coalescer stats");
            assert_eq!(got.0, want.0, "{ctx}: beats");
        }
    }
}

/// Element base that is element-aligned but not block-aligned: block
/// offsets must still resolve correctly.
#[test]
fn unaligned_element_base() {
    let mut mem = Memory::new(1 << 16);
    let idx_base = mem.alloc_array(32, 4);
    let region = mem.alloc(8 * 40 + 8, 64);
    let elem_base = region + 8; // 8-aligned, not 64-aligned
    let indices: Vec<u32> = (0..32u32).map(|k| (k * 5) % 40).collect();
    mem.write_u32_slice(idx_base, &indices);
    for i in 0..40u64 {
        mem.write_u64(elem_base + 8 * i, 7000 + i);
    }
    let mut chan = IdealChannel::new(mem, 8, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(16));
    let (vals, _) = run(&mut unit, &mut chan, indirect(32, idx_base, elem_base));
    for (k, &v) in vals.iter().enumerate() {
        assert_eq!(v, 7000 + indices[k] as u64, "element {k}");
    }
}

/// A 32 b contiguous burst (like the prefetcher's slice-pointer
/// stream) delivers 16 elements per beat in order.
#[test]
fn contiguous_32b_burst() {
    let mut mem = Memory::new(1 << 14);
    let base = mem.alloc_array(50, 4);
    let data: Vec<u32> = (0..50u32).map(|i| 100 + i).collect();
    mem.write_u32_slice(base, &data);
    let mut chan = IdealChannel::new(mem, 6, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let req = PackRequest::Contiguous {
        base,
        elem_size: ElemSize::B4,
        count: 50,
    };
    let mut vals = Vec::new();
    unit.run_burst(&mut chan, req, |beat| {
        assert_eq!(beat.elem_size, ElemSize::B4);
        vals.extend(beat.elements());
    })
    .unwrap();
    assert_eq!(vals.len(), 50);
    for (k, &v) in vals.iter().enumerate() {
        assert_eq!(v, 100 + k as u64);
    }
}

/// Strided burst through the sequential coalescer variant.
#[test]
fn strided_burst_seq_mode() {
    let mut mem = Memory::new(1 << 14);
    let base = mem.alloc_array(64, 8);
    for i in 0..64u64 {
        mem.write_u64(base + 8 * i, i * i);
    }
    let mut chan = IdealChannel::new(mem, 6, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::seq(32));
    let req = PackRequest::Strided {
        base,
        stride: 24,
        elem_size: ElemSize::B8,
        count: 20,
    };
    let (vals, _) = run(&mut unit, &mut chan, req);
    for (k, &v) in vals.iter().enumerate() {
        let i = 3 * k as u64;
        assert_eq!(v, i * i);
    }
}

/// Strided burst in MLPnc mode (one wide read per element).
#[test]
fn strided_burst_nocoal_mode() {
    let mut mem = Memory::new(1 << 14);
    let base = mem.alloc_array(64, 8);
    for i in 0..64u64 {
        mem.write_u64(base + 8 * i, 1 + 2 * i);
    }
    let mut chan = IdealChannel::new(mem, 6, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp_nc());
    let req = PackRequest::Strided {
        base,
        stride: 16,
        elem_size: ElemSize::B8,
        count: 30,
    };
    let (vals, _) = run(&mut unit, &mut chan, req);
    assert_eq!(vals.len(), 30);
    for (k, &v) in vals.iter().enumerate() {
        assert_eq!(v, 1 + 4 * k as u64);
    }
    assert_eq!(unit.stats().elem_wide_reads, 30);
}

/// Indices at the very top of the 32 b range address high vector
/// slots without overflow.
#[test]
fn high_index_values() {
    let mut mem = Memory::new(1 << 16);
    let idx_base = mem.alloc_array(8, 4);
    let elem_base = mem.alloc_array(1024, 8);
    let indices = [1023u32, 0, 1023, 512, 1, 1022, 3, 1023];
    mem.write_u32_slice(idx_base, &indices);
    for i in 0..1024u64 {
        mem.write_u64(elem_base + 8 * i, i << 32 | i);
    }
    let mut chan = IdealChannel::new(mem, 8, 2);
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let (vals, _) = run(&mut unit, &mut chan, indirect(8, idx_base, elem_base));
    for (k, &v) in vals.iter().enumerate() {
        let i = indices[k] as u64;
        assert_eq!(v, i << 32 | i);
    }
}

/// A gather workload with reuse on a fresh `backend` channel.
fn reference_setup(backend: &BackendConfig) -> (Box<dyn ChannelPort>, PackRequest) {
    let indices: Vec<u32> = (0..600u32)
        .map(|k| ((k as u64 * 48271) % 512) as u32)
        .collect();
    let (mem, idx_base, elem_base) = setup(&indices, 512);
    let req = indirect(indices.len(), idx_base, elem_base);
    (backend.build(mem), req)
}

/// Reference protocol: this test spells out the raw
/// `begin`/`tick`/`pop_beat` loop on purpose — with its scatter twin in
/// `scatter.rs` it is one of the only two hand-written tick loops left
/// outside `crates/sim` — and holds `run_burst` to the same beats and the
/// same cycle count.
#[test]
fn run_burst_matches_the_raw_protocol_loop() {
    for cfg in [
        AdapterConfig::mlp(64),
        AdapterConfig::mlp_nc(),
        AdapterConfig::seq(256),
    ] {
        for backend in [BackendConfig::ideal(), BackendConfig::hbm()] {
            let (mut chan, req) = reference_setup(&backend);
            let mut unit = IndirectStreamUnit::new(cfg.clone());
            unit.begin(req).unwrap();
            let mut raw_beats = Vec::new();
            let mut now = 0;
            while !unit.is_done() {
                unit.tick(now, &mut *chan);
                chan.tick(now);
                while let Some(beat) = unit.pop_beat() {
                    raw_beats.push(beat);
                }
                now += 1;
                assert!(now < 1_000_000);
            }

            let (mut chan, req) = reference_setup(&backend);
            let mut unit = IndirectStreamUnit::new(cfg.clone());
            let mut beats = Vec::new();
            let cycles = unit
                .run_burst(&mut *chan, req, |beat| beats.push(beat.clone()))
                .unwrap();
            let what = format!("{} on {}", cfg.variant_name(), backend.label());
            assert_eq!(cycles, now, "{what}: cycles");
            assert_eq!(beats, raw_beats, "{what}: beats");
        }
    }
}

/// A channel that accepts every request and never answers: the model
/// deadlock the cycle budget exists to catch.
struct BlackHole(Memory);

impl ChannelPort for BlackHole {
    fn try_request(&mut self, _: Cycle, _: WideRequest) -> Result<(), WideRequest> {
        Ok(())
    }
    fn tick(&mut self, _: Cycle) {}
    fn pop_response(&mut self, _: Cycle) -> Option<nmpic_mem::WideResponse> {
        None
    }
    fn next_event(&self) -> Option<Cycle> {
        None
    }
    fn is_idle(&self) -> bool {
        false
    }
    fn memory(&self) -> &Memory {
        &self.0
    }
    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.0
    }
    fn data_bytes(&self) -> u64 {
        0
    }
    fn peak_bytes_per_cycle(&self) -> u64 {
        0
    }
    fn reset_run_state(&mut self) {}
}

#[test]
#[should_panic(expected = "indirect stream burst: cycle budget of 201024 exceeded")]
fn gather_burst_on_a_dead_channel_trips_the_watchdog() {
    let mut chan = BlackHole(Memory::new(64));
    let _ = IndirectStreamUnit::new(AdapterConfig::mlp(8)).run_burst(
        &mut chan,
        indirect(4, 0, 0),
        |_| {},
    );
}

#[test]
#[should_panic(expected = "indirect scatter burst: cycle budget of 201024 exceeded")]
fn scatter_burst_on_a_dead_channel_trips_the_watchdog() {
    let mut chan = BlackHole(Memory::new(64));
    let req = crate::ScatterRequest {
        idx_base: 0,
        idx_size: ElemSize::B4,
        count: 4,
        elem_base: 0,
        elem_size: ElemSize::B8,
    };
    let _ = crate::ScatterUnit::new(AdapterConfig::mlp(8)).run_burst(&mut chan, req, [1, 2, 3, 4]);
}

/// Gathers `indices` (stored `idx_size` wide) from the vector
/// `100, 101, …` (stored `elem_size` wide) on a unit built from `cfg`.
fn gather_widths(
    cfg: AdapterConfig,
    indices: &[u64],
    idx_size: ElemSize,
    elem_size: ElemSize,
) -> Result<Vec<u64>, BeginError> {
    // 32 b or 64 b little-endian stores are all these widths need.
    let store = |mem: &mut Memory, addr: u64, size: ElemSize, value: u64| match size {
        ElemSize::B4 => mem.write_u32(addr, u32::try_from(value).unwrap()),
        _ => mem.write_u64(addr, value),
    };
    let mut mem = Memory::new(1 << 14);
    let (iw, ew) = (idx_size.bytes() as u64, elem_size.bytes() as u64);
    let idx_base = mem.alloc_array(indices.len() as u64, iw);
    let elem_base = mem.alloc_array(64, ew);
    for (k, &i) in indices.iter().enumerate() {
        store(&mut mem, idx_base + k as u64 * iw, idx_size, i);
    }
    for i in 0..64u64 {
        store(&mut mem, elem_base + i * ew, elem_size, 100 + i);
    }
    let mut chan = IdealChannel::new(mem, 10, 2);
    let mut unit = IndirectStreamUnit::new(cfg);
    let req = PackRequest::Indirect {
        idx_base,
        idx_size,
        count: indices.len() as u64,
        elem_base,
        elem_size,
    };
    let mut got = Vec::new();
    unit.run_burst(&mut chan, req, |beat| {
        assert_eq!(beat.elem_size, elem_size);
        got.extend(beat.elements());
    })?;
    Ok(got)
}

const PROBE: [u64; 6] = [3, 0, 5, 3, 63, 1];
const PROBE_WANT: [u64; 6] = [103, 100, 105, 103, 163, 101];

/// A unit configured for 64 b elements used to gather 32 b ones with
/// its coalescer cutting 8 B out of each block: a burst's widths must be
/// the unit's.
#[test]
fn b4_elements_on_a_b8_coalescing_unit_are_rejected() {
    for cfg in [AdapterConfig::mlp(64), AdapterConfig::seq(64)] {
        let what = cfg.variant_name();
        assert_eq!(
            gather_widths(cfg.clone(), &PROBE, ElemSize::B4, ElemSize::B4),
            Err(BeginError::WidthMismatch {
                what: "element",
                expected: ElemSize::B8,
                requested: ElemSize::B4,
            }),
            "{what}"
        );
        let mut b4 = cfg;
        b4.elem_size = ElemSize::B4;
        let got = gather_widths(b4, &PROBE, ElemSize::B4, ElemSize::B4);
        assert_eq!(got, Ok(PROBE_WANT.to_vec()), "{what} configured for B4");
    }
}

/// `MLPnc` used to panic slicing an 8 B element out of a 32 b offset.
#[test]
fn b4_elements_on_a_b8_mlpnc_unit_are_rejected() {
    assert_eq!(
        gather_widths(AdapterConfig::mlp_nc(), &PROBE, ElemSize::B4, ElemSize::B4),
        Err(BeginError::WidthMismatch {
            what: "element",
            expected: ElemSize::B8,
            requested: ElemSize::B4,
        })
    );
    let mut b4 = AdapterConfig::mlp_nc();
    b4.elem_size = ElemSize::B4;
    let got = gather_widths(b4, &PROBE, ElemSize::B4, ElemSize::B4);
    assert_eq!(got, Ok(PROBE_WANT.to_vec()));
}

/// 64 b indices on a unit configured for 32 b ones used to be fetched as
/// 8 B and split as 4 B.
#[test]
fn b8_indices_on_a_b4_unit_are_rejected() {
    for cfg in [
        AdapterConfig::mlp(64),
        AdapterConfig::seq(64),
        AdapterConfig::mlp_nc(),
    ] {
        let what = cfg.variant_name();
        assert_eq!(
            gather_widths(cfg.clone(), &PROBE, ElemSize::B8, ElemSize::B8),
            Err(BeginError::WidthMismatch {
                what: "index",
                expected: ElemSize::B4,
                requested: ElemSize::B8,
            }),
            "{what}"
        );
        let mut b8 = cfg;
        b8.idx_size = ElemSize::B8;
        let got = gather_widths(b8, &PROBE, ElemSize::B8, ElemSize::B8);
        assert_eq!(got, Ok(PROBE_WANT.to_vec()), "{what} configured for B8");
    }
}

#[test]
fn strided_burst_of_another_width_is_rejected() {
    let mut unit = IndirectStreamUnit::new(AdapterConfig::mlp(8));
    let err = unit.begin(PackRequest::Strided {
        base: 0,
        stride: 16,
        elem_size: ElemSize::B4,
        count: 8,
    });
    let want = BeginError::WidthMismatch {
        what: "element",
        expected: ElemSize::B8,
        requested: ElemSize::B4,
    };
    assert_eq!(err, Err(want));
    assert_eq!(
        want.to_string(),
        "element width 32b differs from the unit's configured 64b"
    );
    assert!(unit.is_done(), "a rejected burst leaves the unit idle");
}

#[test]
fn b8_index_scatter_on_a_b4_unit_is_rejected() {
    let mut mem = Memory::new(1 << 12);
    let idx_base = mem.alloc_array(4, 8);
    let dst = mem.alloc_array(8, 8);
    for (k, i) in [6u64, 1, 6, 2].into_iter().enumerate() {
        mem.write_u64(idx_base + 8 * k as u64, i);
    }
    let req = crate::ScatterRequest {
        idx_base,
        idx_size: ElemSize::B8,
        count: 4,
        elem_base: dst,
        elem_size: ElemSize::B8,
    };
    let mut chan = IdealChannel::new(mem, 10, 2);
    let mut unit = crate::ScatterUnit::new(AdapterConfig::mlp(8));
    assert_eq!(
        unit.run_burst(&mut chan, req, [10, 20, 30, 40]),
        Err(BeginError::WidthMismatch {
            what: "index",
            expected: ElemSize::B4,
            requested: ElemSize::B8,
        })
    );
    let mut b8 = AdapterConfig::mlp(8);
    b8.idx_size = ElemSize::B8;
    crate::ScatterUnit::new(b8)
        .run_burst(&mut chan, req, [10, 20, 30, 40])
        .unwrap();
    let image: Vec<u64> = (0..8)
        .map(|i| chan.memory().read_u64(dst + 8 * i))
        .collect();
    assert_eq!(image, [0, 20, 40, 0, 0, 0, 30, 0]);
}
