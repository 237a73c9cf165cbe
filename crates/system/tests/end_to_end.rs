//! Cross-crate integration tests: the full stack from matrix generation
//! through the adapter and DRAM model to verified gathered data, and the
//! complete SpMV systems.

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_sparse::{by_name, suite, Csr, Sell};
use nmpic_system::{golden_x, SpmvEngine, SystemKind};

/// Builds a pack plan for `csr` with the given adapter on the default
/// HBM backend.
fn pack_plan(csr: &Csr, adapter: AdapterConfig) -> nmpic_system::SpmvPlan {
    SpmvEngine::builder()
        .system(SystemKind::Pack(adapter))
        .build()
        .prepare(csr)
}

/// Every suite matrix, streamed through the headline adapter, must gather
/// exactly the golden data.
#[test]
fn every_suite_matrix_gathers_correctly() {
    let opts = StreamOptions::default();
    for spec in suite() {
        let csr = spec.build_capped(6_000);
        let sell = Sell::from_csr_default(&csr);
        let r = run_indirect_stream(&AdapterConfig::mlp(256), sell.col_idx(), csr.cols(), &opts);
        assert!(r.verified, "{}: gather mismatch", spec.name);
        assert_eq!(r.elements, sell.padded_len() as u64, "{}", spec.name);
    }
}

/// CSR and SELL streams of the same matrix must both verify; SELL's
/// padded stream is at least as long.
#[test]
fn both_formats_stream_correctly() {
    let spec = by_name("pwtk").unwrap();
    let csr = spec.build_capped(10_000);
    let sell = Sell::from_csr_default(&csr);
    let opts = StreamOptions::default();
    let r_csr = run_indirect_stream(&AdapterConfig::mlp(64), csr.col_idx(), csr.cols(), &opts);
    let r_sell = run_indirect_stream(&AdapterConfig::mlp(64), sell.col_idx(), csr.cols(), &opts);
    assert!(r_csr.verified && r_sell.verified);
    assert!(r_sell.elements >= r_csr.elements);
}

/// The whole pipeline is deterministic: identical runs give identical
/// cycle counts and statistics.
#[test]
fn simulation_is_deterministic() {
    let spec = by_name("G3_circuit").unwrap();
    let csr = spec.build_capped(8_000);
    let sell = Sell::from_csr_default(&csr);
    let opts = StreamOptions::default();
    let a = run_indirect_stream(&AdapterConfig::mlp(128), sell.col_idx(), csr.cols(), &opts);
    let b = run_indirect_stream(&AdapterConfig::mlp(128), sell.col_idx(), csr.cols(), &opts);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.adapter, b.adapter);

    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let mut plan = pack_plan(&csr, AdapterConfig::mlp(256));
    let p1 = plan.run(&x);
    let p2 = plan.run(&x);
    assert_eq!(p1.cycles, p2.cycles);
    assert_eq!(p1.offchip_bytes, p2.offchip_bytes);
    assert_eq!(p1.y_bits(), p2.y_bits());
}

/// All four Fig. 5 systems run one matrix end to end; the pack systems
/// verify their computed result against the golden SpMV and the expected
/// performance ordering holds.
#[test]
fn system_stack_orders_as_expected() {
    let spec = by_name("HPCG").unwrap();
    let csr = spec.build_capped(20_000);

    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let base = SpmvEngine::builder()
        .system(SystemKind::Base)
        .build()
        .prepare(&csr)
        .run(&x);
    let pack0 = pack_plan(&csr, AdapterConfig::mlp_nc()).run(&x);
    let pack64 = pack_plan(&csr, AdapterConfig::mlp(64)).run(&x);
    let pack256 = pack_plan(&csr, AdapterConfig::mlp(256)).run(&x);

    for r in [&base, &pack0, &pack64, &pack256] {
        assert!(r.verified, "{} failed verification", r.label);
    }
    assert!(
        pack256.cycles <= pack64.cycles && pack64.cycles < pack0.cycles,
        "bigger window must not be slower: {} <= {} < {}",
        pack256.cycles,
        pack64.cycles,
        pack0.cycles
    );
    assert!(
        pack256.cycles < base.cycles,
        "pack256 must beat the baseline"
    );
}

/// The adapter is robust to degenerate index streams: constant indices,
/// strictly descending indices, and a single element.
#[test]
fn degenerate_streams_verify() {
    let opts = StreamOptions::default();
    for cfg in [
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(8),
        AdapterConfig::mlp(256),
        AdapterConfig::seq(64),
    ] {
        let constant: Vec<u32> = vec![5; 700];
        let r = run_indirect_stream(&cfg, &constant, 64, &opts);
        assert!(r.verified, "{}: constant stream", cfg.variant_name());

        let descending: Vec<u32> = (0..700u32).rev().collect();
        let r = run_indirect_stream(&cfg, &descending, 700, &opts);
        assert!(r.verified, "{}: descending stream", cfg.variant_name());

        let single = [3u32];
        let r = run_indirect_stream(&cfg, &single, 8, &opts);
        assert!(r.verified, "{}: single element", cfg.variant_name());
        assert_eq!(r.elements, 1);
    }
}

/// Stream lengths that are not multiples of the lane count, beat size or
/// block size all drain completely.
#[test]
fn awkward_lengths_drain() {
    let opts = StreamOptions::default();
    for n in [1usize, 7, 9, 15, 17, 63, 65, 255, 257, 1023] {
        let indices: Vec<u32> = (0..n as u32).map(|k| (k * 13) % 512).collect();
        let r = run_indirect_stream(&AdapterConfig::mlp(64), &indices, 512, &opts);
        assert!(r.verified, "length {n}");
        assert_eq!(r.elements, n as u64);
    }
}
