//! Headline-claim regression tests: the paper's quantitative *shape*
//! must hold at test scale (who wins, by roughly what factor). Exact
//! magnitudes live in EXPERIMENTS.md at full experiment scale.

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_model::{a64fx, adapter_area, sx_aurora, this_work};
use nmpic_sparse::{by_name, Sell};
use nmpic_system::{golden_x, RunReport, SpmvEngine, SystemKind};

fn sell_for(name: &str, cap: u64) -> (nmpic_sparse::Csr, Sell) {
    let spec = by_name(name).expect("suite matrix");
    let csr = spec.build_capped(cap);
    let sell = Sell::from_csr_default(&csr);
    (csr, sell)
}

fn run_base(csr: &nmpic_sparse::Csr) -> RunReport {
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    SpmvEngine::builder()
        .system(SystemKind::Base)
        .build()
        .prepare(csr)
        .run(&x)
}

fn run_pack(csr: &nmpic_sparse::Csr, adapter: AdapterConfig) -> RunReport {
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    SpmvEngine::builder()
        .system(SystemKind::Pack(adapter))
        .build()
        .prepare(csr)
        .run(&x)
}

/// Fig. 3 claim: the 256-window parallel coalescer multiplies effective
/// indirect bandwidth by several-fold over MLPnc on local matrices
/// (paper: 8.4x average at full scale).
#[test]
fn coalescer_multiplies_indirect_bandwidth() {
    let (csr, sell) = sell_for("af_shell10", 40_000);
    let opts = StreamOptions::default();
    let nc = run_indirect_stream(&AdapterConfig::mlp_nc(), sell.col_idx(), csr.cols(), &opts);
    let c = run_indirect_stream(&AdapterConfig::mlp(256), sell.col_idx(), csr.cols(), &opts);
    let gain = c.indir_gbps / nc.indir_gbps;
    assert!(gain > 5.0, "MLP256/MLPnc = {gain:.1}, paper ~8x");
}

/// Fig. 3 claim: the sequential coalescer is capped at one element per
/// cycle (8 GB/s) and loses clearly to the parallel one.
#[test]
fn sequential_variant_is_port_limited() {
    let (csr, sell) = sell_for("af_shell10", 40_000);
    let opts = StreamOptions::default();
    let seq = run_indirect_stream(&AdapterConfig::seq(256), sell.col_idx(), csr.cols(), &opts);
    let par = run_indirect_stream(&AdapterConfig::mlp(256), sell.col_idx(), csr.cols(), &opts);
    assert!(seq.indir_gbps <= 8.0 + 1e-6, "{:.2}", seq.indir_gbps);
    assert!(
        par.indir_gbps / seq.indir_gbps > 2.0,
        "paper reports ~3x: got {:.2}",
        par.indir_gbps / seq.indir_gbps
    );
}

/// Fig. 3 claim: some streams exceed the 32 GB/s channel peak thanks to
/// cache-less data reuse inside the coalescer.
#[test]
fn effective_bandwidth_can_exceed_channel_peak() {
    let (csr, sell) = sell_for("af_shell10", 60_000);
    let opts = StreamOptions::default();
    let r = run_indirect_stream(&AdapterConfig::mlp(256), sell.col_idx(), csr.cols(), &opts);
    assert!(
        r.indir_gbps > 32.0,
        "af_shell10 SELL should beat the channel peak, got {:.1}",
        r.indir_gbps
    );
    assert!(r.coalesce_rate > 1.0);
}

/// Fig. 4 claim: without coalescing, element fetching monopolizes the
/// downstream bus and index fetch bandwidth is tiny.
#[test]
fn mlpnc_element_fetch_dominates() {
    let (csr, sell) = sell_for("circuit5M_dc", 40_000);
    let opts = StreamOptions::default();
    let r = run_indirect_stream(&AdapterConfig::mlp_nc(), sell.col_idx(), csr.cols(), &opts);
    assert!(r.elem_gbps > 5.0 * r.index_gbps);
    assert!(
        (r.coalesce_rate - 0.125).abs() < 1e-9,
        "8 B per 64 B access"
    );
}

/// Fig. 4 claim: the coalesce rate grows monotonically with the window.
#[test]
fn coalesce_rate_grows_with_window() {
    let (csr, sell) = sell_for("HPCG", 40_000);
    let opts = StreamOptions::default();
    let mut last = 0.0;
    for w in [16usize, 64, 256] {
        let r = run_indirect_stream(&AdapterConfig::mlp(w), sell.col_idx(), csr.cols(), &opts);
        assert!(
            r.coalesce_rate >= last,
            "W={w}: {:.2} < {last:.2}",
            r.coalesce_rate
        );
        last = r.coalesce_rate;
    }
}

/// Fig. 5a claim: pack systems beat the baseline, and the coalescer adds
/// a further multiple over pack0 (paper: 2.7x and 10x at full scale).
#[test]
fn spmv_speedup_ordering() {
    let (csr, _) = sell_for("HPCG", 40_000);
    let base = run_base(&csr);
    let p0 = run_pack(&csr, AdapterConfig::mlp_nc());
    let p256 = run_pack(&csr, AdapterConfig::mlp(256));
    let s0 = p0.speedup_over(&base);
    let s256 = p256.speedup_over(&base);
    assert!(s0 > 1.2, "pack0 speedup {s0:.2} (paper ~2.7x)");
    assert!(s256 > 4.0, "pack256 speedup {s256:.2} (paper ~10x)");
    assert!(
        s256 / s0 > 2.0,
        "coalescer gain {:.2} (paper ~3x)",
        s256 / s0
    );
}

/// Fig. 5b claim: pack0 wastes multiples of the ideal traffic; the
/// 256-window coalescer brings it close to ideal; the baseline stays
/// near-ideal but at very low utilization.
#[test]
fn traffic_and_utilization_shape() {
    let (csr, _) = sell_for("af_shell10", 40_000);
    let base = run_base(&csr);
    let p0 = run_pack(&csr, AdapterConfig::mlp_nc());
    let p256 = run_pack(&csr, AdapterConfig::mlp(256));
    assert!(p0.traffic_ratio() > 4.0, "paper: 5.6x avg");
    assert!(p256.traffic_ratio() < 1.6, "paper: 1.29x avg");
    assert!(base.traffic_ratio() < 1.5, "LLC keeps base near ideal");
    assert!(base.bw_utilization(32.0) < 0.15, "paper: 5.9% avg");
    assert!(p0.bw_utilization(32.0) > 0.4, "paper: 65.8% avg");
}

/// Fig. 6a claim: reported kGE and mm² match the paper's implementation.
#[test]
fn area_model_matches_paper() {
    for (w, kge, mm2) in [
        (64usize, 307.0, 0.19),
        (128, 617.0, 0.26),
        (256, 1035.0, 0.34),
    ] {
        let a = adapter_area(&AdapterConfig::mlp(w));
        assert!((a.coal_kge - kge).abs() < 10.0);
        assert!((a.area_mm2() - mm2).abs() < 0.012);
    }
}

/// Table I / Fig. 6b claim: ~27 kB adapter storage and superior on-chip
/// efficiency vs both reference machines.
#[test]
fn storage_and_onchip_efficiency() {
    let cfg = AdapterConfig::mlp(256);
    let kb = cfg.storage_bytes() as f64 / 1024.0;
    assert!((kb - 27.0).abs() < 1.0, "Table I: 27 kB, got {kb:.1}");

    let tw = this_work(&cfg, 2.0, 30.0);
    let vs_sx = sx_aurora().onchip_cost() / tw.onchip_cost();
    let vs_a64 = a64fx().onchip_cost() / tw.onchip_cost();
    assert!(vs_sx > 1.2, "paper: 1.4x, got {vs_sx:.2}");
    assert!(vs_a64 > 2.0, "paper: 2.6x, got {vs_a64:.2}");
}
