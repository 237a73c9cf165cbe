//! Session-API integration tests: plan-reuse determinism.
//!
//! A prepared [`SpmvPlan`] must behave like a pure function of its input
//! vector: two `run(&x)` calls and one `run_batch(&[x, x])` must produce
//! byte-identical results — to each other and to the golden SpMV — on
//! every backend (`ideal`/`hbm`/`hbm4`/`hbm8`) for all three system
//! kinds. Warm channel, unit and cache state must never leak into the
//! numerics.

mod common;

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::{by_name, Csr};
use nmpic_system::{golden_x, PartitionStrategy, SpmvEngine, SystemKind};

fn backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

fn systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Base,
        SystemKind::Pack(AdapterConfig::mlp(256)),
        SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
        SystemKind::Sharded {
            units: 8,
            strategy: PartitionStrategy::ByRows,
        },
    ]
}

fn matrix() -> Csr {
    by_name("HPCG").expect("suite matrix").build_capped(5_000)
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// The golden result every plan's datapath reproduces bit for bit:
/// `Csr::spmv`. The pack system's SELL order accumulates each row's
/// entries in the same order and skips padding.
fn golden_bits(csr: &Csr, x: &[f64]) -> Vec<u64> {
    bits(&csr.spmv(x))
}

/// The golden vector, and the golden vector with `x[0] = +inf`: SELL
/// padding (column 0, value 0.0) must not turn a finite row into NaN.
fn inputs(csr: &Csr) -> [Vec<f64>; 2] {
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let mut inf = x.clone();
    inf[0] = f64::INFINITY;
    [x, inf]
}

#[test]
fn plan_reuse_is_byte_deterministic_everywhere() {
    for (name, csr) in [("HPCG", matrix()), ("degenerate", common::degenerate())] {
        for x in &inputs(&csr) {
            for backend in backends() {
                for system in systems() {
                    let ctx = format!("{name}: {system} on {}, x[0] = {}", backend.label(), x[0]);
                    let engine = SpmvEngine::builder()
                        .backend(backend.clone())
                        .system(system.clone())
                        .build();
                    let mut plan = engine.prepare(&csr);
                    let first = plan.run(x);
                    let second = plan.run(x);
                    let batch = plan.run_batch(&[x.clone(), x.clone()]);
                    assert!(
                        first.verified && second.verified && batch.verified,
                        "{ctx}: golden verification failed"
                    );
                    // Warm-state reuse must not change the numerics...
                    assert_eq!(first.y_bits(), second.y_bits(), "{ctx}: runs diverged");
                    assert_eq!(
                        first.y_bits(),
                        bits(&batch.ys[0]),
                        "{ctx}: batch vector 0 diverged"
                    );
                    assert_eq!(
                        first.y_bits(),
                        bits(&batch.ys[1]),
                        "{ctx}: batch vector 1 diverged"
                    );
                    // ...nor the timing: identical inputs, identical reports.
                    assert_eq!(first.cycles, second.cycles, "{ctx}: cycle drift");
                    assert_eq!(
                        first.offchip_bytes, second.offchip_bytes,
                        "{ctx}: traffic drift"
                    );
                    // And the results equal the golden SpMV bit for bit.
                    assert_eq!(
                        first.y_bits(),
                        golden_bits(&csr, x),
                        "{ctx}: diverged from golden SpMV"
                    );
                }
            }
        }
    }
}

/// Reusing one plan across *different* vectors matches preparing a fresh
/// plan per vector — the memory-image rewrite of `x` is complete.
#[test]
fn plan_reuse_across_different_vectors_matches_fresh_plans() {
    let csr = matrix();
    let xa: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let xb: Vec<f64> = (0..csr.cols()).map(|i| 2.0 - golden_x(i)).collect();
    for system in systems() {
        let engine = SpmvEngine::builder().system(system.clone()).build();
        let mut warm = engine.prepare(&csr);
        let warm_a = warm.run(&xa);
        let warm_b = warm.run(&xb);
        let fresh_b = engine.prepare(&csr).run(&xb);
        assert!(warm_a.verified && warm_b.verified && fresh_b.verified);
        assert_eq!(
            warm_b.y_bits(),
            fresh_b.y_bits(),
            "{system}: stale vector state leaked into the result"
        );
        assert_ne!(
            warm_a.y_bits(),
            warm_b.y_bits(),
            "{system}: distinct vectors must give distinct results"
        );
    }
}

/// The batched pack path amortizes per-vector runtime against the
/// plan-rebuild baseline on hbm8 — the acceptance property of the
/// session API's `run_batch`.
#[test]
fn pack_batch_amortizes_on_hbm8() {
    let csr = by_name("af_shell10")
        .expect("suite matrix")
        .build_capped(8_000);
    let engine = SpmvEngine::builder()
        .backend(BackendConfig::interleaved(8))
        .system(SystemKind::Pack(AdapterConfig::mlp(256)))
        .batch_capacity(4)
        .build();
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let rebuild = engine.prepare(&csr).run(&x);
    let batch = engine.prepare(&csr).run_batch(&vec![x.clone(); 4]);
    assert!(rebuild.verified && batch.verified);
    assert!(
        batch.cycles_per_vector() < rebuild.cycles_per_vector(),
        "B=4 batch must beat the plan-rebuild path: {:.0} vs {:.0} cycles/vector",
        batch.cycles_per_vector(),
        rebuild.cycles_per_vector()
    );
}
