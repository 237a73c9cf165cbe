//! Pinned simulated counts of the session API's three entry points.
//!
//! One fixed `banded_fem` matrix, every {base, pack256, sharded4} ×
//! {cycle, analytic} × {ideal, hbm, hbm x8} plan, and for each the exact
//! `(cycles, indir_cycles, offchip_bytes)` of `run`, of a `run_batch` of
//! three vectors under `batch_capacity(2)`, and of the first and second
//! `run_into` on a fresh plan. The literals were recorded from the
//! engine as it stood before the executors were unified; an engine
//! refactor must leave this file untouched and green.
//!
//! On a mismatch the failure message prints the measured row in source
//! form, so a deliberate model change re-pins by copy and paste.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::gen::banded_fem;
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, ExecMode, IterReport, PartitionStrategy, RunReport, SpmvEngine, SystemKind,
};

/// `(cycles, indir_cycles, offchip_bytes)`.
type Counts = (u64, u64, u64);

/// `(system, exec mode, backend, [run, run_batch of 3, first run_into,
/// second run_into])`.
type Row = (&'static str, &'static str, &'static str, [Counts; 4]);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("base", "cycle", "ideal", [(130684, 103272, 206208), (363334, 284900, 255360), (130684, 103272, 206208), (116325, 90814, 24576)]),
    ("base", "cycle", "hbm", [(141588, 113982, 206208), (374328, 295740, 255360), (141588, 113982, 206208), (116370, 90879, 24576)]),
    ("base", "cycle", "hbm x8", [(134883, 108751, 206208), (367573, 290459, 255360), (134883, 108751, 206208), (116345, 90854, 24576)]),
    ("base", "analytic", "ideal", [(131716, 104762, 206208), (365516, 287542, 255360), (131716, 104762, 206208), (116900, 91390, 24576)]),
    ("base", "analytic", "hbm", [(145043, 117702, 206208), (378895, 300482, 255360), (145043, 117702, 206208), (116926, 91390, 24576)]),
    ("base", "analytic", "hbm x8", [(141496, 115057, 206208), (375348, 297837, 255360), (141496, 115057, 206208), (116926, 91390, 24576)]),
    ("pack256", "cycle", "ideal", [(9866, 3938, 257856), (24219, 11941, 650944), (9866, 3938, 257856), (9866, 3938, 257856)]),
    ("pack256", "cycle", "hbm", [(14933, 4175, 258368), (34813, 13126, 660928), (14933, 4175, 258368), (14933, 4175, 258368)]),
    ("pack256", "cycle", "hbm x8", [(10884, 2381, 251456), (24823, 7486, 633664), (10884, 2381, 251456), (10884, 2381, 251456)]),
    ("pack256", "analytic", "ideal", [(9314, 3612, 249792), (22886, 10880, 626368), (9314, 3612, 249792), (9314, 3612, 249792)]),
    ("pack256", "analytic", "hbm", [(12906, 6163, 249792), (31868, 18590, 626368), (12906, 6163, 249792), (12906, 6163, 249792)]),
    ("pack256", "analytic", "hbm x8", [(8565, 4229, 249792), (22090, 12786, 626368), (8565, 4229, 249792), (8565, 4229, 249792)]),
    ("sharded4", "cycle", "ideal", [(2536, 957, 145728), (7608, 2871, 437184), (2536, 957, 145728), (2536, 957, 145728)]),
    ("sharded4", "cycle", "hbm", [(2752, 1138, 153536), (8256, 3414, 460608), (2752, 1138, 153536), (2752, 1138, 153536)]),
    ("sharded4", "cycle", "hbm x8", [(2339, 725, 141888), (7017, 2175, 425664), (2339, 725, 141888), (2339, 725, 141888)]),
    ("sharded4", "analytic", "ideal", [(3231, 2635, 128768), (9693, 7905, 386304), (3231, 2635, 128768), (3231, 2635, 128768)]),
    ("sharded4", "analytic", "hbm", [(3427, 2661, 128768), (10281, 7983, 386304), (3427, 2661, 128768), (3427, 2661, 128768)]),
    ("sharded4", "analytic", "hbm x8", [(3427, 2661, 128768), (10281, 7983, 386304), (3427, 2661, 128768), (3427, 2661, 128768)]),
];

fn matrix() -> Csr {
    banded_fem(1536, 8, 48, 12)
}

fn vectors(cols: usize) -> Vec<Vec<f64>> {
    vec![
        (0..cols).map(golden_x).collect(),
        (0..cols).map(|i| 2.0 - golden_x(i)).collect(),
        (0..cols).map(|i| golden_x(i + 7) - 1.0).collect(),
    ]
}

fn system_kind(name: &str) -> SystemKind {
    match name {
        "base" => SystemKind::Base,
        "pack256" => SystemKind::Pack(AdapterConfig::mlp(256)),
        "sharded4" => SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
        other => panic!("unknown system '{other}'"),
    }
}

fn exec_mode(name: &str) -> ExecMode {
    match name {
        "cycle" => ExecMode::CycleAccurate,
        "analytic" => ExecMode::Analytic,
        other => panic!("unknown exec mode '{other}'"),
    }
}

fn backend(name: &str) -> BackendConfig {
    match name {
        "ideal" => BackendConfig::ideal(),
        "hbm" => BackendConfig::hbm(),
        "hbm x8" => BackendConfig::interleaved(8),
        other => panic!("unknown backend '{other}'"),
    }
}

fn engine(system: &str, exec: &str, backend_name: &str) -> SpmvEngine {
    SpmvEngine::builder()
        .backend(backend(backend_name))
        .system(system_kind(system))
        .exec_mode(exec_mode(exec))
        .batch_capacity(2)
        .build()
}

fn of_run(r: &RunReport) -> Counts {
    (r.cycles, r.indir_cycles, r.offchip_bytes)
}

fn of_iter(r: &IterReport) -> Counts {
    (r.cycles, r.indir_cycles, r.offchip_bytes)
}

/// Every measurement uses a fresh plan, so each literal is a cold-start
/// figure (the second `run_into` is the one deliberately warm call).
fn measure(system: &str, exec: &str, backend_name: &str, csr: &Csr) -> [Counts; 4] {
    let engine = engine(system, exec, backend_name);
    let xs = vectors(csr.cols());
    let run = engine.prepare(csr).run(&xs[0]);
    let batch = engine.prepare(csr).run_batch(&xs);
    assert!(run.verified && batch.verified, "golden mismatch");
    assert_eq!((run.vectors, batch.vectors), (1, 3));
    let mut plan = engine.prepare(csr);
    let mut y = vec![0.0; csr.rows()];
    let first = plan.run_into(&xs[0], &mut y);
    let second = plan.run_into(&xs[1], &mut y);
    [
        of_run(&run),
        of_run(&batch),
        of_iter(&first),
        of_iter(&second),
    ]
}

#[test]
fn simulated_counts_match_the_pinned_table() {
    let csr = matrix();
    assert_eq!(PINNED.len(), 18, "3 systems x 2 modes x 3 backends");
    let mut drifted = Vec::new();
    for &(system, exec, backend_name, want) in PINNED {
        let got = measure(system, exec, backend_name, &csr);
        if got != want {
            drifted.push(format!(
                "    ({system:?}, {exec:?}, {backend_name:?}, {got:?}),"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "simulated counts drifted; measured rows:\n{}",
        drifted.join("\n")
    );
}

/// A fresh plan's first `run_into` is the same cold-start SpMV as a
/// fresh plan's `run`: the two reports agree field for field, and a
/// `run` after warm `run_into` calls returns to that cold start.
#[test]
fn first_run_into_equals_run_on_a_fresh_plan() {
    let csr = matrix();
    let xs = vectors(csr.cols());
    for &(system, exec, backend_name, _) in PINNED {
        let ctx = format!("{system}/{exec}/{backend_name}");
        let engine = engine(system, exec, backend_name);
        let run = engine.prepare(&csr).run(&xs[0]);
        let mut plan = engine.prepare(&csr);
        let mut y = vec![0.0; csr.rows()];
        let first = plan.run_into(&xs[0], &mut y);
        assert_eq!(
            first,
            IterReport {
                cycles: run.cycles,
                indir_cycles: run.indir_cycles,
                offchip_bytes: run.offchip_bytes,
            },
            "{ctx}: first run_into differs from run"
        );
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), run.y_bits(), "{ctx}: result bytes differ");
        plan.run_into(&xs[1], &mut y);
        assert_eq!(
            of_run(&plan.run(&xs[0])),
            of_run(&run),
            "{ctx}: run after run_into is not a cold start"
        );
    }
}
