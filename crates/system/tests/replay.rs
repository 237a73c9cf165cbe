//! `run_into` replay, as a seeded property test.
//!
//! A cycle-accurate pack or sharded plan simulates its first `run_into`,
//! records the report, and answers every later call with that report
//! and `y` from the native kernel (see *Replay* on
//! `SpmvPlan::run_into`). That is sound only because no address, and so
//! no cycle, depends on a value of `x`. This file pins it over vectors
//! with NaN, ±inf, −0.0 and denormal entries, for pack0, pack256 and
//! sharded4 on ideal, hbm and hbm x8:
//!
//! 1. successive `run_into` reports are equal;
//! 2. a replayed `y` equals the simulated `y` of `run` on the same
//!    vector and golden `Csr::spmv`, bit for bit (any NaN matching any
//!    NaN, see [`bits`]);
//! 3. a fresh plan's first `run_into` (simulated) equals its `run`.
//!
//! Debug builds also simulate every replayed pass inside `run_into` and
//! panic on a mismatch, so running this file in the debug profile checks
//! each replay a second way.
//!
//! The baseline is not replayed: the first `run_into` on a fresh plan
//! finds a cold LLC, and only from the second on are its reports equal
//! (measured on `banded_fem` / `circuit` / `spd` at 256 to 6 144 rows,
//! every backend; once the matrix outgrows the LLC, from the first).
//! Its report is a function of what earlier passes cached, not of the
//! plan alone, so a recorded first pass would be wrong for every later
//! one. `base_reports_settle_after_one_pass_and_are_never_replayed`
//! pins that, on the golden vector and on the same adversarial vectors,
//! and checks each simulated `y` against golden `Csr::spmv`.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::SimRng;
use nmpic_sparse::gen::{banded_fem, circuit};
use nmpic_sparse::Csr;
use nmpic_system::{
    golden_x, IterReport, PartitionStrategy, RunReport, SpmvEngine, SpmvPlan, SystemKind,
};

const SYSTEMS: [&str; 3] = ["pack0", "pack256", "sharded4"];
const BACKENDS: [&str; 3] = ["ideal", "hbm", "hbm x8"];
/// Vectors per plan; each is replayed once and simulated once by `run`.
const VECTORS: usize = 6;

fn system_kind(name: &str) -> SystemKind {
    match name {
        "pack0" => SystemKind::Pack(AdapterConfig::mlp_nc()),
        "pack256" => SystemKind::Pack(AdapterConfig::mlp(256)),
        "sharded4" => SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
        other => panic!("unknown system '{other}'"),
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

fn plan(system: &SystemKind, backend: BackendConfig, csr: &Csr) -> SpmvPlan {
    SpmvEngine::builder()
        .backend(backend)
        .system(system.clone())
        .build()
        .prepare(csr)
}

/// The bits of `v`, every NaN as `f64::NAN`: Rust leaves the sign and
/// payload of a NaN that arithmetic returns unspecified, and in release
/// builds two loops with the same operation order do differ there.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// One entry: a finite value in most cases, otherwise one of the values
/// a reduction is most likely to get wrong.
fn entry(rng: &mut SimRng) -> f64 {
    let finite = (rng.gen_f64() - 0.5) * 8.0;
    match rng.gen_u64(0, 12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        // Denormal: below f64::MIN_POSITIVE, with either sign.
        4 => f64::MIN_POSITIVE * finite / 8.0,
        _ => finite,
    }
}

/// A vector of [`entry`]s. Every other vector sets `x[0]` to a
/// non-finite value, which SELL padding (column 0) would spread.
fn arb_x(rng: &mut SimRng, cols: usize, k: usize) -> Vec<f64> {
    let mut x: Vec<f64> = (0..cols).map(|_| entry(rng)).collect();
    if k % 2 == 1 {
        x[0] = if k % 4 == 1 { f64::INFINITY } else { f64::NAN };
    }
    x
}

fn cost(r: &RunReport) -> IterReport {
    IterReport {
        cycles: r.cycles,
        indir_cycles: r.indir_cycles,
        offchip_bytes: r.offchip_bytes,
    }
}

fn matrices() -> [(&'static str, Csr); 2] {
    [
        ("banded_fem", banded_fem(200, 6, 16, 2)),
        ("circuit", circuit(160, 4, 24, 0.1, 5, 11)),
    ]
}

#[test]
fn replayed_run_into_matches_simulation_and_golden_bit_for_bit() {
    for (seed, (name, csr)) in (1u64..).zip(matrices()) {
        for system in SYSTEMS {
            for b in BACKENDS {
                let ctx = format!("{system} on {b}, {name}");
                let kind = system_kind(system);
                let mut rng = SimRng::new(seed);
                let xs: Vec<Vec<f64>> = (0..VECTORS)
                    .map(|k| arb_x(&mut rng, csr.cols(), k))
                    .collect();

                // 3. A fresh plan's first run_into is simulated and
                // equals its run.
                let mut plan = plan(&kind, backend(b), &csr);
                let mut y = vec![0.0; csr.rows()];
                let recorded = plan.run_into(&xs[0], &mut y);
                assert_eq!(plan.replayed_passes(), 0, "{ctx}: the first pass simulates");
                let run = plan.run(&xs[0]);
                assert!(run.verified, "{ctx}: run unverified");
                assert_eq!(
                    cost(&run),
                    recorded,
                    "{ctx}: first run_into differs from run"
                );
                assert_eq!(bits(&y), bits(run.y()), "{ctx}: first run_into y");

                for (k, x) in xs.iter().enumerate() {
                    y.fill(f64::NAN);
                    // 1. Successive reports are equal.
                    assert_eq!(plan.run_into(x, &mut y), recorded, "{ctx}, x{k}: report");
                    // 2. The replayed y is the simulated y and golden.
                    let sim = plan.run(x);
                    assert!(sim.verified, "{ctx}, x{k}: run unverified");
                    assert_eq!(cost(&sim), recorded, "{ctx}, x{k}: run timing");
                    assert_eq!(bits(&y), bits(sim.y()), "{ctx}, x{k}: replay vs run");
                    assert_eq!(
                        bits(&y),
                        bits(&csr.spmv(x)),
                        "{ctx}, x{k}: replay vs golden"
                    );
                }
                assert_eq!(plan.replayed_passes(), VECTORS as u64, "{ctx}");
            }
        }
    }
}

/// Past the audit stride: 130 replays, two of them audited in release
/// builds and all of them in debug builds, stay equal to the first pass.
#[test]
fn long_replay_runs_pass_their_audits() {
    let csr = banded_fem(96, 4, 8, 5);
    for system in SYSTEMS {
        let mut plan = plan(&system_kind(system), BackendConfig::hbm(), &csr);
        let mut rng = SimRng::new(7);
        let mut y = vec![0.0; csr.rows()];
        let first = plan.run_into(&arb_x(&mut rng, csr.cols(), 0), &mut y);
        for k in 0..130 {
            let x = arb_x(&mut rng, csr.cols(), k);
            assert_eq!(plan.run_into(&x, &mut y), first, "{system}, pass {k}");
            assert_eq!(bits(&y), bits(&csr.spmv(&x)), "{system}, pass {k}");
        }
        assert_eq!(plan.replayed_passes(), 130, "{system}");
    }
}

/// The baseline simulates every pass, adversarial vectors included: `y`
/// is golden `Csr::spmv` bit for bit, and from the second pass on the
/// reports are equal, since no address depends on a value of `x`.
#[test]
fn base_reports_settle_after_one_pass_and_are_never_replayed() {
    let csr = banded_fem(300, 6, 16, 3);
    let golden: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    for (seed, b) in (1u64..).zip(BACKENDS) {
        let mut rng = SimRng::new(seed);
        let xs: Vec<Vec<f64>> = std::iter::repeat_n(golden.clone(), 4)
            .chain((0..VECTORS).map(|k| arb_x(&mut rng, csr.cols(), k)))
            .collect();
        let mut plan = plan(&SystemKind::Base, backend(b), &csr);
        let mut y = vec![0.0; csr.rows()];
        let mut reports: Vec<IterReport> = Vec::new();
        for (k, x) in xs.iter().enumerate() {
            y.fill(f64::NAN);
            reports.push(plan.run_into(x, &mut y));
            assert_eq!(bits(&y), bits(&csr.spmv(x)), "{b}, x{k}: y vs golden");
        }
        assert!(
            reports[0].cycles > reports[1].cycles
                && reports[0].offchip_bytes > reports[1].offchip_bytes,
            "{b}: the cold first pass must cost more: {reports:?}"
        );
        assert!(
            reports[1..].iter().all(|r| *r == reports[1]),
            "{b}: {reports:?}"
        );
        assert_eq!(plan.replayed_passes(), 0, "{b}: base always simulates");
    }
}
