//! Sweep-level tests: each experiment's rows have the shape and the
//! headline property the paper (or the extension's acceptance) states,
//! and every registry row runs clean end to end. The `gates` functions
//! have their own fabricated-row tests next to the row types.

use super::analytic::analytic_validation;
use super::batched::{batched_spmv, BATCH_SIZES};
use super::scaling_units::{scaling_units, UnitScalingRow, SCALING_UNITS};
use super::service_throughput::{
    service_throughput, SERVICE_REQUESTS, SERVICE_TENANTS, SERVICE_WORKERS,
};
use super::solver::{solver_backends, solver_convergence, solver_systems};
use super::stream::{fig4, scaling_channels, SCALING_CHANNELS};
use super::system::{fig5_matrix, fig6a, fig6b, measure_stream_gbps};
use super::*;

fn tiny() -> ExperimentOpts {
    ExperimentOpts { max_nnz: 4_000 }
}

#[test]
fn analytic_validation_is_within_pinned_tolerance() {
    let rows = analytic_validation(&tiny());
    assert_eq!(rows.len(), 2 * 4 * 3);
    for r in &rows {
        assert!(
            r.values_match,
            "{}/{}/{}: result vectors diverged between modes",
            r.matrix, r.system, r.backend
        );
        assert!(
            r.within_tol,
            "{}/{}/{}: rel errs cycles={:.3} bytes={:.3} gbps={:.3} exceed {}",
            r.matrix,
            r.system,
            r.backend,
            r.rel_err_cycles,
            r.rel_err_bytes,
            r.rel_err_gbps,
            nmpic_system::PINNED_REL_TOL
        );
    }
}

#[test]
fn fig4_produces_six_by_five_rows() {
    let rows = fig4(&tiny());
    assert_eq!(rows.len(), 6 * 5);
    assert!(rows.iter().all(|r| r.result.verified));
}

#[test]
fn fig5_single_matrix_has_four_systems() {
    let rows = fig5_matrix("pwtk", &tiny());
    let labels: Vec<&str> = rows.iter().map(|r| r.report.label.as_str()).collect();
    assert_eq!(labels, vec!["base", "pack0", "pack64", "pack256"]);
}

#[test]
fn fig6a_has_three_variants() {
    let rows = fig6a();
    assert_eq!(rows.len(), 3);
    assert!(rows[2].1.total_kge() > rows[0].1.total_kge());
}

#[test]
fn stream_bandwidth_is_near_peak() {
    let gbps = measure_stream_gbps();
    assert!(gbps > 24.0 && gbps <= 32.0, "got {gbps:.1}");
}

#[test]
fn fig6b_this_work_wins_onchip_cost() {
    let points = fig6b(&tiny());
    assert_eq!(points.len(), 3);
    let tw = &points[2];
    assert!(tw.onchip_cost() < points[0].onchip_cost());
    assert!(tw.onchip_cost() < points[1].onchip_cost());
}

#[test]
fn scaling_units_breaks_the_single_port_cap() {
    let rows = scaling_units(&ExperimentOpts { max_nnz: 6_000 });
    assert_eq!(rows.len(), SCALING_UNITS.len() * 2);
    assert!(rows.iter().all(|r| r.report.verified));
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.units, SCALING_UNITS[i / 2]);
        // 8 channels split across units: aggregate peak is constant.
        assert_eq!(r.peak_gbps, 256.0);
    }
    let gbps = |r: &UnitScalingRow| r.report.shards().expect("sharded").aggregate_gbps;
    let mlp: Vec<&UnitScalingRow> = rows.iter().filter(|r| r.variant == "MLP256").collect();
    // The acceptance property: K=4 delivers strictly more aggregate
    // indirect bandwidth than the K=1 baseline, whose single 512 b
    // upstream port caps delivery at 64 GB/s.
    let k1 = mlp.iter().find(|r| r.units == 1).expect("K=1 row");
    let k4 = mlp.iter().find(|r| r.units == 4).expect("K=4 row");
    assert!(gbps(k1) <= 64.0 + 1e-9);
    assert!(
        gbps(k4) > gbps(k1),
        "4 units must beat 1: {:.1} vs {:.1} GB/s",
        gbps(k4),
        gbps(k1)
    );
    assert!(
        gbps(k4) > 64.0,
        "4 units must break past one port's 64 GB/s cap, got {:.1}",
        gbps(k4)
    );
    // Imbalance metrics are present and sane.
    for r in &rows {
        let d = r.report.shards().expect("sharded detail");
        assert!(d.nnz_imbalance >= 1.0);
        assert!(d.cycle_imbalance >= 1.0);
        assert!(d.bus_imbalance >= 1.0);
    }
}

#[test]
fn batched_runs_amortize_per_vector_runtime() {
    let rows = batched_spmv(&ExperimentOpts { max_nnz: 6_000 });
    assert_eq!(rows.len(), BATCH_SIZES.len());
    assert!(rows.iter().all(|r| r.verified));
    for (r, b) in rows.iter().zip(BATCH_SIZES) {
        assert_eq!(r.batch, b);
        assert_eq!(r.label, "pack256");
        assert!(r.per_vector_cycles > 0.0);
    }
    // The acceptance property: a B >= 4 batch on one prepared plan is
    // strictly faster per vector than rebuilding the plan per vector.
    for r in rows.iter().filter(|r| r.batch >= 4) {
        assert!(
            r.per_vector_cycles < r.rebuild_per_vector_cycles,
            "B={}: batched {:.0} must undercut rebuild {:.0} cycles/vector",
            r.batch,
            r.per_vector_cycles,
            r.rebuild_per_vector_cycles
        );
        assert!(r.amortization > 1.0);
    }
}

#[test]
fn service_throughput_is_byte_identical_at_every_worker_count() {
    let rows = service_throughput(&ExperimentOpts { max_nnz: 4_000 });
    assert_eq!(rows.len(), SERVICE_WORKERS.len());
    for (r, w) in rows.iter().zip(SERVICE_WORKERS) {
        assert_eq!(r.workers, w);
        // Byte-identity with the serial reference is asserted inside
        // the experiment; `verified` additionally carries the golden
        // check of every batch.
        assert!(r.verified, "{w} workers");
        assert_eq!(r.tenants, SERVICE_TENANTS);
        assert_eq!(r.requests, SERVICE_REQUESTS);
        // Same-matrix requests share batches, so the burst needs at
        // most one batch per tenant per drain turn — never one per
        // request.
        assert!(
            r.batches >= SERVICE_TENANTS as u64 && r.batches <= SERVICE_REQUESTS as u64,
            "{w} workers: {} batches",
            r.batches
        );
        assert_eq!(
            r.cache_misses, SERVICE_TENANTS as u64,
            "one plan per tenant matrix"
        );
        assert!(r.cache_hits >= 1, "re-preparing tenant 0 must hit");
        // Wall-clock numbers are machine-dependent but must be
        // finite and positive — the JSON gate rejects NaN/inf.
        assert!(r.wall_ms.is_finite() && r.wall_ms > 0.0);
        assert!(r.requests_per_sec.is_finite() && r.requests_per_sec > 0.0);
        assert!(r.speedup_vs_serial.is_finite() && r.speedup_vs_serial > 0.0);
        // Wall-clock latency tails: nonzero, finite, ordered.
        assert!(r.p50_us > 0.0 && r.p50_us.is_finite(), "{w} workers");
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
        assert!(r.system.starts_with("sharded"), "{}", r.system);
    }
    assert!(
        (rows[0].speedup_vs_serial - 1.0).abs() < 1e-12,
        "self-relative"
    );
}

#[test]
fn solver_convergence_reaches_tolerance_on_every_point() {
    let rows = solver_convergence(&ExperimentOpts { max_nnz: 2_000 });
    assert_eq!(rows.len(), solver_systems().len() * solver_backends().len());
    let iters = rows[0].iters;
    for r in &rows {
        assert!(r.converged, "{}/{}", r.system, r.backend);
        assert!(r.residual <= 1e-10 && r.residual.is_finite());
        assert!(r.iters > 0, "a solve must iterate");
        assert_eq!(
            r.iters, iters,
            "{}/{}: trajectory length must match every point",
            r.system, r.backend
        );
        assert_eq!(r.method, "cg");
        assert!(r.total_cycles > 0);
        assert!(r.cycles_per_iter > 0.0 && r.cycles_per_iter.is_finite());
        assert!(r.bytes_per_iter > 0.0 && r.gbps > 0.0);
    }
    // The backend axis changes cost, never the math: an hbm8 point
    // and an ideal point of the same system share iteration counts
    // (already pinned above) but not cycle counts.
    let base_ideal = rows
        .iter()
        .find(|r| r.system == "base" && r.backend == "ideal")
        .expect("base/ideal point");
    let base_hbm = rows
        .iter()
        .find(|r| r.system == "base" && r.backend == "hbm x8")
        .expect("base/hbm8 point");
    assert_ne!(base_ideal.total_cycles, base_hbm.total_cycles);
}

#[test]
fn scaling_channels_rows_cover_sweep_and_mlp_bandwidth_is_monotone() {
    let rows = scaling_channels(&ExperimentOpts { max_nnz: 3_000 });
    assert_eq!(rows.len(), SCALING_CHANNELS.len() * 2);
    assert!(rows.iter().all(|r| r.result.verified));
    // Order is (channels × variant), and peak scales with channels.
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.channels, SCALING_CHANNELS[i / 2]);
        assert_eq!(r.peak_gbps, 32.0 * r.channels as f64);
    }
    // The acceptance property: delivered indirect bandwidth grows
    // monotonically with channel count on the MLP variant (it
    // eventually saturates at the 512 b upstream port, so the curve
    // flattens but never drops).
    let mlp: Vec<f64> = rows
        .iter()
        .filter(|r| r.result.variant == "MLP256")
        .map(|r| r.result.indir_gbps)
        .collect();
    assert_eq!(mlp.len(), SCALING_CHANNELS.len());
    for pair in mlp.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "MLP256 bandwidth must not drop with more channels: {mlp:?}"
        );
    }
    assert!(
        mlp[1] > 1.2 * mlp[0],
        "a second channel must clearly help MLP256: {mlp:?}"
    );
    // MLPnc is DRAM-bound throughout, so it keeps scaling too.
    let nc: Vec<f64> = rows
        .iter()
        .filter(|r| r.result.variant == "MLPnc")
        .map(|r| r.result.indir_gbps)
        .collect();
    for pair in nc.windows(2) {
        assert!(pair[1] >= pair[0], "MLPnc must scale with channels: {nc:?}");
    }
}

#[test]
fn every_registry_entry_runs_clean_at_the_smallest_scale() {
    // 500 nnz is the floor every suite spec still scales down to.
    let opts = ExperimentOpts { max_nnz: 500 };
    let mut names: Vec<&str> = Vec::new();
    for e in REGISTRY {
        assert!(
            !e.name.is_empty()
                && e.name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "'{}' is not [a-z0-9_]+",
            e.name
        );
        assert!(!names.contains(&e.name), "duplicate name {}", e.name);
        names.push(e.name);

        let out = (e.run)(&opts);
        assert!(!out.tables.is_empty(), "{}: no table", e.name);
        for s in &out.tables {
            assert_eq!(
                s.table.gate(),
                Vec::<String>::new(),
                "{}/{}",
                e.name,
                s.stem
            );
        }
        assert_eq!(out.failures, Vec::<String>::new(), "{}", e.name);
    }
    assert_eq!(REGISTRY.len(), 17);
    assert_eq!(REGISTRY.iter().filter(|e| e.smoke).count(), 6);
}

#[test]
fn select_resolves_groups_and_names_and_rejects_unknowns() {
    let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let names = |list: &[&str]| -> Vec<&str> {
        select(&args(list))
            .expect("known names")
            .iter()
            .map(|e| e.name)
            .collect()
    };
    assert_eq!(names(&["all"]).len(), REGISTRY.len());
    let smoke = names(&["smoke"]);
    assert_eq!(smoke.len(), 6, "the six CI runs: {smoke:?}");
    assert!(smoke.contains(&"service_throughput") && !smoke.contains(&"fig3"));
    assert_eq!(names(&["fig4", "table1"]), vec!["fig4", "table1"]);
    assert_eq!(
        select(&args(&["fig4", "fig7"])).err(),
        Some("unknown experiment 'fig7'".to_string())
    );
    assert_eq!(listing().len(), REGISTRY.len());
}
