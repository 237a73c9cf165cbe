//! Full-system experiments: the baseline and pack SpMV systems on the
//! representative matrices (Table I, Fig. 5a/5b, Fig. 6a/6b and the
//! data-movement energy study).

use nmpic_core::AdapterConfig;
use nmpic_mem::{ChannelPort, HbmChannel, HbmConfig, Memory, WideRequest};
use nmpic_model::{adapter_area, AreaBreakdown, EfficiencyPoint, EnergyModel};
use nmpic_sim::pool::parallel_map;
use nmpic_sim::stats::GeoMean;
use nmpic_sim::SimClock;
use nmpic_sparse::{Csr, EFFICIENCY_THREE, REPRESENTATIVE_SIX};
use nmpic_system::{golden_x, RunReport, SpmvEngine, SystemKind};

use super::{build_matrices, col, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};

fn table1_storage() -> Table {
    let mut variants = [8usize, 16, 32, 64, 128, 256]
        .map(AdapterConfig::mlp)
        .to_vec();
    variants.push(AdapterConfig::mlp_nc());
    Table::of(
        &variants,
        &[
            (col::VARIANT, |cfg| cfg.variant_name()),
            ("storage-kB", |cfg| {
                f(cfg.storage_bytes() as f64 / 1024.0, 1)
            }),
        ],
    )
}

pub(super) fn run_table1(_opts: &ExperimentOpts) -> Outcome {
    let params = nmpic_model::render_table1(&AdapterConfig::mlp(256), &HbmConfig::default());
    Section::new(
        "table1",
        format!("{params}\nDerived storage per variant:"),
        table1_storage(),
    )
    .into()
}

/// One Fig. 5 measurement: a full SpMV system run.
#[derive(Debug, Clone)]
pub(crate) struct SystemRow {
    /// Matrix name.
    pub matrix: String,
    /// Full system report (`base`, `pack0`, `pack64`, `pack256`).
    pub report: RunReport,
}

/// The pack-system adapter variants of Fig. 5.
pub(crate) fn fig5_adapters() -> Vec<AdapterConfig> {
    vec![
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(256),
    ]
}

/// One parallel system job: baseline or one pack variant on one matrix.
enum SystemJob<'a> {
    Base {
        matrix: &'a str,
        csr: &'a Csr,
    },
    Pack {
        matrix: &'a str,
        csr: &'a Csr,
        adapter: AdapterConfig,
    },
}

fn run_system_jobs(jobs: Vec<SystemJob<'_>>) -> Vec<SystemRow> {
    parallel_map(jobs, |job| match job {
        SystemJob::Base { matrix, csr } => {
            let engine = SpmvEngine::builder().system(SystemKind::Base).build();
            let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
            let report = engine.prepare(csr).run(&x);
            assert!(report.verified, "{matrix}/base: verification failed");
            SystemRow {
                matrix: matrix.to_string(),
                report,
            }
        }
        SystemJob::Pack {
            matrix,
            csr,
            adapter,
        } => {
            let engine = SpmvEngine::builder()
                .system(SystemKind::Pack(adapter))
                .build();
            let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
            let report = engine.prepare(csr).run(&x);
            assert!(
                report.verified,
                "{matrix}/{}: datapath mismatch",
                report.label
            );
            SystemRow {
                matrix: matrix.to_string(),
                report,
            }
        }
    })
}

/// Runs the Fig. 5 sweep (both 5a and 5b derive from these rows): the six
/// representative matrices on the baseline and the three pack systems,
/// all 24 system simulations fanned across cores.
///
/// # Panics
///
/// Panics if a run fails its golden-model verification.
pub(crate) fn fig5(opts: &ExperimentOpts) -> Vec<SystemRow> {
    let matrices = build_matrices(&REPRESENTATIVE_SIX, opts);
    let mut jobs = Vec::new();
    for (name, csr, _) in &matrices {
        jobs.push(SystemJob::Base { matrix: name, csr });
        for adapter in fig5_adapters() {
            jobs.push(SystemJob::Pack {
                matrix: name,
                csr,
                adapter,
            });
        }
    }
    run_system_jobs(jobs)
}

/// Runs the Fig. 5 systems for one named matrix.
pub(crate) fn fig5_matrix(name: &str, opts: &ExperimentOpts) -> Vec<SystemRow> {
    let matrices = build_matrices(&[name], opts);
    let (name, csr, _) = &matrices[0];
    let mut jobs = vec![SystemJob::Base { matrix: name, csr }];
    for adapter in fig5_adapters() {
        jobs.push(SystemJob::Pack {
            matrix: name,
            csr,
            adapter,
        });
    }
    run_system_jobs(jobs)
}

/// Rows per matrix in the [`fig5`] sweep order: the baseline first, then
/// one per pack adapter — so tables read each matrix's group off with
/// `chunks` and find its base run at the front.
fn fig5_group() -> usize {
    1 + fig5_adapters().len()
}

/// The Fig. 5a table plus the geomean speedups of pack0 and pack256 over
/// the baseline that the paper quotes.
fn fig5a_table(rows: &[SystemRow]) -> (Table, f64, f64) {
    // Every row next to its matrix's base run.
    let paired: Vec<(&SystemRow, &RunReport)> = rows
        .chunks(fig5_group())
        .flat_map(|group| group.iter().map(|r| (r, &group[0].report)))
        .collect();
    fn speedup((r, base): &(&SystemRow, &RunReport)) -> f64 {
        base.cycles as f64 / r.report.cycles as f64
    }
    let mut sp0 = GeoMean::new();
    let mut sp256 = GeoMean::new();
    for pair in &paired {
        match pair.0.report.label.as_str() {
            "pack0" => sp0.add(speedup(pair)),
            "pack256" => sp256.add(speedup(pair)),
            _ => {}
        }
    }
    let table = Table::of(
        &paired,
        &[
            (col::MATRIX, |(r, _)| r.matrix.clone()),
            (col::SYSTEM, |(r, _)| r.report.label.clone()),
            (col::CYCLES, |(r, _)| r.report.cycles.to_string()),
            ("norm-runtime", |(r, base)| {
                f(r.report.cycles as f64 / base.cycles as f64, 3)
            }),
            ("indir-frac", |(r, _)| f(r.report.indir_fraction(), 3)),
            (col::SPEEDUP, |pair| f(speedup(pair), 2)),
        ],
    );
    (table, sp0.mean(), sp256.mean())
}

pub(super) fn run_fig5a(opts: &ExperimentOpts) -> Outcome {
    let (table, sp0, sp256) = fig5a_table(&fig5(opts));
    Section::new(
        "fig5a",
        "Fig. 5a — SpMV normalized runtime and speedup vs base",
        table,
    )
    .notes([format!(
        "geomean speedup: pack0 {sp0:.2}x (paper ~2.7x), pack256 {sp256:.2}x (paper ~10x), \
         pack256/pack0 {:.2}x (paper ~3x)",
        sp256 / sp0
    )])
    .into()
}

fn fig5b_table(rows: &[SystemRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::MATRIX, |r| r.matrix.clone()),
            (col::SYSTEM, |r| r.report.label.clone()),
            ("traffic-vs-ideal", |r| f(r.report.traffic_ratio(), 2)),
            ("bw-utilization-%", |r| {
                f(100.0 * r.report.bw_utilization(32.0), 1)
            }),
        ],
    )
}

/// Per-system averages over the matrices, one line per system in sweep
/// order (every `fig5_group()`-th row belongs to the same system).
fn fig5b_averages(rows: &[SystemRow]) -> Vec<String> {
    let group = fig5_group();
    (0..group.min(rows.len()))
        .map(|i| {
            let reports = || rows.iter().skip(i).step_by(group).map(|r| &r.report);
            let n = reports().count() as f64;
            let traffic = reports().map(RunReport::traffic_ratio).sum::<f64>() / n;
            let util = reports().map(|r| r.bw_utilization(32.0)).sum::<f64>() / n;
            format!(
                "avg {:8}: traffic {:.2}x, utilization {:.1}%",
                rows[i].report.label,
                traffic,
                100.0 * util
            )
        })
        .collect()
}

pub(super) fn run_fig5b(opts: &ExperimentOpts) -> Outcome {
    let rows = fig5(opts);
    Section::new(
        "fig5b",
        "Fig. 5b — off-chip traffic (vs ideal) and bandwidth utilization",
        fig5b_table(&rows),
    )
    .notes(fig5b_averages(&rows))
    .notes(["(paper: base 5.9% util ~1x traffic; pack0 65.8% util 5.6x; pack256 61% util 1.29x)"])
    .into()
}

/// Extension: data-movement energy of the Fig. 5 SpMV systems — the
/// quantitative version of the paper's remark that pack0's redundant
/// traffic "significantly increases the energy waste on off-chip data
/// movement". Each matrix's rows are normalized to its pack256 run.
fn energy_table(opts: &ExperimentOpts) -> Table {
    let model = EnergyModel::default();
    let mut table = Table::new(vec![
        col::MATRIX,
        col::SYSTEM,
        "offchip-MB",
        "dram-uJ",
        "onchip-uJ",
        "pJ/nnz",
        "vs-pack256",
    ]);
    for name in ["af_shell10", "HPCG", "G3_circuit"] {
        let rows = fig5_matrix(name, opts);
        let energy = |r: &SystemRow| {
            model.spmv_energy(
                r.report.offchip_bytes,
                model.pack_onchip_bytes(r.report.entries),
            )
        };
        let Some(e256) = rows
            .iter()
            .find(|r| r.report.label == "pack256")
            .map(energy)
        else {
            continue;
        };
        for r in &rows {
            let e = energy(r);
            table.row(vec![
                name.to_string(),
                r.report.label.clone(),
                f(r.report.offchip_bytes as f64 / 1e6, 2),
                f(e.dram_nj / 1e3, 1),
                f(e.onchip_nj / 1e3, 1),
                f(e.pj_per_nnz(r.report.nnz), 1),
                f(e.total_nj() / e256.total_nj(), 2),
            ]);
        }
    }
    table
}

pub(super) fn run_energy(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "energy",
        "data-movement energy of the SpMV systems",
        energy_table(opts),
    )
    .notes([
        "(pack0 wastes energy in proportion to its ~5.8x redundant traffic;",
        " the 256-window coalescer recovers nearly all of it)",
    ])
    .into()
}

/// Fig. 6a rows: area breakdowns for AP64, AP128, AP256.
pub(crate) fn fig6a() -> Vec<(String, AreaBreakdown)> {
    [64usize, 128, 256]
        .into_iter()
        .map(|w| (format!("AP{w}"), adapter_area(&AdapterConfig::mlp(w))))
        .collect()
}

fn fig6a_table(rows: &[(String, AreaBreakdown)]) -> Table {
    Table::of(
        rows,
        &[
            (col::VARIANT, |(name, _)| name.clone()),
            ("others", |(_, a)| f(a.others_kge, 0)),
            ("ele_gen", |(_, a)| f(a.ele_gen_kge, 0)),
            ("idx_que", |(_, a)| f(a.idx_que_kge, 0)),
            ("coal", |(_, a)| f(a.coal_kge, 0)),
            ("total-kGE", |(_, a)| f(a.total_kge(), 0)),
            ("mm2", |(_, a)| f(a.area_mm2(), 3)),
            ("util-%", |(_, a)| f(100.0 * a.utilization, 1)),
        ],
    )
}

pub(super) fn run_fig6a(_opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "fig6a",
        "Fig. 6a — AXI-Pack adapter area breakdown (GF 12 nm model)",
        fig6a_table(&fig6a()),
    )
    .notes(["(paper: coal 307/617/1035 kGE; 0.19/0.26/0.34 mm2 at 60.5/56.5/56.4% util)"])
    .into()
}

/// Measures the channel's achievable streaming (STREAM-copy-like)
/// bandwidth in GB/s by reading a long contiguous region.
pub(crate) fn measure_stream_gbps() -> f64 {
    let blocks: u64 = 8192;
    let mut chan = HbmChannel::new(
        HbmConfig::default(),
        Memory::new((blocks as usize * 64).next_power_of_two()),
    );
    let mut issued = 0u64;
    let mut received = 0u64;
    let mut clk = SimClock::new("stream bandwidth measurement", blocks * 64);
    while received < blocks {
        let now = clk.now();
        if issued < blocks
            && chan
                .try_request(now, WideRequest::read(issued * 64, 0))
                .is_ok()
        {
            issued += 1;
        }
        chan.tick(now);
        while chan.pop_response(now).is_some() {
            received += 1;
        }
        clk.tick();
    }
    blocks as f64 * 64.0 / clk.now() as f64
}

/// Fig. 6b rows: the efficiency comparison. Runs pack256 SpMV on the
/// three Fig. 6b matrices to obtain this work's sustained GFLOP/s.
pub(crate) fn fig6b(opts: &ExperimentOpts) -> Vec<EfficiencyPoint> {
    let adapter = AdapterConfig::mlp(256);
    let matrices = build_matrices(&EFFICIENCY_THREE, opts);
    let pack = adapter.clone();
    let reports = parallel_map(matrices, move |(name, csr, _)| {
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(pack.clone()))
            .build();
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        let report = engine.prepare(&csr).run(&x);
        assert!(report.verified, "{name}: datapath mismatch");
        report
    });
    let gflops_sum: f64 = reports.iter().map(RunReport::gflops).sum();
    let n = reports.len() as f64;
    let stream = measure_stream_gbps();
    vec![
        nmpic_model::a64fx(),
        nmpic_model::sx_aurora(),
        nmpic_model::this_work(&adapter, gflops_sum / n, stream),
    ]
}

fn fig6b_table(points: &[EfficiencyPoint]) -> Table {
    Table::of(
        points,
        &[
            ("platform", |p| p.name.clone()),
            ("onchip-kB", |p| f(p.onchip_kb, 0)),
            ("stream-GB/s", |p| f(p.stream_gbps, 0)),
            ("spmv-GFLOP/s", |p| f(p.spmv_gflops, 1)),
            ("kB/(GB/s)", |p| f(p.onchip_cost(), 1)),
            ("GFLOPs/(GB/s)", |p| f(p.perf_efficiency(), 3)),
        ],
    )
}

pub(super) fn run_fig6b(opts: &ExperimentOpts) -> Outcome {
    let points = fig6b(opts);
    let section = Section::new(
        "fig6b",
        "Fig. 6b — on-chip cost and SpMV efficiency",
        fig6b_table(&points),
    );
    // [A64FX, SX-Aurora, this work], as fig6b() builds them.
    match points.as_slice() {
        [a64fx, aurora, tw] => section.notes([format!(
            "on-chip efficiency vs SX-Aurora: {:.2}x (paper 1.4x); vs A64FX: {:.2}x (paper 2.6x)",
            aurora.onchip_cost() / tw.onchip_cost(),
            a64fx.onchip_cost() / tw.onchip_cost()
        )]),
        _ => section,
    }
    .into()
}
