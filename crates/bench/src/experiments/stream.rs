//! Indirect-stream experiments: one adapter variant gathering one index
//! stream against a memory backend (Fig. 3, Fig. 4, channel scaling, the
//! SELL-C-sigma format study and the window/DRAM ablations).

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions, StreamResult};
use nmpic_mem::{BackendConfig, HbmConfig, PagePolicy, SchedPolicy};
use nmpic_sim::pool::parallel_map;
use nmpic_sim::stats::GeoMean;
use nmpic_sparse::{suite, Sell, SellCSigma, DEFAULT_SLICE_HEIGHT, REPRESENTATIVE_SIX};

use super::{build_matrices, col, suite_matrix, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};

/// Headers more than one table of this family prints.
const BW_GBPS: &str = "BW GB/s";
const COAL_RATE: &str = "coal-rate";
const INDEX_GBPS: &str = "index GB/s";

/// The adapter variants swept in Fig. 3.
pub(crate) fn fig3_variants() -> Vec<AdapterConfig> {
    vec![
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(8),
        AdapterConfig::mlp(16),
        AdapterConfig::mlp(32),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(128),
        AdapterConfig::mlp(256),
        AdapterConfig::seq(256),
    ]
}

/// The adapter variants shown in Fig. 4.
pub(crate) fn fig4_variants() -> Vec<AdapterConfig> {
    vec![
        AdapterConfig::mlp_nc(),
        AdapterConfig::mlp(16),
        AdapterConfig::mlp(64),
        AdapterConfig::mlp(256),
        AdapterConfig::seq(256),
    ]
}

/// One Fig. 3 / Fig. 4 measurement.
#[derive(Debug, Clone)]
pub(crate) struct StreamRow {
    /// Matrix name.
    pub matrix: String,
    /// `SELL` or `CSR`.
    pub format: &'static str,
    /// Full stream measurement.
    pub result: StreamResult,
}

/// One parallel stream job: everything needed to run a single
/// (matrix, format, variant) point.
struct StreamJob<'a> {
    matrix: &'a str,
    format: &'static str,
    indices: &'a [u32],
    cols: usize,
    cfg: AdapterConfig,
}

/// Runs stream jobs across cores and asserts each verifies.
fn run_stream_jobs(jobs: Vec<StreamJob<'_>>) -> Vec<StreamRow> {
    parallel_map(jobs, |job| {
        let result =
            run_indirect_stream(&job.cfg, job.indices, job.cols, &StreamOptions::default());
        assert!(
            result.verified,
            "{}/{}/{}: gather mismatch",
            job.matrix, job.format, result.variant
        );
        StreamRow {
            matrix: job.matrix.to_string(),
            format: job.format,
            result,
        }
    })
}

/// Runs the Fig. 3 sweep: indirect stream bandwidth for every suite
/// matrix, both formats, all variants — fanned across CPU cores.
///
/// # Panics
///
/// Panics if any run fails verification — that is a simulator bug, not a
/// measurement.
pub(crate) fn fig3(opts: &ExperimentOpts) -> Vec<StreamRow> {
    let names: Vec<&str> = suite().iter().map(|s| s.name).collect();
    let matrices = build_matrices(&names, opts);
    let mut jobs = Vec::new();
    for (name, csr, sell) in &matrices {
        for (format, indices) in [("SELL", sell.col_idx()), ("CSR", csr.col_idx())] {
            for cfg in fig3_variants() {
                jobs.push(StreamJob {
                    matrix: name,
                    format,
                    indices,
                    cols: csr.cols(),
                    cfg,
                });
            }
        }
    }
    run_stream_jobs(jobs)
}

/// The Fig. 3 table of one format — a row per matrix, a column per
/// variant — and the geomean MLP256-over-MLPnc speedup the paper quotes.
/// The sweep emits one group per (matrix, format) holding a row per
/// variant in [`fig3_variants`] order, so groups are read off with
/// `chunks` rather than searched for.
fn fig3_table(rows: &[StreamRow], format: &str) -> (Table, f64) {
    let variants: Vec<String> = fig3_variants().iter().map(|v| v.variant_name()).collect();
    let mut headers = vec![col::MATRIX.to_string()];
    headers.extend(variants.iter().cloned());
    let mut table = Table::new(headers);
    let mut speedup = GeoMean::new();
    for group in rows
        .chunks(variants.len())
        .filter(|g| g[0].format == format)
    {
        let gbps = |variant: &str| {
            group
                .iter()
                .find(|r| r.result.variant == variant)
                .map_or(0.0, |r| r.result.indir_gbps)
        };
        let (nc, best) = (gbps("MLPnc"), gbps("MLP256"));
        if nc > 0.0 {
            speedup.add(best / nc);
        }
        let mut cells = vec![group[0].matrix.clone()];
        cells.extend(group.iter().map(|r| f(r.result.indir_gbps, 2)));
        table.row(cells);
    }
    (table, speedup.mean())
}

pub(super) fn run_fig3(opts: &ExperimentOpts) -> Outcome {
    let rows = fig3(opts);
    let tables = [("SELL", "fig3_sell"), ("CSR", "fig3_csr")]
        .into_iter()
        .map(|(format, stem)| {
            let (table, speedup) = fig3_table(&rows, format);
            Section::new(
                stem,
                format!("Fig. 3 — {format} indirect stream bandwidth (GB/s)"),
                table,
            )
            .notes([format!(
                "geomean MLP256/MLPnc speedup: {speedup:.2}x (paper: ~8x)"
            )])
        })
        .collect();
    Outcome {
        tables,
        failures: Vec::new(),
    }
}

/// Runs the Fig. 4 subset: the six representative matrices in SELL format
/// with the bandwidth-breakdown variants.
pub(crate) fn fig4(opts: &ExperimentOpts) -> Vec<StreamRow> {
    let matrices = build_matrices(&REPRESENTATIVE_SIX, opts);
    let mut jobs = Vec::new();
    for (name, csr, sell) in &matrices {
        for cfg in fig4_variants() {
            jobs.push(StreamJob {
                matrix: name,
                format: "SELL",
                indices: sell.col_idx(),
                cols: csr.cols(),
                cfg,
            });
        }
    }
    run_stream_jobs(jobs)
}

fn fig4_table(rows: &[StreamRow]) -> Table {
    Table::of(
        rows,
        &[
            (col::MATRIX, |r| r.matrix.clone()),
            (col::VARIANT, |r| r.result.variant.clone()),
            ("indir", |r| f(r.result.indir_gbps, 2)),
            ("index", |r| f(r.result.index_gbps, 2)),
            ("elem", |r| f(r.result.elem_gbps, 2)),
            ("loss", |r| f(r.result.loss_gbps, 2)),
            (COAL_RATE, |r| f(r.result.coalesce_rate, 2)),
        ],
    )
}

pub(super) fn run_fig4(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "fig4",
        "Fig. 4 — bandwidth breakdown (GB/s) and coalesce rate (SELL)",
        fig4_table(&fig4(opts)),
    )
    .into()
}

/// One channel-scaling measurement: an adapter variant against an
/// `channels`-wide interleaved HBM backend.
#[derive(Debug, Clone)]
pub(crate) struct ChannelScalingRow {
    /// Number of interleaved HBM2 channels.
    pub channels: usize,
    /// Peak aggregate bandwidth in GB/s at 1 GHz.
    pub peak_gbps: f64,
    /// Full stream measurement (variant name inside).
    pub result: StreamResult,
}

/// The channel counts swept by [`scaling_channels`].
pub(crate) const SCALING_CHANNELS: [usize; 4] = [1, 2, 4, 8];

/// Runs the channel-scaling study: the MLP256 and MLPnc adapters
/// streaming a banded-FEM SELL index stream against 1/2/4/8 interleaved
/// HBM2 channels, all points in parallel.
///
/// Delivered indirect bandwidth on the MLP variant must grow
/// monotonically with channel count until the adapter's own 512 b
/// upstream port saturates; MLPnc keeps scaling longer because a single
/// channel leaves it DRAM-bound.
///
/// # Panics
///
/// Panics if any run fails verification.
pub(crate) fn scaling_channels(opts: &ExperimentOpts) -> Vec<ChannelScalingRow> {
    let csr = suite_matrix("af_shell10", opts.max_nnz.min(100_000));
    let sell = Sell::from_csr_default(&csr);
    let indices = sell.col_idx();
    let cols = csr.cols();

    let mut jobs = Vec::new();
    for n in SCALING_CHANNELS {
        for adapter in [AdapterConfig::mlp(256), AdapterConfig::mlp_nc()] {
            jobs.push((n, adapter));
        }
    }
    parallel_map(jobs, move |(n, adapter)| {
        let backend = BackendConfig::interleaved(n);
        let peak_gbps = backend.peak_bytes_per_cycle() as f64;
        let stream_opts = StreamOptions { backend };
        let result = run_indirect_stream(&adapter, indices, cols, &stream_opts);
        assert!(
            result.verified,
            "scaling x{n}/{}: gather mismatch",
            result.variant
        );
        ChannelScalingRow {
            channels: n,
            peak_gbps,
            result,
        }
    })
}

fn scaling_channels_table(rows: &[ChannelScalingRow]) -> Table {
    Table::of(
        rows,
        &[
            ("channels", |r| r.channels.to_string()),
            (col::VARIANT, |r| r.result.variant.clone()),
            (col::PEAK_GBPS, |r| f(r.peak_gbps, 0)),
            ("indir GB/s", |r| f(r.result.indir_gbps, 2)),
            (INDEX_GBPS, |r| f(r.result.index_gbps, 2)),
            ("elem GB/s", |r| f(r.result.elem_gbps, 2)),
            ("bus util %", |r| f(100.0 * r.result.bus_utilization, 1)),
        ],
    )
}

pub(super) fn run_scaling_channels(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "scaling_channels",
        "indirect bandwidth vs interleaved HBM2 channel count (af_shell10 SELL)",
        scaling_channels_table(&scaling_channels(opts)),
    )
    .notes([
        "(MLP256 saturates once the 512 b upstream port and the 1-request/cycle",
        " arbiter become the bottleneck; MLPnc scales further because it was",
        " DRAM-limited — near-memory parallelism must grow with channel count)",
    ])
    .into()
}

/// Extension study: SELL vs SELL-C-σ — how σ-sorting changes padding and
/// the coalescer's effective bandwidth (the format the paper's Fig. 6b
/// reference machines use).
fn formats_table(opts: &ExperimentOpts) -> Table {
    let stream_opts = StreamOptions::default();
    let adapter = AdapterConfig::mlp(256);
    let mut table = Table::new(vec![
        col::MATRIX,
        "format",
        "padding",
        "stream-len",
        BW_GBPS,
        "useful GB/s",
        COAL_RATE,
    ]);
    // Matrices with skewed row lengths benefit from sigma; uniform ones don't.
    for name in ["circuit5M_dc", "G3_circuit", "thermal2", "HPCG", "pwtk"] {
        let csr = suite_matrix(name, opts.max_nnz.min(100_000));
        let plain = Sell::from_csr_default(&csr);
        let sorted = SellCSigma::from_csr(&csr, DEFAULT_SLICE_HEIGHT, 8 * DEFAULT_SLICE_HEIGHT);
        for (label, stream, padding) in [
            ("SELL-32", plain.col_idx(), plain.padding_ratio()),
            (
                "SELL-32-s256",
                sorted.sell().col_idx(),
                sorted.padding_ratio(),
            ),
        ] {
            let r = run_indirect_stream(&adapter, stream, csr.cols(), &stream_opts);
            assert!(r.verified);
            // Useful throughput counts only true nonzeros: padding
            // entries inflate raw bandwidth (they all gather vec[0] and
            // coalesce perfectly) without doing work.
            let useful = csr.nnz() as f64 * 8.0 / r.cycles as f64;
            table.row(vec![
                name.to_string(),
                label.to_string(),
                f(padding, 3),
                stream.len().to_string(),
                f(r.indir_gbps, 2),
                f(useful, 2),
                f(r.coalesce_rate, 2),
            ]);
        }
    }
    table
}

pub(super) fn run_formats(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "formats",
        "SELL vs SELL-C-sigma under the MLP256 adapter",
        formats_table(opts),
    )
    .notes([
        "(sigma-sorting removes padding entries — which coalesce perfectly and inflate",
        " raw GB/s — so compare `useful GB/s`: true-nonzero bytes per cycle)",
    ])
    .into()
}

/// Ablation: DRAM controller policies under the indirect stream — how
/// much of the adapter's benefit depends on the paper's open-adaptive
/// FR-FCFS controller (Table I) versus simpler policies.
fn ablation_dram_table(opts: &ExperimentOpts) -> Table {
    let mut table = Table::new(vec![
        col::MATRIX,
        col::VARIANT,
        "scheduler",
        "page-policy",
        BW_GBPS,
        "row-hit-%",
    ]);
    for name in ["af_shell10", "circuit5M_dc"] {
        let csr = suite_matrix(name, opts.max_nnz.min(80_000));
        let sell = Sell::from_csr_default(&csr);
        for adapter in [AdapterConfig::mlp_nc(), AdapterConfig::mlp(256)] {
            for (sched, sched_name) in [
                (SchedPolicy::FrFcfs, "FR-FCFS"),
                (SchedPolicy::Fcfs, "FCFS"),
            ] {
                for (page, page_name) in [
                    (PagePolicy::OpenAdaptive, "open-adaptive"),
                    (PagePolicy::Open, "open"),
                    (PagePolicy::Closed, "closed"),
                ] {
                    let stream_opts = StreamOptions {
                        backend: BackendConfig {
                            hbm: HbmConfig {
                                sched_policy: sched,
                                page_policy: page,
                                ..HbmConfig::default()
                            },
                            ..BackendConfig::hbm()
                        },
                    };
                    let r = run_indirect_stream(&adapter, sell.col_idx(), csr.cols(), &stream_opts);
                    assert!(r.verified);
                    table.row(vec![
                        name.to_string(),
                        r.variant.clone(),
                        sched_name.to_string(),
                        page_name.to_string(),
                        f(r.indir_gbps, 2),
                        f(100.0 * r.row_hit_rate, 1),
                    ]);
                }
            }
        }
    }
    table
}

pub(super) fn run_ablation_dram(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "ablation_dram",
        "DRAM policy ablation under the indirect stream",
        ablation_dram_table(opts),
    )
    .notes(["(Table I's open-adaptive FR-FCFS should be at or near the top throughout)"])
    .into()
}

/// Ablation: coalescer design choices called out in DESIGN.md — the
/// cross-window CSHR carry-over, the regulator fill timeout, the watchdog
/// timeout, and the number of parallel index lanes.
pub(super) fn run_ablation_window(opts: &ExperimentOpts) -> Outcome {
    let csr = suite_matrix("af_shell10", opts.max_nnz.min(80_000));
    let sell = Sell::from_csr_default(&csr);
    let stream_opts = StreamOptions::default();
    let run = |cfg: &AdapterConfig| {
        let r = run_indirect_stream(cfg, sell.col_idx(), csr.cols(), &stream_opts);
        assert!(r.verified);
        r
    };

    let mut cross = Table::new(vec![
        "window",
        "cross-window",
        BW_GBPS,
        COAL_RATE,
        "wide-reads",
    ]);
    for w in [64usize, 256] {
        for on in [true, false] {
            let mut cfg = AdapterConfig::mlp(w);
            cfg.cross_window = on;
            let r = run(&cfg);
            cross.row(vec![
                w.to_string(),
                on.to_string(),
                f(r.indir_gbps, 2),
                f(r.coalesce_rate, 2),
                r.adapter.elem_wide_reads.to_string(),
            ]);
        }
    }

    // One table per timeout knob: the same MLP256 adapter, one field swept.
    let timeout_table = |header: &str, values: [u32; 5], set: fn(&mut AdapterConfig, u32)| {
        let mut table = Table::new(vec![header, BW_GBPS, COAL_RATE]);
        for timeout in values {
            let mut cfg = AdapterConfig::mlp(256);
            set(&mut cfg, timeout);
            let r = run(&cfg);
            table.row(vec![
                timeout.to_string(),
                f(r.indir_gbps, 2),
                f(r.coalesce_rate, 2),
            ]);
        }
        table
    };
    let regulator = timeout_table("regulator-timeout", [1, 4, 16, 64, 256], |cfg, t| {
        cfg.regulator_timeout = t
    });
    let watchdog = timeout_table("watchdog-timeout", [4, 16, 32, 128, 512], |cfg, t| {
        cfg.watchdog_timeout = t
    });

    // Parallel index lanes (memory-level parallelism).
    let mut lanes_table = Table::new(vec!["lanes", BW_GBPS, INDEX_GBPS]);
    for lanes in [1usize, 2, 4, 8, 16] {
        let mut cfg = AdapterConfig::mlp(256);
        cfg.lanes = lanes;
        let r = run(&cfg);
        lanes_table.row(vec![
            lanes.to_string(),
            f(r.indir_gbps, 2),
            f(r.index_gbps, 2),
        ]);
    }

    let tables = vec![
        Section::new(
            "ablation_cross_window",
            format!(
                "ablations on af_shell10 ({} nnz, {} SELL entries)\n\n\
                 cross-window CSHR carry-over:",
                csr.nnz(),
                sell.padded_len()
            ),
            cross,
        ),
        Section::new(
            "ablation_regulator",
            "regulator fill timeout (W=256):",
            regulator,
        ),
        Section::new("ablation_watchdog", "watchdog timeout (W=256):", watchdog),
        Section::new("ablation_lanes", "index lanes (W=256):", lanes_table).notes([
            "(the paper's insight: parallel request generation is required to feed the window)",
        ]),
    ];
    Outcome {
        tables,
        failures: Vec::new(),
    }
}
