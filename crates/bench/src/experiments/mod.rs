//! The experiment table: every paper table/figure and extension study is
//! one [`Experiment`] row of [`REGISTRY`], run by the single
//! `experiments` binary.
//!
//! Each family module holds its row type, the sweep that produces the
//! rows, the `Table` rendering of those rows and — where a result can be
//! wrong without a simulation assert firing — `gates` over the typed
//! row fields. An experiment's `run` returns an [`Outcome`] and touches
//! neither stdout nor the filesystem; printing, `results/` files and the
//! exit code belong to the binary.
//!
//! Sweeps fan their configuration points across CPU cores with
//! [`nmpic_sim::pool::parallel_map`]; every point is an independent,
//! deterministic simulation, and results keep their sweep order.

mod analytic;
mod batched;
mod opts;
mod scaling_units;
mod service_throughput;
mod solver;
mod stream;
mod system;

#[cfg(test)]
mod opts_tests;
#[cfg(test)]
mod tests;

pub use batched::batch_x;
pub use opts::ExperimentOpts;

use crate::output::Table;
use nmpic_sim::pool::parallel_map;
use nmpic_sparse::{Csr, Sell};

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name, also the stem of its main results file.
    pub name: &'static str,
    /// The paper artifact it regenerates, or `extension`.
    pub artifact: &'static str,
    /// One-line description for `experiments --list`.
    pub about: &'static str,
    /// Whether CI's bench-smoke job (`experiments smoke`) runs it.
    pub smoke: bool,
    /// Runs the sweep at the given scale.
    pub run: fn(&ExperimentOpts) -> Outcome,
}

/// One rendered result table of an experiment.
#[derive(Debug, Clone)]
pub struct Section {
    /// File stem under `results/` (`<stem>.csv`, `<stem>.json`).
    pub stem: &'static str,
    /// Heading printed above the table.
    pub title: String,
    /// The rows.
    pub table: Table,
    /// Lines printed under the table (paper comparisons, reading aids).
    pub notes: Vec<String>,
}

impl Section {
    fn new(stem: &'static str, title: impl Into<String>, table: Table) -> Self {
        Self {
            stem,
            title: title.into(),
            table,
            notes: Vec::new(),
        }
    }

    fn notes<S: Into<String>>(mut self, notes: impl IntoIterator<Item = S>) -> Self {
        self.notes.extend(notes.into_iter().map(Into::into));
        self
    }
}

/// What one experiment run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Result tables in print order.
    pub tables: Vec<Section>,
    /// Failed experiment-specific gates, one message per offending row
    /// (the generic empty-table / non-finite-cell gate is
    /// [`Table::gate`], applied by the binary to every table).
    pub failures: Vec<String>,
}

impl From<Section> for Outcome {
    fn from(section: Section) -> Self {
        Outcome {
            tables: vec![section],
            failures: Vec::new(),
        }
    }
}

/// Every experiment, in the order `experiments all` runs them.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        artifact: "Table I",
        about: "adapter/system parameters incl. the 27 kB storage derivation",
        smoke: false,
        run: system::run_table1,
    },
    Experiment {
        name: "fig3",
        artifact: "Fig. 3",
        about: "indirect stream bandwidth, 20 matrices x 8 variants x 2 formats",
        smoke: false,
        run: stream::run_fig3,
    },
    Experiment {
        name: "fig4",
        artifact: "Fig. 4",
        about: "bandwidth breakdown + coalesce rate on six representative matrices",
        smoke: false,
        run: stream::run_fig4,
    },
    Experiment {
        name: "fig5a",
        artifact: "Fig. 5a",
        about: "SpMV runtime split and speedup vs the baseline system",
        smoke: false,
        run: system::run_fig5a,
    },
    Experiment {
        name: "fig5b",
        artifact: "Fig. 5b",
        about: "off-chip traffic vs ideal + HBM bandwidth utilization",
        smoke: false,
        run: system::run_fig5b,
    },
    Experiment {
        name: "fig6a",
        artifact: "Fig. 6a",
        about: "adapter area breakdown (kGE, mm2)",
        smoke: false,
        run: system::run_fig6a,
    },
    Experiment {
        name: "fig6b",
        artifact: "Fig. 6b",
        about: "on-chip cost and SpMV efficiency vs A64FX / SX-Aurora",
        smoke: false,
        run: system::run_fig6b,
    },
    Experiment {
        name: "energy",
        artifact: "extension",
        about: "data-movement energy of the Fig. 5 systems",
        smoke: false,
        run: system::run_energy,
    },
    Experiment {
        name: "formats",
        artifact: "extension",
        about: "SELL vs SELL-C-sigma padding and useful bandwidth under MLP256",
        smoke: false,
        run: stream::run_formats,
    },
    Experiment {
        name: "ablation_dram",
        artifact: "extension",
        about: "DRAM scheduler x page-policy ablation under the indirect stream",
        smoke: false,
        run: stream::run_ablation_dram,
    },
    Experiment {
        name: "ablation_window",
        artifact: "extension",
        about: "cross-window carry-over, regulator/watchdog timeouts, index lanes",
        smoke: false,
        run: stream::run_ablation_window,
    },
    Experiment {
        name: "scaling_channels",
        artifact: "extension",
        about: "indirect bandwidth vs 1/2/4/8 interleaved HBM2 channels",
        smoke: true,
        run: stream::run_scaling_channels,
    },
    Experiment {
        name: "scaling_units",
        artifact: "extension",
        about: "sharded SpMV vs 1/2/4/8 units over hbm8: aggregate GB/s + load imbalance",
        smoke: true,
        run: scaling_units::run,
    },
    Experiment {
        name: "batched_spmv",
        artifact: "extension",
        about: "B = 1/4/16 vectors on one prepared plan vs per-vector plan rebuild",
        smoke: true,
        run: batched::run,
    },
    Experiment {
        name: "solver_convergence",
        artifact: "extension",
        about: "CG to 1e-10 on resident plans: iterations, amortized cycles + GB/s per iteration",
        smoke: true,
        run: solver::run,
    },
    Experiment {
        name: "analytic_validation",
        artifact: "extension",
        about: "analytic vs cycle-accurate cost per grid point; at full scale a \
                large-matrix sweep and the million-row wall-clock speedup",
        smoke: true,
        run: analytic::run,
    },
    Experiment {
        name: "service_throughput",
        artifact: "extension",
        about: "multi-tenant SpmvService burst: req/s + p50/p99/p999 vs drain workers",
        smoke: true,
        run: service_throughput::run,
    },
];

/// Resolves the binary's arguments to registry rows: `all`, `smoke`
/// (the rows CI runs) or experiment names, in the order given.
///
/// # Errors
///
/// Returns the offending argument when it names no experiment.
pub fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for arg in args {
        match arg.as_str() {
            "all" => picked.extend(REGISTRY),
            "smoke" => picked.extend(REGISTRY.iter().filter(|e| e.smoke)),
            name => picked.push(
                REGISTRY
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment '{name}'"))?,
            ),
        }
    }
    Ok(picked)
}

/// The registry as a table (`experiments --list`).
pub fn listing() -> Table {
    Table::of(
        REGISTRY,
        &[
            ("name", |e| e.name.to_string()),
            ("artifact", |e| e.artifact.to_string()),
            ("smoke", |e| e.smoke.to_string()),
            ("about", |e| e.about.to_string()),
        ],
    )
}

/// Column headers that more than one family prints, spelled once.
mod col {
    pub(super) const MATRIX: &str = "matrix";
    pub(super) const VARIANT: &str = "variant";
    pub(super) const SYSTEM: &str = "system";
    pub(super) const BACKEND: &str = "backend";
    pub(super) const CYCLES: &str = "cycles";
    pub(super) const SPEEDUP: &str = "speedup";
    pub(super) const GBPS: &str = "GB/s";
    pub(super) const PEAK_GBPS: &str = "peak GB/s";
    pub(super) const WORKERS: &str = "workers";
    pub(super) const TENANTS: &str = "tenants";
    pub(super) const WALL_MS: &str = "wall ms";
    pub(super) const REQ_PER_S: &str = "req/s";
    pub(super) const P50_US: &str = "p50 us";
    pub(super) const P99_US: &str = "p99 us";
    pub(super) const P999_US: &str = "p999 us";
    pub(super) const VERIFIED: &str = "verified";
}

/// Builds the named suite matrix, scaled down to at most `cap` nonzeros.
fn suite_matrix(name: &str, cap: u64) -> Csr {
    // nmpic-lint: allow(L2) — invariant: every caller passes a compile-time member of the built-in suite; by_name covers it
    let spec = nmpic_sparse::by_name(name).expect("suite matrix");
    spec.build_capped(cap)
}

/// Builds the (CSR, SELL) pair for each named matrix, in parallel.
fn build_matrices(names: &[&str], opts: &ExperimentOpts) -> Vec<(String, Csr, Sell)> {
    let max_nnz = opts.max_nnz;
    parallel_map(names.to_vec(), move |name| {
        let csr = suite_matrix(name, max_nnz);
        let sell = Sell::from_csr_default(&csr);
        (name.to_string(), csr, sell)
    })
}
