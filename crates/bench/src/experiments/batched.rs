//! Batched multi-vector SpMV: one prepared plan running B vectors per
//! `run_batch` call against the per-vector plan-rebuild baseline.

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sim::pool::parallel_map;
use nmpic_system::{SpmvEngine, SystemKind};

use super::{col, suite_matrix, ExperimentOpts, Outcome, Section};
use crate::output::{f, Table};

/// One batched-SpMV measurement: a prepared plan running B vectors.
#[derive(Debug, Clone)]
pub(crate) struct BatchRow {
    /// Vectors per batch (B).
    pub batch: usize,
    /// System label of the plan.
    pub label: String,
    /// Total batch runtime in cycles.
    pub cycles: u64,
    /// Amortized per-vector runtime of the batched plan, in cycles.
    pub per_vector_cycles: f64,
    /// Per-vector runtime of the plan-rebuild path (a fresh
    /// `prepare` + `run` per vector), in cycles.
    pub rebuild_per_vector_cycles: f64,
    /// `rebuild_per_vector_cycles / per_vector_cycles` — how much the
    /// prepare-once/execute-many structure saves (≥ ~1.0).
    pub amortization: f64,
    /// Per-vector off-chip traffic of the batched plan, in bytes.
    pub per_vector_offchip_bytes: f64,
    /// Whether every vector of the batch verified against the golden
    /// SpMV.
    pub verified: bool,
}

/// The batch sizes swept by [`batched_spmv`].
pub(crate) const BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Deterministic per-vector input pattern for batched workloads: vector
/// `b` gets a distinct but equally bounded variant of
/// [`nmpic_system::golden_x`].
pub fn batch_x(b: usize, i: usize) -> f64 {
    0.5 + ((i as u64)
        .wrapping_add((b as u64).wrapping_mul(7919))
        .wrapping_mul(2654435761)
        % 1000) as f64
        * 1e-3
}

/// The engine every point of the study prepares its plan on: pack/MLP256
/// over an 8-channel interleaved HBM stack.
fn engine() -> SpmvEngine {
    SpmvEngine::builder()
        .system(SystemKind::Pack(AdapterConfig::mlp(256)))
        .backend(BackendConfig::interleaved(8))
        // nmpic-lint: allow(L2) — invariant: BATCH_SIZES is a non-empty const sweep
        .batch_capacity(*BATCH_SIZES.iter().max().expect("non-empty sweep"))
        .build()
}

/// Runs the batched multi-vector SpMV study: one prepared plan executing
/// B = 1/4/16 vectors per [`nmpic_system::SpmvPlan::run_batch`] call,
/// against the per-vector plan-rebuild baseline (`prepare` + `run` for
/// every vector — what the legacy one-shot API forced).
///
/// The plan is the pack system with the MLP256 adapter over an 8-channel
/// interleaved HBM stack (see [`engine`]). Each tile's slice pointers and
/// nonzeros are fetched once per batch, so per-vector runtime drops as B
/// grows.
///
/// # Panics
///
/// Panics if any run fails its golden verification.
pub(crate) fn batched_spmv(opts: &ExperimentOpts) -> Vec<BatchRow> {
    let csr = suite_matrix("af_shell10", opts.max_nnz.min(100_000));
    let engine = engine();

    // The plan-rebuild path: every vector pays `prepare` + `run` on a
    // fresh plan, exactly like the legacy one-shot API. Its per-vector
    // cycle cost is one single-vector run.
    let rebuild_per_vector = {
        let x: Vec<f64> = (0..csr.cols()).map(|i| batch_x(0, i)).collect();
        engine.prepare(&csr).run(&x).cycles as f64
    };

    let jobs: Vec<usize> = BATCH_SIZES.to_vec();
    let engine2 = engine.clone();
    parallel_map(jobs, move |batch| {
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|b| (0..csr.cols()).map(|i| batch_x(b, i)).collect())
            .collect();
        let mut plan = engine2.prepare(&csr);
        let report = plan.run_batch(&xs);
        assert!(report.verified, "B={batch}: golden mismatch");
        let per_vector = report.cycles_per_vector();
        BatchRow {
            batch,
            label: report.label.clone(),
            cycles: report.cycles,
            per_vector_cycles: per_vector,
            rebuild_per_vector_cycles: rebuild_per_vector,
            amortization: rebuild_per_vector / per_vector,
            per_vector_offchip_bytes: report.offchip_bytes as f64 / batch as f64,
            verified: report.verified,
        }
    })
}

fn table(rows: &[BatchRow]) -> Table {
    Table::of(
        rows,
        &[
            ("batch", |r| r.batch.to_string()),
            (col::SYSTEM, |r| r.label.clone()),
            ("total cyc", |r| r.cycles.to_string()),
            ("cyc/vector", |r| f(r.per_vector_cycles, 0)),
            ("rebuild cyc/vector", |r| f(r.rebuild_per_vector_cycles, 0)),
            ("amortization", |r| f(r.amortization, 3)),
            ("MB/vector", |r| f(r.per_vector_offchip_bytes / 1e6, 3)),
            (col::VERIFIED, |r| r.verified.to_string()),
        ],
    )
}

pub(super) fn run(opts: &ExperimentOpts) -> Outcome {
    Section::new(
        "batched_spmv",
        "batched SpMV vs batch size (af_shell10, hbm8, one prepared plan)",
        table(&batched_spmv(opts)),
    )
    .notes([
        "(the rebuild column is the legacy one-shot path: prepare + run per",
        " vector; amortization > 1 means the prepared plan's warm matrix",
        " image and per-tile stream reuse paid off)",
    ])
    .into()
}
