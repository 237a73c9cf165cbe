//! The session API: build an engine once, prepare a plan per matrix,
//! run it against many vectors.
//!
//! The paper's value proposition is amortizing indirect-access cost
//! across an entire SpMV workload, so memory, backend and unit state
//! are built once and reused. The session API splits the lifecycle the
//! way SparseP-style systems do:
//!
//! * [`SpmvEngine`] — immutable system choice: memory backend
//!   ([`BackendConfig`]) plus [`SystemKind`] (baseline LLC system,
//!   AXI-Pack system with a chosen adapter, or the sharded multi-unit
//!   engine).
//! * [`SpmvEngine::prepare`] → [`SpmvPlan`] — performs partitioning,
//!   format conversion and DRAM layout **once** per matrix. The first
//!   simulated pass writes the matrix image, which then stays resident
//!   in the plan's warm backend; an analytic plan never writes it.
//! * [`SpmvPlan::run`] / [`SpmvPlan::run_batch`] — execute SpMVs against
//!   the warm state: only the vector region of memory is rewritten, the
//!   controller/unit state is reset to a deterministic cold start, and a
//!   unified [`RunReport`] comes back for every system kind. Batched runs
//!   amortize each tile's contiguous streams across the batch on the
//!   pack system and keep the LLC's matrix lines warm on the baseline.
//!
//! Each system is one value kernel and two cost sources, a simulator and
//! a closed-form model. By its [`ExecMode`] a plan takes `y` from the
//! kernel and the cost from the model, or simulates and checks each `y`
//! against the kernel bit for bit (`run_into` may replay instead).
//!
//! # Example
//!
//! ```
//! use nmpic_core::AdapterConfig;
//! use nmpic_mem::BackendConfig;
//! use nmpic_sparse::gen::banded_fem;
//! use nmpic_system::{golden_x, SpmvEngine, SystemKind};
//!
//! let csr = banded_fem(128, 6, 16, 1);
//! let engine = SpmvEngine::builder()
//!     .backend(BackendConfig::hbm())
//!     .system(SystemKind::Pack(AdapterConfig::mlp(64)))
//!     .build();
//! let mut plan = engine.prepare(&csr);
//! let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
//! let one = plan.run(&x);
//! let batch = plan.run_batch(&[x.clone(), x]);
//! assert!(one.verified && batch.verified);
//! assert_eq!(batch.vectors, 2);
//! assert_eq!(one.y_bits(), batch.y_bits(), "plan reuse is deterministic");
//! ```

use std::collections::VecDeque;
use std::fmt;

use nmpic_core::AdapterConfig;
use nmpic_mem::{BackendConfig, ChannelPort, WideRequest};
use nmpic_sim::Cycle;
use nmpic_sparse::{Csr, Sell};

use crate::base::BasePlan;
use crate::pack::PackPlan;
use crate::replay::Replay;
use crate::report::{IterReport, RunReport, ShardDetail};
use crate::shard::{PartitionStrategy, ShardedPlan};
use crate::{BaseConfig, PackConfig};

/// Which end-to-end system a [`SpmvEngine`] simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemKind {
    /// The baseline vector processor behind a 1 MiB LLC, running naive
    /// CSR SpMV with coupled indirect access.
    Base,
    /// The AXI-Pack system with the given adapter variant, running tiled
    /// SELL SpMV through the coalescing-enhanced adapter.
    Pack(AdapterConfig),
    /// The sharded multi-unit engine: `units` indexing/coalescing units
    /// over a row partition, results merged through one scatter unit.
    Sharded {
        /// Number of parallel units (K ≥ 1).
        units: usize,
        /// How rows are divided across units.
        strategy: PartitionStrategy,
    },
}

impl Default for SystemKind {
    /// The paper's headline system: pack with the MLP256 adapter.
    fn default() -> Self {
        SystemKind::Pack(AdapterConfig::mlp(256))
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::Base => write!(f, "base"),
            SystemKind::Pack(a) => write!(f, "{}", a.label()),
            SystemKind::Sharded { units, .. } => write!(f, "sharded{units}"),
        }
    }
}

/// How a [`SpmvPlan`] executes its runs.
///
/// Both modes fill the same [`RunReport`]/[`IterReport`] fields and
/// produce byte-identical result values; they differ in how the **cost
/// metrics** (cycles, indirect cycles, off-chip traffic) are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Step every controller queue, coalescer window and DRAM bank state
    /// machine one simulated cycle at a time — the reference mode.
    #[default]
    CycleAccurate,
    /// Replace per-cycle stepping with the system's closed-form
    /// traffic/latency model, which sits beside its simulator and replays
    /// the same access streams through the LLC tag array or the
    /// coalescer's window model; compute result values with the system's
    /// value kernel ([`Csr::spmv_into`] / [`Sell::spmv_into`]). Cost
    /// metrics agree with cycle-accurate mode within
    /// [`PINNED_REL_TOL`](crate::PINNED_REL_TOL); wall-clock cost drops
    /// by orders of magnitude, unlocking million-row sweeps.
    Analytic,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::CycleAccurate => write!(f, "cycle"),
            ExecMode::Analytic => write!(f, "analytic"),
        }
    }
}

/// Builder for [`SpmvEngine`]. Obtain via [`SpmvEngine::builder`].
#[derive(Debug, Clone)]
pub struct SpmvEngineBuilder {
    engine: SpmvEngine,
}

impl Default for SpmvEngineBuilder {
    fn default() -> Self {
        Self {
            engine: SpmvEngine {
                backend: BackendConfig::hbm(),
                system: SystemKind::default(),
                exec_mode: ExecMode::default(),
                base: BaseConfig::default(),
                pack: PackConfig::default(),
                sharded_adapter: AdapterConfig::mlp(256),
                batch_capacity: 1,
                shard_workers: None,
            },
        }
    }
}

impl SpmvEngineBuilder {
    /// Selects the memory backend every plan of this engine runs against
    /// (default: one HBM2 channel).
    pub fn backend(mut self, backend: BackendConfig) -> Self {
        self.engine.backend = backend;
        self
    }

    /// Selects the system kind (default: pack with MLP256).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.engine.system = system;
        self
    }

    /// Selects the execution mode every plan of this engine runs in
    /// (default: [`ExecMode::CycleAccurate`]). [`ExecMode::Analytic`]
    /// trades pinned-tolerance cost metrics for orders-of-magnitude
    /// faster runs; result values stay byte-identical.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.engine.exec_mode = mode;
        self
    }

    /// Overrides the baseline system's tuning (LLC geometry, VLSU rates).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.chunk` or `cfg.macs_per_cycle` is zero: a chunk of
    /// no elements never advances the stream, and no MACs per cycle
    /// never finish one.
    pub fn base_config(mut self, cfg: BaseConfig) -> Self {
        assert!(cfg.chunk > 0, "base chunk must be positive");
        assert!(
            cfg.macs_per_cycle > 0,
            "base MAC throughput must be positive"
        );
        self.engine.base = cfg;
        self
    }

    /// Overrides the pack system's tuning (L2 size, compute rate).
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.compute_elems_per_cycle` is finite and
    /// positive: a tile's compute time is its entries divided by the
    /// rate, which is a cycle count for no other rate.
    pub fn pack_config(mut self, cfg: PackConfig) -> Self {
        assert!(
            cfg.compute_elems_per_cycle.is_finite() && cfg.compute_elems_per_cycle > 0.0,
            "pack compute rate must be finite and positive, got {}",
            cfg.compute_elems_per_cycle
        );
        self.engine.pack = cfg;
        self
    }

    /// Adapter variant instantiated per unit by
    /// [`SystemKind::Sharded`] plans (default: MLP256).
    pub fn sharded_adapter(mut self, adapter: AdapterConfig) -> Self {
        self.engine.sharded_adapter = adapter;
        self
    }

    /// Maximum vectors of a batch resident in a pack plan's memory image
    /// at once (default 1, so single-vector plans pay no extra memory
    /// and keep the legacy DRAM layout). Larger batches are processed in
    /// chunks of this size, so the amortization window is bounded by it
    /// — raise it to the intended batch width before calling
    /// [`SpmvPlan::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        self.engine.batch_capacity = capacity;
        self
    }

    /// Number of worker threads [`SystemKind::Sharded`] plans use to run
    /// their per-shard unit simulations in parallel (each `CsrShard`'s
    /// unit runs on its own thread of the shared
    /// [`nmpic_sim::pool`] work pool; results merge in fixed shard
    /// order, byte-identical to serial execution). Default: the pool's
    /// `NMPIC_JOBS` policy. `1` forces serial execution on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shard_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one shard worker");
        self.engine.shard_workers = Some(workers);
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> SpmvEngine {
        self.engine
    }
}

/// A configured SpMV session: one memory backend plus one system kind.
/// [`SpmvEngine::prepare`] turns matrices into reusable [`SpmvPlan`]s.
#[derive(Debug, Clone)]
pub struct SpmvEngine {
    backend: BackendConfig,
    system: SystemKind,
    exec_mode: ExecMode,
    base: BaseConfig,
    pack: PackConfig,
    sharded_adapter: AdapterConfig,
    batch_capacity: usize,
    shard_workers: Option<usize>,
}

impl SpmvEngine {
    /// Starts building an engine (HBM backend, pack/MLP256 system by
    /// default).
    pub fn builder() -> SpmvEngineBuilder {
        SpmvEngineBuilder::default()
    }

    /// The engine's memory backend.
    pub fn backend(&self) -> &BackendConfig {
        &self.backend
    }

    /// The engine's system kind.
    pub fn system(&self) -> &SystemKind {
        &self.system
    }

    /// The engine's execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Prepares a plan for `csr`: partitioning (sharded), format
    /// conversion (pack converts to SELL), and DRAM layout of the matrix
    /// image all happen here, **once** — every subsequent
    /// [`SpmvPlan::run`] reuses the warm state. The first simulated pass
    /// writes the image, every pass the vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix.
    pub fn prepare(&self, csr: &Csr) -> SpmvPlan {
        match &self.system {
            SystemKind::Base => self.plan(BasePlan::prepare(csr, self.base.clone(), &self.backend)),
            SystemKind::Pack(adapter) => self.plan(PackPlan::prepare(
                Sell::from_csr_default(csr),
                self.pack.clone(),
                adapter,
                &self.backend,
                self.batch_capacity,
            )),
            SystemKind::Sharded { units, strategy } => self.plan(ShardedPlan::prepare(
                csr,
                *units,
                *strategy,
                &self.sharded_adapter,
                &self.backend,
                self.shard_workers,
            )),
        }
    }

    pub(crate) fn plan(&self, sys: impl Executor + 'static) -> SpmvPlan {
        SpmvPlan {
            mode: self.exec_mode,
            facts: sys.facts(),
            sys: Box::new(sys),
            replay: Replay::default(),
        }
    }
}

/// What a prepared plan knows about its matrix and system without
/// running anything.
pub(crate) struct PlanFacts {
    /// Report label (`base`, `pack256`, `sharded x4 (...)`).
    pub(crate) label: String,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) nnz: usize,
    /// Stream entries per vector (padded SELL entries for pack, nnz
    /// otherwise).
    pub(crate) entries: usize,
    /// Compulsory off-chip bytes of the matrix arrays, moved once per
    /// run however many vectors it multiplies.
    pub(crate) matrix_bytes: u64,
}

impl PlanFacts {
    /// Facts of a system that streams the CSR arrays as they are (row
    /// pointers and column indices at 4 B, values at 8 B).
    pub(crate) fn of_csr(label: String, csr: &Csr) -> Self {
        Self {
            label,
            rows: csr.rows(),
            cols: csr.cols(),
            nnz: csr.nnz(),
            entries: csr.nnz(),
            matrix_bytes: 4 * (csr.rows() as u64 + 1) + 12 * csr.nnz() as u64,
        }
    }

    /// Compulsory off-chip bytes for `vectors` SpMVs: the matrix arrays
    /// once, each vector and result once.
    fn ideal_bytes(&self, vectors: usize) -> u64 {
        self.matrix_bytes + vectors as u64 * 8 * (self.cols + self.rows) as u64
    }
}

/// The contract each system implements exactly once: one value kernel
/// and two cost sources, which [`SpmvPlan`] alone composes, by its
/// [`ExecMode`] (see the module doc).
pub(crate) trait Executor: Send {
    /// The plan's static facts, read once at prepare.
    fn facts(&self) -> PlanFacts;

    /// Returns plan-resident state that survives a pass to the
    /// deterministic cold start every `run`/`run_batch` begins from
    /// (`run_into` deliberately keeps it warm).
    fn cold_start(&mut self) {}

    /// Most vectors one pass multiplies.
    fn chunk_capacity(&self) -> usize {
        1
    }

    /// The native kernel whose bits every simulated `y` must carry.
    fn value_kernel(&self) -> ValueKernel<'_>;

    /// Simulates one pass of every vector of `xs` (at most
    /// [`Executor::chunk_capacity`]) against the resident matrix image
    /// (written by the plan's first pass), overwriting the matching
    /// buffer of `ys` with the simulated result, and reports the cost of
    /// the whole pass.
    fn simulate(&mut self, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport;

    /// The closed-form cost (see `cost.rs`) of one pass of `vectors`
    /// vectors (at most [`Executor::chunk_capacity`]).
    fn model(&mut self, vectors: usize) -> IterReport;

    /// Multi-unit detail of the last pass, scaled to a run of `vectors`
    /// such passes.
    fn shard_detail(&self, _vectors: usize) -> Option<ShardDetail> {
        None
    }

    /// `true` iff the report of [`Executor::simulate`] is a function of
    /// the plan alone — not of the values of `x`, nor of what earlier
    /// passes left in plan state. Only such a system replays
    /// [`SpmvPlan::run_into`]; the default keeps every pass simulated.
    fn timing_is_constant(&self) -> bool {
        false
    }
}

/// A system's native value kernel. It runs on the calling thread and
/// allocates nothing.
pub(crate) enum ValueKernel<'a> {
    /// [`Csr::spmv_into`], the golden row-group kernel: each row from
    /// `+0.0` in CSR order, which is what the baseline and every shard's
    /// sink accumulate.
    Csr(&'a Csr),
    /// [`Sell::spmv_into`]: the pack VPC's per-row order, padding
    /// skipped.
    Sell(&'a Sell),
}

impl ValueKernel<'_> {
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self {
            ValueKernel::Csr(csr) => csr.spmv_into(x, y),
            ValueKernel::Sell(sell) => sell.spmv_into(x, y),
        }
    }
}

/// The result write-back port the base and pack systems share: offers the
/// oldest pending write to the channel, one attempt per cycle, in issue
/// order. A refused request returns to the head of the queue as it came
/// back from `try_request`, so no block is copied per attempt.
pub(crate) fn issue_write_back(
    chan: &mut dyn ChannelPort,
    pending: &mut VecDeque<WideRequest>,
    now: Cycle,
) {
    if let Some(req) = pending.pop_front() {
        if let Err(refused) = chan.try_request(now, req) {
            pending.push_front(refused);
        }
    }
}

/// A prepared SpMV plan: matrix image resident in a warm backend,
/// partitioning/conversion done. Run it against as many vectors as the
/// workload brings.
pub struct SpmvPlan {
    mode: ExecMode,
    facts: PlanFacts,
    sys: Box<dyn Executor>,
    /// The check of simulated passes and the `run_into` record.
    replay: Replay,
}

impl SpmvPlan {
    /// Executes one SpMV (`y = A·x`) against the warm plan state and
    /// returns the unified report.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix's column count, or —
    /// in cycle-accurate mode, through [`nmpic_sim::SimClock::tick`] —
    /// with `"<loop>: cycle budget of <n> exceeded — model deadlock"` if
    /// a simulated loop has not drained within its budget.
    pub fn run(&mut self, x: &[f64]) -> RunReport {
        self.run_vectors(&[x])
    }

    /// Executes a batch of SpMVs (one per vector of `xs`) and returns a
    /// single report with per-batch amortized stats. On the pack system
    /// each tile's slice pointers and nonzeros are fetched once for the
    /// whole batch (up to the engine's batch capacity per chunk); on the
    /// baseline the LLC's matrix lines stay warm across the batch. The
    /// sharded engine runs vectors back to back on warm units.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched vector lengths.
    pub fn run_batch(&mut self, xs: &[Vec<f64>]) -> RunReport {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        self.run_vectors(&refs)
    }

    /// Executes one SpMV (`y = A·x`) against the warm plan state,
    /// **writing the result into the caller's preallocated `y` buffer**
    /// — the zero-realloc hot path iterative solvers
    /// ([`crate::Solver`]) drive hundreds of times per system solve.
    ///
    /// Per call this rewrites only the vector region of the resident
    /// memory image and resets the controller/unit state; the matrix
    /// layout, partitioning and format conversion done by
    /// [`SpmvEngine::prepare`] are never repeated, and no result vector,
    /// accumulation buffer or cache structure is allocated (they are
    /// plan-resident and reused). On the baseline system the LLC keeps
    /// its **matrix** lines warm across calls and only the stale `x`
    /// range is invalidated ([`nmpic_mem::Cache::invalidate_range`]) —
    /// the same reuse pattern as a batched run, which is exactly what
    /// an `x ← f(A·x)` feedback loop produces.
    ///
    /// # Replay
    ///
    /// On a cycle-accurate **pack** or **sharded** plan every DRAM
    /// request comes from the index array and the resident layout, and
    /// the packer restores stream order, so a pass's timing depends on
    /// the plan, not on the values of `x`. Such a plan simulates its
    /// first `run_into` and records the report; every later call
    /// computes `y` with the system's value kernel on the calling thread,
    /// allocating nothing, and returns the record
    /// ([`SpmvPlan::replayed_passes`] counts these calls). Every 64th
    /// replayed pass, and in debug builds every one, is simulated again
    /// and panics, printing both values, unless it reproduces the record
    /// and the kernel's `y` bit for bit (any NaN matches any NaN).
    /// [`SpmvPlan::run`] / [`SpmvPlan::run_batch`] (whose check reads
    /// what the datapath wrote), analytic mode and the baseline (whose
    /// LLC warms across calls) never replay.
    ///
    /// The result bytes are identical to [`SpmvPlan::run`] on the same
    /// plan (pinned by tests); unlike `run` this path performs **no
    /// per-pass verification** and returns the lean [`IterReport`]
    /// instead of a [`RunReport`] — a solver checks convergence, not
    /// per-iteration golden equality.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`, `y.len() != rows`, if an audited
    /// replay diverges, or — in cycle-accurate mode, through
    /// [`nmpic_sim::SimClock::tick`] — with
    /// `"<loop>: cycle budget of <n> exceeded — model deadlock"` if a
    /// simulated loop has not drained within its budget.
    pub fn run_into(&mut self, x: &[f64], y: &mut [f64]) -> IterReport {
        assert_eq!(x.len(), self.cols(), "vector length must equal cols");
        assert_eq!(y.len(), self.rows(), "result buffer length must equal rows");
        match self.mode {
            ExecMode::CycleAccurate => {
                self.replay
                    .run_into(&mut *self.sys, &self.facts.label, x, y)
            }
            ExecMode::Analytic => modelled(&mut *self.sys, &[x], &mut [y]),
        }
    }

    /// How many [`SpmvPlan::run_into`] calls on this plan returned the
    /// recorded report of a replaying plan instead of simulating (see
    /// *Replay* there). Audited passes count as replayed.
    pub fn replayed_passes(&self) -> u64 {
        self.replay.replayed()
    }

    /// The plan's execution mode (inherited from the engine).
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// The plan's report label (`base`, `pack256`, `sharded x4 (...)`).
    pub fn label(&self) -> String {
        self.facts.label.clone()
    }

    /// Rows of the prepared matrix.
    pub fn rows(&self) -> usize {
        self.facts.rows
    }

    /// Columns of the prepared matrix (= required vector length).
    pub fn cols(&self) -> usize {
        self.facts.cols
    }

    /// Stored nonzeros of the prepared matrix.
    pub fn nnz(&self) -> usize {
        self.facts.nnz
    }

    /// The one driver behind [`SpmvPlan::run`] and
    /// [`SpmvPlan::run_batch`]: cold start, then per chunk allocate the
    /// result vectors, execute into them, verify and accumulate.
    fn run_vectors(&mut self, xs: &[&[f64]]) -> RunReport {
        assert!(!xs.is_empty(), "at least one vector");
        for x in xs {
            assert_eq!(x.len(), self.cols(), "vector length must equal cols");
        }
        let (facts, sys, replay) = (&self.facts, &mut *self.sys, &mut self.replay);
        sys.cold_start();
        let mut total = IterReport::default();
        let mut verified = true;
        let mut ys: Vec<Vec<f64>> = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(sys.chunk_capacity()) {
            let done = ys.len();
            ys.extend(chunk.iter().map(|_| vec![0.0f64; facts.rows]));
            let mut bufs: Vec<&mut [f64]> = ys[done..].iter_mut().map(Vec::as_mut_slice).collect();
            let cost = match self.mode {
                ExecMode::CycleAccurate => {
                    let cost = sys.simulate(chunk, &mut bufs);
                    for (x, y) in chunk.iter().zip(&bufs) {
                        verified &= replay.verifies(sys.value_kernel(), x, y);
                    }
                    cost
                }
                ExecMode::Analytic => modelled(sys, chunk, &mut bufs),
            };
            total.cycles += cost.cycles;
            total.indir_cycles += cost.indir_cycles;
            total.offchip_bytes += cost.offchip_bytes;
        }
        RunReport {
            label: facts.label.clone(),
            cycles: total.cycles,
            vectors: xs.len(),
            indir_cycles: total.indir_cycles,
            nnz: facts.nnz as u64,
            entries: facts.entries as u64,
            offchip_bytes: total.offchip_bytes,
            ideal_bytes: facts.ideal_bytes(xs.len()),
            verified,
            shards: sys.shard_detail(xs.len()),
            ys,
        }
    }
}

/// An analytic pass: `y` from the value kernel, the cost from the model.
fn modelled(sys: &mut dyn Executor, xs: &[&[f64]], ys: &mut [&mut [f64]]) -> IterReport {
    for (x, y) in xs.iter().zip(ys.iter_mut()) {
        sys.value_kernel().apply(x, y);
    }
    sys.model(xs.len())
}

/// One SpMV of the golden vector on `plan` — how the system modules'
/// in-module tests reach their datapath.
#[cfg(test)]
pub(crate) fn run_golden(mut plan: SpmvPlan) -> RunReport {
    let x: Vec<f64> = (0..plan.cols()).map(crate::report::golden_x).collect();
    plan.run(&x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::golden_x;
    use nmpic_sparse::gen::banded_fem;

    fn x_for(csr: &Csr) -> Vec<f64> {
        (0..csr.cols()).map(golden_x).collect()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let e = SpmvEngine::builder().build();
        assert_eq!(e.backend().label(), "hbm");
        assert_eq!(e.system(), &SystemKind::Pack(AdapterConfig::mlp(256)));
        let e = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(4))
            .system(SystemKind::Base)
            .build();
        assert_eq!(e.backend().label(), "hbm x4");
        assert_eq!(e.system(), &SystemKind::Base);
    }

    #[test]
    fn every_kind_runs_and_verifies() {
        let csr = banded_fem(192, 6, 16, 2);
        let x = x_for(&csr);
        for system in [
            SystemKind::Base,
            SystemKind::Pack(AdapterConfig::mlp(64)),
            SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            },
        ] {
            let engine = SpmvEngine::builder().system(system.clone()).build();
            let mut plan = engine.prepare(&csr);
            let r = plan.run(&x);
            assert!(r.verified, "{system}: golden mismatch");
            assert!(r.cycles > 0);
            assert_eq!(r.vectors, 1);
            assert_eq!(r.ys.len(), 1);
            assert_eq!(
                r.shards.is_some(),
                matches!(system, SystemKind::Sharded { .. })
            );
        }
    }

    #[test]
    fn plan_runs_are_deterministic() {
        let csr = banded_fem(256, 8, 24, 7);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(256)))
            .build();
        let mut plan = engine.prepare(&csr);
        let a = plan.run(&x);
        let b = plan.run(&x);
        assert_eq!(a.cycles, b.cycles, "warm plan must not drift");
        assert_eq!(a.offchip_bytes, b.offchip_bytes);
        assert_eq!(a.y_bits(), b.y_bits());
    }

    #[test]
    fn batch_amortizes_contiguous_streams_on_pack() {
        let csr = banded_fem(1024, 10, 48, 9);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(256)))
            .batch_capacity(4)
            .build();
        let mut plan = engine.prepare(&csr);
        let single = plan.run(&x);
        let batch = plan.run_batch(&vec![x.clone(); 4]);
        assert!(single.verified && batch.verified);
        assert_eq!(batch.vectors, 4);
        for ybits in batch
            .ys
            .iter()
            .map(|y| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        {
            assert_eq!(ybits, single.y_bits(), "batch results must match run()");
        }
        assert!(
            batch.cycles_per_vector() < single.cycles_per_vector(),
            "B=4 must amortize: {:.0} vs {:.0} cycles/vector",
            batch.cycles_per_vector(),
            single.cycles_per_vector()
        );
        // Off-chip traffic amortizes too: the matrix streams moved once.
        assert!(
            (batch.offchip_bytes as f64) < 4.0 * single.offchip_bytes as f64,
            "batch traffic {} must undercut 4x single {}",
            batch.offchip_bytes,
            single.offchip_bytes
        );
    }

    #[test]
    fn batches_larger_than_capacity_chunk() {
        let csr = banded_fem(128, 6, 16, 3);
        let x = x_for(&csr);
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(64)))
            .batch_capacity(2)
            .build();
        let mut plan = engine.prepare(&csr);
        let r = plan.run_batch(&vec![x.clone(); 5]);
        assert!(r.verified);
        assert_eq!(r.vectors, 5);
        assert_eq!(r.ys.len(), 5);
    }

    /// The tentpole guarantee of the parallel shard executor: any worker
    /// count produces the exact serial result — same bytes, same cycle
    /// and traffic accounting, same per-shard detail — in both execution
    /// modes (the analytic replays fan out under the same setting).
    #[test]
    fn parallel_shard_execution_is_byte_identical_to_serial() {
        let csr = banded_fem(512, 8, 24, 11);
        let x = x_for(&csr);
        for mode in [ExecMode::CycleAccurate, ExecMode::Analytic] {
            let mut reference: Option<RunReport> = None;
            for workers in [1usize, 2, 4, 8] {
                let ctx = format!("{mode}, {workers} workers");
                let engine = SpmvEngine::builder()
                    .backend(BackendConfig::interleaved(4))
                    .system(SystemKind::Sharded {
                        units: 4,
                        strategy: PartitionStrategy::ByNnz,
                    })
                    .exec_mode(mode)
                    .shard_workers(workers)
                    .build();
                let mut plan = engine.prepare(&csr);
                let r = plan.run(&x);
                assert!(r.verified, "{ctx}: golden mismatch");
                match &reference {
                    None => reference = Some(r),
                    Some(serial) => {
                        assert_eq!(r.y_bits(), serial.y_bits(), "{ctx}");
                        assert_eq!(r.cycles, serial.cycles, "{ctx}");
                        assert_eq!(r.offchip_bytes, serial.offchip_bytes, "{ctx}");
                        let (d, ds) = (
                            r.shards().expect("sharded"),
                            serial.shards().expect("sharded"),
                        );
                        assert_eq!(d.gather_cycles, ds.gather_cycles, "{ctx}");
                        assert_eq!(d.collect_cycles, ds.collect_cycles, "{ctx}");
                        for (a, b) in d.per_shard.iter().zip(&ds.per_shard) {
                            assert_eq!(a.cycles, b.cycles, "{ctx}: shard {} drifted", a.shard);
                            assert_eq!(a.nnz, b.nnz);
                        }
                    }
                }
            }
        }
    }

    /// The one verification rule is bit equality with the value kernel: a
    /// simulated `y` one ulp off must fail `run` and a chunked `run_batch`
    /// (pack used to accept 1e-9 relative). Real plans verify, and their
    /// `ys` are the kernel's bits in either mode.
    #[test]
    fn verification_rejects_a_one_ulp_deviation() {
        use crate::replay::tests::{probe_plan, Fault};
        let csr = banded_fem(192, 6, 16, 4);
        let x = x_for(&csr);
        let mut probe = probe_plan(&csr, Fault::OneUlpOff).0;
        assert!(!probe.run(&x).verified, "run accepted a 1-ulp error");
        let batch = probe.run_batch(&vec![x.clone(); 3]).verified;
        assert!(!batch, "run_batch accepted a 1-ulp error");
        for system in [
            SystemKind::Base,
            SystemKind::Pack(AdapterConfig::mlp(64)),
            SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            },
        ] {
            for mode in [ExecMode::CycleAccurate, ExecMode::Analytic] {
                let mut plan = SpmvEngine::builder()
                    .system(system.clone())
                    .exec_mode(mode)
                    .build()
                    .prepare(&csr);
                let r = plan.run(&x);
                let kernel = plan.sys.value_kernel();
                assert!(r.verified, "{system}, {mode}");
                assert!(plan.replay.verifies(kernel, &x, r.y()), "{system}, {mode}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard worker")]
    fn zero_shard_workers_panics() {
        let _ = SpmvEngine::builder().shard_workers(0);
    }

    #[test]
    fn labels_follow_convention() {
        let csr = banded_fem(64, 4, 8, 1);
        let engine = SpmvEngine::builder().system(SystemKind::Base).build();
        assert_eq!(engine.prepare(&csr).label(), "base");
        let engine = SpmvEngine::builder()
            .system(SystemKind::Pack(AdapterConfig::mlp(64)))
            .build();
        assert_eq!(engine.prepare(&csr).label(), "pack64");
        let engine = SpmvEngine::builder()
            .backend(BackendConfig::interleaved(8))
            .system(SystemKind::Sharded {
                units: 2,
                strategy: PartitionStrategy::ByNnz,
            })
            .build();
        assert_eq!(engine.prepare(&csr).label(), "sharded x2 (pack256, hbm x8)");
    }
}
