//! # nmpic-system — end-to-end SpMV system models
//!
//! Four entry points: [`SpmvEngine`] (memory backend + [`SystemKind`],
//! built once), [`SpmvPlan`] (one per matrix, from
//! [`SpmvEngine::prepare`]), [`SpmvService`] (many tenants over one
//! engine) and [`Solver`] (iterative methods over one plan). The rest of
//! this crate's surface is their argument and return types. Preparing a
//! plan does partitioning, format conversion and DRAM layout once; the
//! plan then runs against as many vectors as the workload brings
//! ([`SpmvPlan::run`], [`SpmvPlan::run_batch`]), and every run returns
//! the same unified [`RunReport`].
//!
//! Three system kinds, covering the paper's Fig. 5 comparison plus the
//! multi-unit extension:
//!
//! * [`SystemKind::Pack`] — the AXI-Pack system (Section II-C): CVA6+Ara
//!   VPC with a 384 kB double-buffered L2 scratchpad and a prefetcher
//!   issuing AXI-Pack bursts through the coalescing adapter (`pack0` /
//!   `pack64` / `pack256` by adapter choice).
//! * [`SystemKind::Base`] — the baseline: the same VPC behind a 1 MiB
//!   LLC, executing naive CSR SpMV with coupled indirect access.
//! * [`SystemKind::Sharded`] — K indexing/coalescing units over an
//!   nnz-balanced row partition of a multi-channel backend, merged
//!   through one coalescing scatter unit.
//!
//! Iterative workloads — where SpMV actually dominates — run through
//! [`Solver`]: conjugate gradient and (damped) power iteration drive the
//! zero-realloc [`SpmvPlan::run_into`] hot path hundreds of times
//! against one resident plan, accumulating per-iteration simulated
//! cycles and traffic into a [`SolveReport`].
//!
//! For serving many tenants, [`SpmvService`] wraps the engine with a
//! fingerprint-keyed plan cache, sharded per-tenant submission lanes
//! (`submit`/`submit_solve` → [`Ticket`] → `take`/`wait`), a background
//! batching drain with per-lane fairness, lock-free statistics, and
//! p50/p99/p999 tail-latency accounting — plus parallel shard execution
//! on the shared `NMPIC_JOBS` work pool.
//!
//! # Example
//!
//! ```
//! use nmpic_core::AdapterConfig;
//! use nmpic_sparse::gen::banded_fem;
//! use nmpic_system::{golden_x, SpmvEngine, SystemKind};
//!
//! let csr = banded_fem(256, 6, 16, 1);
//! let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
//! let mut base = SpmvEngine::builder().system(SystemKind::Base).build().prepare(&csr);
//! let mut pack = SpmvEngine::builder()
//!     .system(SystemKind::Pack(AdapterConfig::mlp(256)))
//!     .build()
//!     .prepare(&csr);
//! let b = base.run(&x);
//! let p = pack.run(&x);
//! assert!(b.verified && p.verified);
//! assert!(p.speedup_over(&b) > 1.0, "pack must beat the baseline");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod cost;
mod engine;
mod pack;
mod replay;
mod report;
mod service;
mod shard;
mod solve;

pub use base::BaseConfig;
pub use cost::PINNED_REL_TOL;
pub use engine::{ExecMode, SpmvEngine, SpmvEngineBuilder, SpmvPlan, SystemKind};
pub use pack::PackConfig;
pub use report::{golden_x, IterReport, RunReport, ShardDetail};
pub use service::{
    Clock, Completed, CompletedSolve, LatencySnapshot, LogicalClock, MatrixKey, ServiceBuilder,
    ServiceError, ServiceStats, SolveRequest, SpmvService, Ticket, RESULT_RETENTION_FACTOR,
};
pub use shard::{PartitionStrategy, ShardReport};
pub use solve::{SolveOptions, SolveReport, Solver};
