//! The six workloads. Sizes are frozen in each module's constants: a
//! later change tunes the program, not the benchmark.

pub mod analytic;
pub mod cycle;
pub mod native;
pub mod service;
pub mod solve;

use crate::inputs::Mat;
use crate::metrics::{Better, Decl};
use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_system::{
    ExecMode, PartitionStrategy, RunReport, SpmvEngine, SpmvEngineBuilder, SystemKind,
};

/// Every engine the benchmark builds starts here. Worker counts are
/// always explicit — the reference box has two cores, so never more than
/// two runnable threads.
pub fn engine(system: SystemKind, backend: BackendConfig, mode: ExecMode) -> SpmvEngineBuilder {
    SpmvEngine::builder()
        .system(system)
        .backend(backend)
        .exec_mode(mode)
        .shard_workers(2)
}

pub fn pack256() -> SystemKind {
    SystemKind::Pack(AdapterConfig::mlp(256))
}

pub fn pack0() -> SystemKind {
    SystemKind::Pack(AdapterConfig::mlp_nc())
}

pub fn sharded4() -> SystemKind {
    SystemKind::Sharded {
        units: 4,
        strategy: PartitionStrategy::ByNnz,
    }
}

/// `true` iff the run verified inside the program and its result equals
/// golden `Csr::spmv` bit for bit.
pub fn run_ok(mat: &Mat, r: &RunReport) -> bool {
    r.verified && mat.matches(r.y())
}

/// A workload-specific simulated quantity: it must repeat exactly.
pub fn exact(name: &str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name: name.to_string(),
        unit,
        better,
        bound: Some(0.0),
    }
}
