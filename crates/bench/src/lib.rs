//! # nmpic-bench — experiment harness regenerating every paper table and
//! figure
//!
//! Every artifact (Table I, Figs. 3–6 and the extension studies) is one
//! row of [`REGISTRY`], and one binary runs them:
//!
//! ```text
//! cargo run --release -p nmpic-bench --bin experiments -- --list
//! cargo run --release -p nmpic-bench --bin experiments -- all | smoke | <name>...
//! ```
//!
//! `--list` prints the table (name, artifact, whether CI's bench-smoke
//! job runs it, what it reproduces). A run prints each result table,
//! writes `results/<stem>.csv` and `.json`, and exits non-zero if a
//! table is empty, holds a NaN/infinite cell, or fails its experiment's
//! own gates.
//!
//! Sweeps run their configuration points in parallel across CPU cores
//! ([`nmpic_sim::pool::parallel_map`]); each point is an independent
//! deterministic simulation.
//!
//! Scale control: experiments cap matrices at 150 000 nonzeros, or at
//! 20 000 with `NMPIC_QUICK=1`; worker
//! threads with `NMPIC_JOBS=<n>` (default: all cores)
//! ([`ExperimentOpts`]). Each experiment runs the fixed configurations
//! of the artifact it regenerates; no knob selects a system or mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod output;
pub mod timing;

pub use experiments::{
    batch_x, listing, select, Experiment, ExperimentOpts, Outcome, Section, REGISTRY,
};
pub use output::{f, Table};
pub use timing::WallClock;
