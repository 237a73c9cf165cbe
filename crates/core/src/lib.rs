//! # nmpic-core — the AXI-Pack indirect stream unit with parallel request
//! coalescing
//!
//! This crate is the paper's primary contribution: a near-memory adapter
//! that translates AXI-Pack **indirect burst requests** (gather `count`
//! narrow elements through an index array) into bandwidth-efficient
//! sequences of wide 512 b DRAM accesses, exploiting both
//! **memory-level parallelism** (N parallel index lanes) and
//! **coalescence** (a W-entry request window merged against a single
//! coalescer status holding register).
//!
//! Structure (paper Fig. 2):
//!
//! * [`AdapterConfig`] — Table I parameters and the three variants
//!   (`MLPnc`, `MLPx`, `SEQx`).
//! * [`Coalescer`] — the request coalescer: upsizer, regulator, request
//!   watcher + CSHR, hitmap/offsets metadata queues, response splitter,
//!   downsizer.
//! * [`IndirectStreamUnit`] — the full unit: index fetcher, index
//!   splitter, element request generator, coalescer, element packer, and
//!   the DRAM arbiter. Also serves AXI-Pack contiguous and strided bursts.
//! * [`run_indirect_stream`] — the ideal-requestor harness that generates
//!   the paper's Fig. 3/Fig. 4 metrics and verifies gathered data against
//!   a golden model.
//! * [`ScatterUnit`] — the write-direction companion of the unit: scatters
//!   packed elements through an index array, merging consecutive writes
//!   to one block into a masked wide write (`nmpic_system`'s sharded
//!   engine writes its merged result with it).
//!
//! # Example
//!
//! ```
//! use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
//!
//! // A highly local index stream: the coalescer merges most accesses.
//! let indices: Vec<u32> = (0..512).map(|k| (k / 8) % 64).collect();
//! let result = run_indirect_stream(
//!     &AdapterConfig::mlp(256), &indices, 64, &StreamOptions::default());
//! assert!(result.verified);
//! assert!(result.coalesce_rate > 1.0, "blocks are reused");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_table;
mod coalescer;
mod config;
mod harness;
mod request;
mod scatter;
mod traffic;
mod unit;

pub use coalescer::{Coalescer, CoalescerStats};
pub use config::{AdapterConfig, CoalescerMode};
pub use harness::{
    golden_element, run_indirect_stream, stream_memory_size, StreamOptions, StreamResult,
};
pub use request::{ElemOut, ElemRequest};
pub use scatter::{ScatterRequest, ScatterStats, ScatterUnit};
pub use traffic::{CoalescerTrafficModel, TrafficCounts};
pub use unit::{AdapterStats, BeginError, IndirectStreamUnit};
