//! Host cost of the coalescer model is proportional to events, not to W.
//!
//! `CoalescerStats::slots_examined` counts every window slot the model's
//! regulator, watcher and response splitter look at. It is deterministic,
//! so this bound holds on any machine: on the benchmark's two index
//! streams (`fem`: banded, local; `circuit`: hub rows and far couplings)
//! at W = 256, the count stays within `C × (requests_coalesced +
//! W × windows_opened)` — a window costs O(W) once, a cycle O(hits).
//!
//! The model this one replaced walked the whole window at least three
//! times in every cycle a window was active (hit check, miss check,
//! oldest-miss search). Every wide request is issued in a distinct such
//! cycle, so it examined at least `3 W × wide_requests` slots; the test
//! also checks that this floor lies above the bound, i.e. that `C` is
//! tight enough to reject a W-per-cycle algorithm.

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_sparse::{gen, Csr};

const W: u64 = 256;
const C: u64 = 3;

/// The benchmark's `fem` and `circuit` generators (`benchmark/…/inputs.rs`)
/// at about 20k nonzeros each.
fn streams() -> [(&'static str, Csr); 2] {
    [
        ("fem", gen::banded_fem(1600, 12, 200, 1)),
        ("circuit", gen::circuit(3400, 5, 64, 0.1, 16, 1)),
    ]
}

#[test]
fn slots_examined_is_proportional_to_requests_and_windows() {
    for (name, csr) in streams() {
        let r = run_indirect_stream(
            &AdapterConfig::mlp(256),
            csr.col_idx(),
            csr.cols(),
            &StreamOptions::default(),
        );
        assert!(r.verified, "{name}: gather mismatch");
        let s = r.coalescer.expect("MLP256 has a coalescer");
        assert_eq!(s.requests_coalesced, csr.nnz() as u64, "{name}");
        let bound = C * (s.requests_coalesced + W * s.windows_opened);
        assert!(
            s.slots_examined <= bound,
            "{name}: examined {} slots, bound {bound} ({s:?})",
            s.slots_examined
        );
        let per_cycle_floor = 3 * W * s.wide_requests;
        assert!(
            per_cycle_floor > 4 * bound,
            "{name}: a 3W-per-active-cycle model (>= {per_cycle_floor}) would pass the bound {bound}"
        );
    }
}
