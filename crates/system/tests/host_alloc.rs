//! Heap allocations per warm `run_into`, pinned as exact counts.
//!
//! DESIGN.md's rule is that nothing on a tick path allocates. This test
//! makes the rule a number: a counting global allocator counts the
//! allocations (and reallocations) the calling thread makes during one
//! `run_into` on a plan that has already run twice, for every
//! {base, pack0, pack256, sharded4} × {ideal, hbm, hbm x8} plan. That
//! first `run_into` is simulated on every system. Sharded plans use
//! `shard_workers(1)`, so every shard runs on the calling thread and is
//! counted. The baseline is also measured on a matrix four times larger:
//! its count must not change, so no allocation scales with the number of
//! nonzeros.
//!
//! The `replay` rows measure a replayed pass of the pack and sharded
//! plans (see *Replay* on `SpmvPlan::run_into`): the native kernel must
//! allocate nothing. Debug builds also simulate every replayed pass to
//! check it, which allocates exactly what the simulated pass of the same
//! plan does, so there the row is the replayed pass's count minus that.
//!
//! A second table pins a warm *analytic* `run_into` of base, pack256 and
//! sharded4 on ideal and hbm x8, the value kernel included (it is serial
//! and allocates nothing). pack256 is measured on matrices of one, two
//! and six tiles and must count the same on all of them: the coalescer
//! traffic model is built once per pass, not once per tile and vector.
//!
//! On a mismatch the failure message prints the measured rows in source
//! form, so a deliberate change re-pins by copy and paste.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::gen::banded_fem;
use nmpic_sparse::Csr;
use nmpic_system::{golden_x, ExecMode, PartitionStrategy, SpmvEngine, SystemKind};

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without
    /// a destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down, when
    // nothing is being measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`] plus a per-thread allocation counter.
struct Counting;

// The repository's only `unsafe`, confined to this test binary (the
// `#![forbid(unsafe_code)]` roots cover the library crates); a global
// allocator cannot be written without it.
//
// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements the `GlobalAlloc` contract, and returns what `System`
// returned; the only extra work is bumping a thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: our caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: our caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; our caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(system, rows of the banded_fem matrix, backend, allocations)`.
type Row = (&'static str, usize, &'static str, u64);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("base", 1536, "ideal", 4),
    ("base", 1536, "hbm", 4),
    ("base", 1536, "hbm x8", 4),
    ("pack0", 1536, "ideal", 40),
    ("pack0", 1536, "hbm", 40),
    ("pack0", 1536, "hbm x8", 40),
    ("pack256", 1536, "ideal", 42),
    ("pack256", 1536, "hbm", 42),
    ("pack256", 1536, "hbm x8", 42),
    ("sharded4", 1536, "ideal", 16),
    ("sharded4", 1536, "hbm", 16),
    ("sharded4", 1536, "hbm x8", 16),
    ("base", 6144, "ideal", 4),
    ("base", 6144, "hbm", 4),
    ("base", 6144, "hbm x8", 4),
    ("pack0 replay", 1536, "ideal", 0),
    ("pack0 replay", 1536, "hbm", 0),
    ("pack0 replay", 1536, "hbm x8", 0),
    ("pack256 replay", 1536, "ideal", 0),
    ("pack256 replay", 1536, "hbm", 0),
    ("pack256 replay", 1536, "hbm x8", 0),
    ("sharded4 replay", 1536, "ideal", 0),
    ("sharded4 replay", 1536, "hbm", 0),
    ("sharded4 replay", 1536, "hbm x8", 0),
];

const SYSTEMS: [&str; 4] = ["base", "pack0", "pack256", "sharded4"];
const BACKENDS: [&str; 3] = ["ideal", "hbm", "hbm x8"];

fn system_kind(name: &str) -> SystemKind {
    match name {
        "base" => SystemKind::Base,
        "pack0" => SystemKind::Pack(AdapterConfig::mlp_nc()),
        "pack256" => SystemKind::Pack(AdapterConfig::mlp(256)),
        "sharded4" => SystemKind::Sharded {
            units: 4,
            strategy: PartitionStrategy::ByNnz,
        },
        other => panic!("unknown system '{other}'"),
    }
}

fn backend(name: &str) -> BackendConfig {
    match name {
        "ideal" => BackendConfig::ideal(),
        "hbm" => BackendConfig::hbm(),
        "hbm x8" => BackendConfig::interleaved(8),
        other => panic!("unknown backend '{other}'"),
    }
}

/// Allocations of the calling thread while `f` runs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of the first `run_into` after two `run`s on a fresh plan
/// (simulated), and of the second replayed `run_into` after it, if the
/// plan replays.
fn warm_allocs(system: &str, csr: &Csr, backend_name: &str) -> (u64, Option<u64>) {
    let engine = SpmvEngine::builder()
        .backend(backend(backend_name))
        .system(system_kind(system))
        .shard_workers(1)
        .build();
    let mut plan = engine.prepare(csr);
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let mut y = vec![0.0; csr.rows()];
    plan.run(&x);
    plan.run(&x);
    let simulated = allocs(|| {
        plan.run_into(&x, &mut y);
    });
    plan.run_into(&x, &mut y);
    let replayed = allocs(|| {
        plan.run_into(&x, &mut y);
    });
    if plan.replayed_passes() == 0 {
        return (simulated, None);
    }
    assert_eq!(plan.replayed_passes(), 2, "{system} on {backend_name}");
    let check = if cfg!(debug_assertions) { simulated } else { 0 };
    let replay = replayed.checked_sub(check).unwrap_or_else(|| {
        panic!("{system} on {backend_name}: the debug check allocated {replayed}, a simulated pass {simulated}")
    });
    (simulated, Some(replay))
}

/// `(system, rows of the banded_fem matrix, backend, allocations)` of
/// a warm analytic `run_into`. pack256 runs on a one-tile (512 rows), a
/// two-tile (1536) and a six-tile (6144) matrix: its count must not
/// depend on the number of tiles.
#[rustfmt::skip]
const ANALYTIC_PINNED: &[Row] = &[
    ("base", 1536, "ideal", 2),
    ("base", 1536, "hbm x8", 2),
    ("pack256", 1536, "ideal", 1),
    ("pack256", 1536, "hbm x8", 1),
    ("sharded4", 1536, "ideal", 0),
    ("sharded4", 1536, "hbm x8", 0),
    ("pack256", 512, "ideal", 1),
    ("pack256", 512, "hbm x8", 1),
    ("pack256", 6144, "ideal", 1),
    ("pack256", 6144, "hbm x8", 1),
];

/// Allocations of the first `run_into` after two `run`s on a fresh
/// analytic plan (analytic plans never replay).
fn warm_analytic_allocs(system: &str, csr: &Csr, backend_name: &str) -> u64 {
    let engine = SpmvEngine::builder()
        .backend(backend(backend_name))
        .system(system_kind(system))
        .exec_mode(ExecMode::Analytic)
        .shard_workers(1)
        .build();
    let mut plan = engine.prepare(csr);
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let mut y = vec![0.0; csr.rows()];
    plan.run(&x);
    plan.run(&x);
    let n = allocs(|| {
        plan.run_into(&x, &mut y);
    });
    assert_eq!(plan.replayed_passes(), 0, "{system} on {backend_name}");
    n
}

#[test]
fn warm_analytic_run_into_allocations_match_the_pinned_table() {
    let mut measured: Vec<(&str, usize, &str, u64)> = Vec::new();
    for (system, rows) in [
        ("base", 1536),
        ("pack256", 1536),
        ("sharded4", 1536),
        ("pack256", 512),
        ("pack256", 6144),
    ] {
        let csr = banded_fem(rows, 8, 48, 12);
        for b in ["ideal", "hbm x8"] {
            measured.push((system, rows, b, warm_analytic_allocs(system, &csr, b)));
        }
    }
    let rows: Vec<String> = measured
        .iter()
        .map(|(s, r, b, n)| format!("    ({s:?}, {r}, {b:?}, {n}),"))
        .collect();
    assert!(
        measured.iter().copied().eq(ANALYTIC_PINNED.iter().copied()),
        "allocations per warm analytic run_into drifted; measured rows:\n{}",
        rows.join("\n")
    );
    for b in ["ideal", "hbm x8"] {
        let pack = |rows| {
            measured
                .iter()
                .find(|m| (m.0, m.1, m.2) == ("pack256", rows, b))
                .map(|m| m.3)
        };
        assert_eq!(
            pack(512),
            pack(6144),
            "pack256 on {b}: allocations must not scale with the number of tiles"
        );
    }
}

#[test]
fn warm_run_into_allocations_match_the_pinned_table() {
    let mut measured: Vec<(String, usize, &str, u64)> = Vec::new();
    let mut replays = Vec::new();
    for rows in [1536, 6144] {
        let csr = banded_fem(rows, 8, 48, 12);
        for system in SYSTEMS {
            if rows != 1536 && system != "base" {
                continue;
            }
            for b in BACKENDS {
                let (simulated, replay) = warm_allocs(system, &csr, b);
                measured.push((system.to_string(), rows, b, simulated));
                if let Some(n) = replay {
                    replays.push((format!("{system} replay"), rows, b, n));
                }
            }
        }
    }
    measured.extend(replays);
    let rows: Vec<String> = measured
        .iter()
        .map(|(s, r, b, n)| format!("    ({s:?}, {r}, {b:?}, {n}),"))
        .collect();
    assert!(
        measured
            .iter()
            .map(|(s, r, b, n)| (s.as_str(), *r, *b, *n))
            .eq(PINNED.iter().copied()),
        "allocations per warm run_into drifted; measured rows:\n{}",
        rows.join("\n")
    );
    for b in BACKENDS {
        let base = |rows| {
            measured
                .iter()
                .find(|m| (m.0.as_str(), m.1, m.2) == ("base", rows, b))
        };
        assert_eq!(
            base(1536).map(|m| m.3),
            base(6144).map(|m| m.3),
            "base on {b}: allocations must not scale with nnz"
        );
    }
}
