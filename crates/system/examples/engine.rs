//! The session API end to end: build an engine, prepare a plan once,
//! run it against a batch of vectors, and compare the amortized cost
//! with the per-vector plan-rebuild path.
//!
//! Run with: `cargo run --release -p nmpic-system --example engine [matrix] [batch]`
//! e.g. `cargo run --release -p nmpic-system --example engine af_shell10 8`

use nmpic_core::AdapterConfig;
use nmpic_mem::BackendConfig;
use nmpic_sparse::{by_name, suite};
use nmpic_system::{golden_x, SpmvEngine, SystemKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "af_shell10".to_string());
    let batch: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    let Some(spec) = by_name(&name) else {
        eprintln!("unknown matrix `{name}`; available:");
        for s in suite() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(1);
    };
    let csr = spec.build_capped(60_000);
    println!(
        "{}: {} rows, {} nnz, batch {batch}",
        name,
        csr.rows(),
        csr.nnz()
    );

    // Build once: the memory backend and system kind are the session's
    // fixed choices.
    let engine = SpmvEngine::builder()
        .backend(BackendConfig::interleaved(8))
        .system(SystemKind::Pack(AdapterConfig::mlp(256)))
        .batch_capacity(batch.max(1))
        .build();

    // Prepare once per matrix: format conversion + DRAM layout happen
    // here; the plan keeps the matrix image resident in a warm backend.
    let mut plan = engine.prepare(&csr);

    // A batch of distinct input vectors.
    let xs: Vec<Vec<f64>> = (0..batch.max(1))
        .map(|b| {
            (0..csr.cols())
                .map(|i| golden_x(i) + b as f64 * 1e-3)
                .collect()
        })
        .collect();

    // The legacy path rebuilt everything per call; its per-vector cost is
    // one single-vector run on a fresh plan.
    let rebuild = engine.prepare(&csr).run(&xs[0]);
    // The session path runs the whole batch on the prepared plan.
    let batched = plan.run_batch(&xs);
    assert!(rebuild.verified && batched.verified);

    println!(
        "{:10}  {:>12} cycles/vector  {:6.2} GB/s  traffic {:4.2}x ideal",
        "rebuild",
        format!("{:.0}", rebuild.cycles_per_vector()),
        rebuild.gbps(),
        rebuild.traffic_ratio(),
    );
    println!(
        "{:10}  {:>12} cycles/vector  {:6.2} GB/s  traffic {:4.2}x ideal  amortization {:.2}x",
        format!("batch B={batch}"),
        format!("{:.0}", batched.cycles_per_vector()),
        batched.gbps(),
        batched.traffic_ratio(),
        batched.speedup_over(&rebuild),
    );
}
