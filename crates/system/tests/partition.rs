//! Property tests for the row partitioner and the sharded engine
//! (hand-rolled, seeded — the workspace has no proptest):
//!
//! 1. `by_nnz` / `by_rows` partitions are a **disjoint exact cover** of
//!    the rows for arbitrary matrices and shard counts;
//! 2. per-shard nonzeros respect the documented balance bound
//!    `ceil(nnz/K) + max_row_nnz`;
//! 3. sharded SpMV output is **byte-identical** to the single-unit path
//!    on every memory backend.

use nmpic_mem::BackendConfig;
use nmpic_sim::SimRng;
use nmpic_sparse::partition::{by_nnz, by_rows, Partition};
use nmpic_sparse::{Coo, Csr};
use nmpic_system::{golden_x, PartitionStrategy, RunReport, SpmvEngine, SystemKind};

/// Runs the sharded engine on `csr` with the given unit count, strategy
/// and backend, through the session API.
fn run_sharded(
    csr: &Csr,
    units: usize,
    strategy: PartitionStrategy,
    backend: &BackendConfig,
) -> RunReport {
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    SpmvEngine::builder()
        .backend(backend.clone())
        .system(SystemKind::Sharded { units, strategy })
        .build()
        .prepare(csr)
        .run(&x)
}

/// A random sparse matrix with skewed row densities (a few hub rows),
/// the shape that separates nnz balancing from row balancing.
fn arb_matrix(rng: &mut SimRng) -> Csr {
    let rows = rng.gen_u64(1, 200) as usize;
    let cols = rng.gen_u64(1, 200) as usize;
    let mut coo = Coo::new(rows, cols);
    let entries = rng.gen_u64(0, 600);
    for _ in 0..entries {
        // ~1 in 8 entries lands in a hub row (the first few rows).
        let r = if rng.gen_u64(0, 8) == 0 {
            rng.gen_u64(0, (rows as u64).min(3))
        } else {
            rng.gen_u64(0, rows as u64)
        } as u32;
        let c = rng.gen_u64(0, cols as u64) as u32;
        let v = rng.gen_u64(0, 400) as i64 - 200;
        coo.push(r, c, v as f64 * 0.125);
    }
    coo.to_csr()
}

fn assert_disjoint_exact_cover(p: &Partition, csr: &Csr, k: usize, seed: u64) {
    assert_eq!(p.shards(), k, "seed {seed}");
    // Contiguous, monotone, starting at row 0 and ending at `rows`:
    // together that makes the shards disjoint and exactly covering.
    assert_eq!(p.range(0).start, 0, "seed {seed}");
    assert_eq!(p.range(k - 1).end, csr.rows(), "seed {seed}");
    for i in 1..k {
        assert_eq!(
            p.range(i - 1).end,
            p.range(i).start,
            "seed {seed}, gap at {i}"
        );
    }
    // Every row is owned by exactly one shard, and shard nnz counts are
    // consistent with the rows they own.
    let mut owner = vec![usize::MAX; csr.rows()];
    for i in 0..k {
        for r in p.range(i) {
            assert_eq!(owner[r], usize::MAX, "seed {seed}: row {r} owned twice");
            owner[r] = i;
        }
        let rows_nnz: usize = p.range(i).map(|r| csr.row_nnz(r)).sum();
        assert_eq!(p.nnz(i), rows_nnz as u64, "seed {seed}, shard {i}");
    }
    assert!(
        owner.iter().all(|&o| o != usize::MAX),
        "seed {seed}: unowned row"
    );
    assert_eq!(p.total_nnz(), csr.nnz() as u64, "seed {seed}");
}

#[test]
fn partitions_are_disjoint_exact_covers() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(seed + 0x5EED);
        let csr = arb_matrix(&mut rng);
        for k in [1usize, 2, 3, 4, 7, 8, 13] {
            assert_disjoint_exact_cover(&by_nnz(&csr, k), &csr, k, seed);
            assert_disjoint_exact_cover(&by_rows(&csr, k), &csr, k, seed);
        }
    }
}

/// Degenerate shapes — `k` far beyond the row count, zero-nnz matrices,
/// single-row matrices — still produce disjoint exact covers whose empty
/// shards all trail the non-empty ones, and the `CsrShard` views, empty
/// ones included, abut and carry the parent's row lengths.
#[test]
fn degenerate_partitions_cover_with_trailing_empties() {
    let zero_nnz = Csr::from_parts(7, 3, vec![0; 8], vec![], vec![]).unwrap();
    let zero_rows = Csr::from_parts(0, 3, vec![0], vec![], vec![]).unwrap();
    let single_row =
        Csr::from_parts(1, 4, vec![0, 3], vec![0, 2, 3], vec![1.0, -2.0, 0.5]).unwrap();
    let mut rng = SimRng::new(0xDE9E);
    let random = arb_matrix(&mut rng);
    for (name, csr) in [
        ("zero_nnz", &zero_nnz),
        ("zero_rows", &zero_rows),
        ("single_row", &single_row),
        ("random", &random),
    ] {
        for k in [1usize, 2, 5, 16, 64] {
            for p in [by_nnz(csr, k), by_rows(csr, k)] {
                assert_disjoint_exact_cover(&p, csr, k, 0);
                let mut seen_empty = false;
                for i in 0..k {
                    if p.range(i).is_empty() {
                        seen_empty = true;
                    } else {
                        assert!(!seen_empty, "{name} k={k}: empty shard {i} not trailing");
                    }
                }
                // The views, empty ones included, abut and carry the
                // parent's row lengths over their ranges.
                let mut next = 0;
                for i in 0..k {
                    let s = p.csr_shard(csr, i);
                    assert_eq!(s.rows().start, next, "{name} k={k}: shard {i} abuts");
                    for (r, row) in s.rows().enumerate() {
                        assert_eq!(s.row_nnz(r), csr.row_nnz(row), "{name} k={k}: row {row}");
                    }
                    next = s.rows().end;
                }
                assert_eq!(next, csr.rows(), "{name} k={k}");
            }
        }
    }
}

/// Regression (ISSUE 5): `by_rows` never received PR 4's degenerate
/// hardening — a zero-nnz matrix kept workless rows spread across every
/// shard while `by_nnz` compacted them into shard 0. Both strategies now
/// share the convention on every degenerate input: `k > rows` and
/// zero-row inputs trail their empty shards, and zero-nnz inputs produce
/// **identical** partitions (all rows in shard 0).
#[test]
fn by_rows_shares_by_nnz_degenerate_convention() {
    let zero_nnz = Csr::from_parts(9, 4, vec![0; 10], vec![], vec![]).unwrap();
    let zero_rows = Csr::from_parts(0, 4, vec![0], vec![], vec![]).unwrap();
    let tiny = Csr::from_parts(3, 3, vec![0, 1, 1, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
    for k in [1usize, 2, 3, 8, 40] {
        // Zero-nnz: the two strategies agree exactly (this is the case
        // that failed before the fix — by_rows spread the rows).
        let r = by_rows(&zero_nnz, k);
        assert_eq!(r, by_nnz(&zero_nnz, k), "k={k}");
        assert_eq!(r.range(0), 0..9, "k={k}: all rows compact into shard 0");
        for i in 1..k {
            assert!(r.range(i).is_empty(), "k={k}: shard {i} must trail empty");
        }
        // Zero rows: k empty shards for both.
        assert_eq!(by_rows(&zero_rows, k), by_nnz(&zero_rows, k), "k={k}");
        // k > rows: surplus shards trail for both strategies.
        for p in [by_rows(&tiny, k), by_nnz(&tiny, k)] {
            assert_disjoint_exact_cover(&p, &tiny, k, 0);
            let first_empty = (0..k).find(|&i| p.range(i).is_empty());
            if let Some(e) = first_empty {
                assert!(
                    (e..k).all(|i| p.range(i).is_empty()),
                    "k={k}: empties must trail from shard {e}"
                );
            }
        }
    }
}

/// The sharded engine tolerates unit counts beyond the row count: the
/// surplus units own trailing empty shards, simulate nothing, and the
/// merged result stays byte-identical to the single-unit path.
#[test]
fn engine_tolerates_more_units_than_rows() {
    let csr =
        Csr::from_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.5, -0.25, 4.0]).unwrap();
    let backend = BackendConfig::hbm();
    let single = run_sharded(&csr, 1, PartitionStrategy::ByNnz, &backend);
    assert!(single.verified);
    for units in [4usize, 8] {
        let r = run_sharded(&csr, units, PartitionStrategy::ByNnz, &backend);
        assert!(r.verified, "x{units}");
        assert_eq!(r.y_bits(), single.y_bits(), "x{units}");
        let detail = r.shards().expect("sharded detail");
        assert_eq!(detail.per_shard.len(), units);
        let idle = detail.per_shard.iter().filter(|s| s.nnz == 0).count();
        assert!(idle >= units - 3, "x{units}: surplus units must sit idle");
        // Idle shards report zeros, not NaN.
        for s in &detail.per_shard {
            assert!(s.indir_gbps.is_finite());
        }
    }
}

#[test]
fn by_nnz_respects_the_documented_balance_bound() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(seed + 0xBA1A);
        let csr = arb_matrix(&mut rng);
        let max_row = csr.stats().max_row_nnz as u64;
        for k in [2usize, 3, 4, 8] {
            let p = by_nnz(&csr, k);
            let bound = (csr.nnz() as u64).div_ceil(k as u64) + max_row;
            for i in 0..k {
                assert!(
                    p.nnz(i) <= bound,
                    "seed {seed}, k={k}, shard {i}: {} nnz exceeds bound {bound} \
                     (total {}, max row {max_row})",
                    p.nnz(i),
                    csr.nnz()
                );
            }
            // The imbalance metric agrees with the raw counts.
            assert!(p.nnz_imbalance() >= 1.0, "seed {seed}");
        }
    }
}

/// Sharded SpMV must produce the same bytes as the single-unit path on
/// every backend the factory can build, for every partitioning strategy.
#[test]
fn sharded_spmv_bytes_match_single_unit_on_every_backend() {
    let mut rng = SimRng::new(0xC0FE);
    for case in 0..4u64 {
        let csr = {
            // Reroll until the matrix is non-empty (the engine rejects
            // matrices with no nonzeros).
            let mut m = arb_matrix(&mut rng);
            while m.nnz() == 0 {
                m = arb_matrix(&mut rng);
            }
            m
        };
        for backend in [
            BackendConfig::ideal(),
            BackendConfig::hbm(),
            BackendConfig::interleaved(4),
            BackendConfig::interleaved(8),
        ] {
            let single = run_sharded(&csr, 1, PartitionStrategy::ByNnz, &backend);
            assert!(single.verified, "case {case}, {}", backend.label());
            for units in [2usize, 4] {
                for strategy in [PartitionStrategy::ByNnz, PartitionStrategy::ByRows] {
                    let sharded = run_sharded(&csr, units, strategy, &backend);
                    assert!(
                        sharded.verified,
                        "case {case}, {} x{units} {strategy:?}: golden mismatch",
                        backend.label()
                    );
                    assert_eq!(
                        sharded.y_bits(),
                        single.y_bits(),
                        "case {case}, {} x{units} {strategy:?}: bytes diverged",
                        backend.label()
                    );
                }
            }
        }
    }
}
