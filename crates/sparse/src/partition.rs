//! Row partitioning for multi-unit SpMV: split a matrix into K row
//! shards, one per indexing/coalescing unit.
//!
//! SparseP (Giannoula et al.) shows that **nnz-balanced** row
//! partitioning is the key lever for multi-unit SpMV scaling: equal row
//! counts leave units idle whenever row density is skewed, while equal
//! nonzero counts keep every unit's indirect stream the same length.
//! [`by_nnz`] implements the standard prefix-sum split (shard boundaries
//! at the row where the running nonzero count crosses `i·nnz/K`);
//! [`by_rows`] is the naive equal-row baseline kept for comparison.
//!
//! Shards are **views**: a [`CsrShard`] borrows the parent matrix's
//! `col_idx`/`values` arrays without copying, so partitioning a
//! matrix for K units costs O(rows) bookkeeping, not O(nnz) data
//! movement — exactly like handing each hardware unit a base pointer and
//! a length.
//!
//! # Example
//!
//! ```
//! use nmpic_sparse::{gen::banded_fem, partition};
//!
//! let csr = banded_fem(256, 6, 16, 1);
//! let p = partition::by_nnz(&csr, 4);
//! assert_eq!(p.shards(), 4);
//! // Shards are a disjoint exact cover of the rows...
//! assert_eq!(p.range(0).start, 0);
//! assert_eq!(p.range(3).end, csr.rows());
//! // ...and their nonzeros are balanced within one row of perfect.
//! assert!(p.nnz_imbalance() < 1.2);
//! ```

use std::ops::Range;

use crate::Csr;

/// A split of a matrix's rows into K contiguous shards.
///
/// Produced by [`by_rows`] or [`by_nnz`]; consumed by
/// [`Partition::csr_shard`] to obtain zero-copy per-shard views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shards + 1` row boundaries: shard `i` owns rows
    /// `boundaries[i]..boundaries[i + 1]`. Monotone, first 0, last `rows`.
    boundaries: Vec<usize>,
    /// Stored nonzeros per shard.
    nnz: Vec<u64>,
}

impl Partition {
    fn from_boundaries(csr: &Csr, boundaries: Vec<usize>) -> Self {
        debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        let nnz = boundaries
            .windows(2)
            .map(|w| (csr.row_ptr()[w[1]] - csr.row_ptr()[w[0]]) as u64)
            .collect();
        Self { boundaries, nnz }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Row range of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shards`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// Stored nonzeros of shard `i`.
    pub fn nnz(&self, i: usize) -> u64 {
        self.nnz[i]
    }

    /// Total nonzeros across all shards.
    pub fn total_nnz(&self) -> u64 {
        self.nnz.iter().sum()
    }

    /// Largest per-shard nonzero count.
    pub fn max_nnz(&self) -> u64 {
        self.nnz.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance `max / mean` of per-shard nonzeros, ≥ 1.0 (1.0 for
    /// an empty matrix — nothing to imbalance).
    pub fn nnz_imbalance(&self) -> f64 {
        let mut ext = nmpic_sim::stats::Extrema::new();
        for &n in &self.nnz {
            ext.add(n as f64);
        }
        ext.imbalance()
    }

    /// Zero-copy CSR view of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shards` or `csr` is not the matrix this partition
    /// was built from (row count mismatch).
    pub fn csr_shard<'a>(&self, csr: &'a Csr, i: usize) -> CsrShard<'a> {
        assert_eq!(
            // nmpic-lint: allow(L2) — invariant: every constructor pushes boundary 0 first, so the list is never empty
            *self.boundaries.last().expect("nonempty boundaries"),
            csr.rows(),
            "partition was built for a different matrix"
        );
        let rows = self.range(i);
        let lo = csr.row_ptr()[rows.start] as usize;
        let hi = csr.row_ptr()[rows.end] as usize;
        CsrShard {
            rows: rows.clone(),
            row_ptr: &csr.row_ptr()[rows.start..=rows.end],
            col_idx: &csr.col_idx()[lo..hi],
            values: &csr.values()[lo..hi],
            cols: csr.cols(),
        }
    }
}

/// Equal-row split: shard `i` gets `rows / k` rows (the first `rows % k`
/// shards get one extra). The baseline partitioner — blind to density.
///
/// **Degenerate shapes** follow the same convention as [`by_nnz`]:
/// `k > rows` leaves the surplus shards **trailing empty** (the extra
/// rows go to the lowest indices), a zero-row matrix yields `k` empty
/// shards, and a zero-nnz matrix compacts every (workless) row into
/// shard 0 exactly like `by_nnz` — consumers that walk units in order
/// see the same idle pattern whichever strategy built the partition.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn by_rows(csr: &Csr, k: usize) -> Partition {
    assert!(k > 0, "at least one shard");
    let rows = csr.rows();
    // Nothing to balance in a zero-nnz matrix: match `by_nnz`'s
    // degenerate handling (all rows in shard 0, empties trailing)
    // instead of spreading workless rows across every shard.
    if csr.nnz() == 0 {
        let mut boundaries = vec![rows; k + 1];
        boundaries[0] = 0;
        return Partition::from_boundaries(csr, boundaries);
    }
    let boundaries = (0..=k).map(|i| i * (rows / k) + i.min(rows % k)).collect();
    Partition::from_boundaries(csr, compact_trailing(boundaries, rows, k))
}

/// Nonzero-balanced split by prefix sums: boundary `i` is placed at the
/// first row whose running nonzero count reaches `i · nnz / k`, so every
/// shard's nonzero count is within one row of the perfect `nnz / k`.
///
/// **Balance bound**: because boundaries can only fall between rows, each
/// shard holds at most `ceil(nnz / k) + max_row_nnz` nonzeros (and at
/// least `floor(nnz / k) − max_row_nnz`, clamped to 0). The property test
/// in `crates/system/tests/partition.rs` pins this bound.
///
/// **Degenerate shapes** (`k > rows`, zero-row or zero-nnz matrices, hub
/// rows denser than `nnz / k`) cannot fill every shard; the unfillable
/// shards come back as **trailing empty shards** — the non-empty shards
/// always occupy the lowest indices, so consumers that walk units in
/// order stop doing work instead of skipping holes.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn by_nnz(csr: &Csr, k: usize) -> Partition {
    assert!(k > 0, "at least one shard");
    let rows = csr.rows();
    let row_ptr = csr.row_ptr();
    let total = csr.nnz() as u64;
    // Boundary `i` is the first row boundary where the prefix nonzero
    // count reaches `i · nnz / k`; row_ptr *is* the prefix-sum array.
    // The targets rise with `i` and never exceed `nnz`, so the
    // boundaries are monotone and at most `rows`.
    let mut boundaries: Vec<usize> = (0..k)
        .map(|i| {
            let target = total * i as u64 / k as u64;
            row_ptr.partition_point(|&p| (p as u64) < target)
        })
        .collect();
    boundaries.push(rows);
    // Degenerate shapes (k > rows, zero-nnz matrices, hub rows denser
    // than a whole shard's target) leave zero-length intervals scattered
    // through the boundary list — a zero-nnz matrix even put every row in
    // the *last* shard.
    Partition::from_boundaries(csr, compact_trailing(boundaries, rows, k))
}

/// Compacts the distinct boundaries of a monotone boundary list to the
/// front so the non-empty shards take the lowest indices and every empty
/// shard trails — the shared degenerate-shape convention of [`by_rows`]
/// and [`by_nnz`].
fn compact_trailing(boundaries: Vec<usize>, rows: usize, k: usize) -> Vec<usize> {
    let mut compact: Vec<usize> = Vec::with_capacity(k + 1);
    compact.push(0);
    for &b in &boundaries[1..] {
        // nmpic-lint: allow(L2) — invariant: `compact` is seeded with boundary 0 two lines up
        if b > *compact.last().expect("seeded with 0") {
            compact.push(b);
        }
    }
    compact.resize(k + 1, rows);
    compact
}

/// A zero-copy view of one CSR row shard.
///
/// `col_idx`/`values` borrow the parent matrix's arrays; `row_ptr` keeps
/// the parent's absolute offsets, and accessors rebase them, so no
/// per-shard arrays are materialized. A consumer of the shard's stream
/// finds each position's row by walking [`CsrShard::row_nnz`] in step
/// with the positions.
#[derive(Debug, Clone)]
pub struct CsrShard<'a> {
    rows: Range<usize>,
    /// Parent `row_ptr[rows.start..=rows.end]` — absolute offsets.
    row_ptr: &'a [u32],
    col_idx: &'a [u32],
    values: &'a [f64],
    cols: usize,
}

impl<'a> CsrShard<'a> {
    /// Global row range this shard owns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of rows in the shard.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Column count of the parent matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored nonzeros in the shard.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The shard's slice of the parent column-index array — the indirect
    /// stream this shard's unit gathers.
    pub fn col_idx(&self) -> &'a [u32] {
        self.col_idx
    }

    /// The shard's slice of the parent value array.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Nonzeros of local row `r` (0-based within the shard).
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banded_fem, circuit};

    /// The views of `p` cover `csr` exactly: consecutive row ranges abut
    /// from row 0 to `rows`, each view's `row_nnz` is the parent's over
    /// its range, and the views' streams laid end to end are the
    /// parent's `col_idx` and `values`.
    fn assert_views_cover(p: &Partition, csr: &Csr) {
        let (mut next, mut col_idx, mut values) = (0, Vec::new(), Vec::new());
        for i in 0..p.shards() {
            let s = p.csr_shard(csr, i);
            assert_eq!(s.rows().start, next, "shard {i} abuts the one before");
            for (r, row) in s.rows().enumerate() {
                assert_eq!(s.row_nnz(r), csr.row_nnz(row), "shard {i}, row {row}");
            }
            next = s.rows().end;
            col_idx.extend_from_slice(s.col_idx());
            values.extend(s.values().iter().map(|v| v.to_bits()));
        }
        assert_eq!(next, csr.rows(), "the last shard ends at the last row");
        assert_eq!(col_idx, csr.col_idx());
        let parent: Vec<u64> = csr.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(values, parent);
    }

    #[test]
    fn by_rows_splits_evenly() {
        let csr = banded_fem(10, 3, 8, 1);
        let p = by_rows(&csr, 3);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        assert_eq!(p.total_nnz(), csr.nnz() as u64);
    }

    #[test]
    fn by_nnz_balances_skewed_matrix() {
        // Circuit matrices have a few dense hub rows: equal-row splitting
        // is visibly imbalanced, nnz splitting is not.
        let csr = circuit(512, 4, 48, 0.08, 6, 3);
        let rows_p = by_rows(&csr, 4);
        let nnz_p = by_nnz(&csr, 4);
        assert!(nnz_p.nnz_imbalance() <= rows_p.nnz_imbalance() + 1e-12);
        let bound = csr.nnz() as u64 / 4 + csr.stats().max_row_nnz as u64 + 1;
        for i in 0..4 {
            assert!(
                nnz_p.nnz(i) <= bound,
                "shard {i}: {} > {bound}",
                nnz_p.nnz(i)
            );
        }
    }

    #[test]
    fn shards_cover_rows_exactly() {
        let csr = banded_fem(97, 5, 12, 2);
        for k in [1, 2, 3, 4, 7, 16, 200] {
            for p in [by_rows(&csr, k), by_nnz(&csr, k)] {
                assert_eq!(p.shards(), k);
                assert_eq!(p.range(0).start, 0);
                assert_eq!(p.range(k - 1).end, csr.rows());
                for i in 1..k {
                    assert_eq!(p.range(i - 1).end, p.range(i).start, "contiguous");
                }
                assert_eq!(p.total_nnz(), csr.nnz() as u64);
            }
        }
    }

    #[test]
    fn csr_shard_views_share_parent_storage() {
        let csr = banded_fem(64, 4, 10, 3);
        let p = by_nnz(&csr, 3);
        let mut total = 0;
        for i in 0..3 {
            let s = p.csr_shard(&csr, i);
            assert_eq!(s.nnz() as u64, p.nnz(i));
            total += s.nnz();
            // The view's arrays are literal subslices of the parent.
            let lo = csr.row_ptr()[s.rows().start] as usize;
            assert!(std::ptr::eq(s.col_idx().as_ptr(), &csr.col_idx()[lo]));
            assert!(std::ptr::eq(s.values().as_ptr(), &csr.values()[lo]));
        }
        assert_eq!(total, csr.nnz());
    }

    /// The sharded datapath's `y` is checked against the golden model
    /// by the engine; what it relies on here is that the shard views
    /// hand it every row and every nonzero once, in order.
    #[test]
    fn sharded_spmv_into_is_bit_identical_to_golden() {
        let csr = circuit(300, 3, 24, 0.1, 5, 9);
        for k in [1, 2, 4, 5] {
            assert_views_cover(&by_nnz(&csr, k), &csr);
            assert_views_cover(&by_rows(&csr, k), &csr);
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_trailing_empty_shards() {
        let csr = banded_fem(5, 2, 4, 1);
        let p = by_nnz(&csr, 8);
        assert_eq!(p.shards(), 8);
        assert_eq!(p.total_nnz(), csr.nnz() as u64);
        let empty = (0..8).filter(|&i| p.range(i).is_empty()).count();
        assert!(empty >= 3, "8 shards over 5 rows leaves ≥3 empty");
        // Empty shards trail: once a shard is empty, every later one is.
        assert_trailing_empties(&p);
        // Empty shards hold no rows and break nothing.
        assert_views_cover(&p, &csr);
    }

    fn assert_trailing_empties(p: &Partition) {
        let mut seen_empty = false;
        for i in 0..p.shards() {
            if p.range(i).is_empty() {
                seen_empty = true;
            } else {
                assert!(
                    !seen_empty,
                    "shard {i} is non-empty after an empty shard: empties must trail"
                );
            }
        }
    }

    /// Regression: a zero-nnz matrix used to put **all** rows in the last
    /// shard with every earlier shard empty; degenerate shapes now yield
    /// trailing empty shards, and empty `CsrShard` views are empty.
    #[test]
    fn degenerate_shapes_partition_with_trailing_empties() {
        // Zero nonzeros, nonzero rows.
        let z = Csr::from_parts(5, 5, vec![0; 6], vec![], vec![]).unwrap();
        // Zero rows entirely.
        let e = Csr::from_parts(0, 4, vec![0], vec![], vec![]).unwrap();
        // One hub row holding every nonzero (denser than any shard
        // target), plus an empty row.
        let hub = Csr::from_parts(2, 4, vec![0, 4, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        for csr in [&z, &e, &hub] {
            for k in [1usize, 2, 3, 8] {
                for p in [by_nnz(csr, k), by_rows(csr, k)] {
                    assert_eq!(p.shards(), k);
                    assert_eq!(p.range(0).start, 0);
                    assert_eq!(p.range(k - 1).end, csr.rows());
                    assert_eq!(p.total_nnz(), csr.nnz() as u64);
                    assert_trailing_empties(&p);
                    // Empty views hold nothing; together the views
                    // still cover every row and nonzero.
                    for i in (0..k).filter(|&i| p.range(i).is_empty()) {
                        let s = p.csr_shard(csr, i);
                        assert_eq!(s.nnz(), 0);
                        assert_eq!(s.n_rows(), 0);
                    }
                    assert_views_cover(&p, csr);
                }
            }
        }
        // The zero-nnz matrix specifically keeps its rows in shard 0 now.
        let p = by_nnz(&z, 3);
        assert_eq!(p.range(0), 0..5);
        assert!(p.range(1).is_empty() && p.range(2).is_empty());
        // Regression: `by_rows` used to spread a zero-nnz matrix's
        // workless rows across every shard while `by_nnz` compacted them
        // into shard 0; both strategies now share the convention.
        assert_eq!(by_rows(&z, 3), p);
        assert_eq!(by_rows(&z, 3).range(0), 0..5);
        assert_eq!(by_rows(&e, 4), by_nnz(&e, 4));
        // Imbalance metrics of all-empty shard sets stay finite.
        assert!(p.nnz_imbalance().is_finite());
        assert!(by_nnz(&e, 4).nnz_imbalance().is_finite());
    }

    #[test]
    fn imbalance_of_uniform_split_is_one() {
        let csr = banded_fem(128, 4, 8, 1); // uniform rows
        let p = by_nnz(&csr, 4);
        assert!(p.nnz_imbalance() < 1.05, "{}", p.nnz_imbalance());
        assert!(p.nnz_imbalance() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = by_nnz(&banded_fem(8, 2, 4, 1), 0);
    }
}
