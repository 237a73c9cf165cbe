//! Compressed sparse row (CSR) format and the golden SpMV model.

use crate::FormatError;

/// Rows the CSR kernel sums side by side, each into its own accumulator
/// (see [`Csr::spmv_into`]). Chosen by direct timing: two beat four.
const ROW_GROUP: usize = 2;

/// A sparse matrix in compressed sparse row form.
///
/// CSR is the paper's first storage format (Fig. 1): `row_ptr[i]` delimits
/// the nonzeros of row `i` in `col_idx`/`values`. Indices are 32 b and
/// values 64 b, matching the paper's evaluation configuration.
///
/// `Csr::spmv` is the **golden model**: every simulated SpMV result in the
/// workspace is checked against it.
///
/// # Example
///
/// ```
/// use nmpic_sparse::Csr;
/// // [[1, 0], [2, 3]]
/// let m = Csr::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(m.spmv(&[10.0, 100.0]), vec![10.0, 320.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Assembles a CSR matrix from raw arrays, validating the invariants.
    ///
    /// # Errors
    ///
    /// * [`FormatError::BadRowPtr`] — wrong length, non-monotone, or final
    ///   entry disagreeing with `col_idx.len()`.
    /// * [`FormatError::LengthMismatch`] — `col_idx` and `values` differ.
    /// * [`FormatError::IndexOutOfRange`] — a column index ≥ `cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, FormatError> {
        if row_ptr.len() != rows + 1 || row_ptr.first() != Some(&0) {
            return Err(FormatError::BadRowPtr);
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::BadRowPtr);
        }
        let Some(&nnz) = row_ptr.last() else {
            return Err(FormatError::BadRowPtr);
        };
        if nnz as usize != col_idx.len() {
            return Err(FormatError::BadRowPtr);
        }
        if col_idx.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                col_idx: col_idx.len(),
                values: values.len(),
            });
        }
        for (k, &c) in col_idx.iter().enumerate() {
            if c as usize >= cols {
                let row = (row_ptr.partition_point(|&p| p as usize <= k) - 1) as u64;
                return Err(FormatError::IndexOutOfRange {
                    row,
                    col: c.into(),
                    rows,
                    cols,
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The column index array — this is the index stream the AXI-Pack
    /// indirect burst consumes for CSR SpMV.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The nonzero values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Number of nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// Golden sparse matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// [`Csr::spmv`] into a caller-preallocated buffer, on the calling
    /// thread and without allocating.
    ///
    /// Rows are summed two at a time, each into its own accumulator
    /// starting at `+0.0`: the pair walks its rows' common prefix in
    /// lockstep, so one row's gathers need not wait on the other row's
    /// adds, then finishes each row's tail in order. Every row is still
    /// summed left to right, so `y` carries exactly the bits of a
    /// one-row-at-a-time loop.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        assert_eq!(y.len(), self.rows, "output length must equal rows");
        self.spmv_rows(0, x, y);
    }

    /// Parallel [`Csr::spmv_into`]: **byte-identical** to it, with rows
    /// processed in disjoint blocks on the shared work pool
    /// (`nmpic_sim::pool`, bounded by `NMPIC_JOBS`). Every worker runs
    /// the same row-group kernel on its own `y` slice, so the output does
    /// not depend on the worker count.
    ///
    /// A native throughput reference: the engine computes values with
    /// the serial, allocation-free [`Csr::spmv_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_fast_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_fast_into_jobs(nmpic_sim::pool::parallel_jobs(), x, y);
    }

    /// [`Csr::spmv_fast_into`] with an explicit worker count, for callers
    /// carrying their own parallelism knob (and for pinning the
    /// byte-identity guarantee at every worker count in tests).
    /// `jobs <= 1` runs serially on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_fast_into_jobs(&self, jobs: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        assert_eq!(y.len(), self.rows, "output length must equal rows");
        let block = self.rows.div_ceil(jobs.max(1)).max(1);
        let tasks: Vec<(usize, &mut [f64])> = y
            .chunks_mut(block)
            .enumerate()
            .map(|(b, chunk)| (b * block, chunk))
            .collect();
        nmpic_sim::pool::parallel_map_jobs(jobs, tasks, |(row0, chunk)| {
            self.spmv_rows(row0, x, chunk);
        });
    }

    /// Rows `row0..row0 + y.len()` of `A·x` into `y`: whole groups of
    /// `ROW_GROUP` rows, then the leftover rows one at a time.
    fn spmv_rows(&self, row0: usize, x: &[f64], y: &mut [f64]) {
        let mut groups = y.chunks_exact_mut(ROW_GROUP);
        let mut row = row0;
        for out in &mut groups {
            self.row_group::<ROW_GROUP>(row, x, out);
            row += ROW_GROUP;
        }
        for out in groups.into_remainder().chunks_exact_mut(1) {
            self.row_group::<1>(row, x, out);
            row += 1;
        }
    }

    /// The one CSR row loop: rows `row0..row0 + G` into `out`, each from
    /// `+0.0` and left to right. The rows' common prefix is walked in
    /// lockstep, one nonzero of each row per step, then each tail.
    #[inline(always)]
    fn row_group<const G: usize>(&self, row0: usize, x: &[f64], out: &mut [f64]) {
        let ptr = &self.row_ptr[row0..=row0 + G];
        let rows: [(&[u32], &[f64]); G] = std::array::from_fn(|j| {
            let (lo, hi) = (ptr[j] as usize, ptr[j + 1] as usize);
            (&self.col_idx[lo..hi], &self.values[lo..hi])
        });
        let common = rows.iter().map(|(c, _)| c.len()).min().unwrap_or(0);
        let heads = rows.map(|(c, v)| (&c[..common], &v[..common]));
        let mut acc = [0.0f64; G];
        for k in 0..common {
            for (a, (c, v)) in acc.iter_mut().zip(&heads) {
                *a += v[k] * x[c[k] as usize];
            }
        }
        for (a, (c, v)) in acc.iter_mut().zip(&rows) {
            for (&c, &v) in c[common..].iter().zip(&v[common..]) {
                *a += v * x[c as usize];
            }
        }
        out.copy_from_slice(&acc);
    }

    /// A 64-bit content fingerprint: dimensions, nonzero count and an
    /// FNV-1a hash over the structure (`row_ptr`, `col_idx`) and value
    /// bits. Two matrices with equal fingerprints are, for serving
    /// purposes, the same matrix — `SpmvService` keys its plan cache on
    /// this, so a tenant resubmitting a matrix reuses the resident DRAM
    /// image instead of re-preparing a plan.
    ///
    /// The hash covers raw `f64` bit patterns, so `0.0` vs `-0.0` and
    /// NaN payloads all distinguish matrices — anything that could change
    /// simulated results changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.rows as u64).to_le_bytes());
        eat(&(self.cols as u64).to_le_bytes());
        eat(&(self.nnz() as u64).to_le_bytes());
        for &p in &self.row_ptr {
            eat(&p.to_le_bytes());
        }
        for &c in &self.col_idx {
            eat(&c.to_le_bytes());
        }
        for &v in &self.values {
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// `true` iff the matrix equals its transpose **exactly**: square,
    /// and every stored entry `(i, j, v)` is mirrored by `(j, i, v)`
    /// with bit-identical value (so `0.0` vs `-0.0` or differing NaN
    /// payloads count as asymmetric — the same strictness as
    /// [`Csr::fingerprint`]). Duplicate entries are compared as
    /// multisets, and explicit zeros must be mirrored too.
    ///
    /// Conjugate-gradient solvers require a symmetric (positive
    /// definite) matrix; this is the cheap structural half of that
    /// precondition, O(nnz log nnz) and allocation-bounded by two
    /// triplet arrays.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        // 64 b triplet keys: `rows` is a usize that can legally exceed the
        // 32 b index width (row_ptr only bounds the nonzero count), and a
        // wrapped row key would let an asymmetric matrix sort as symmetric.
        let mut fwd: Vec<(u64, u64, u64)> = Vec::with_capacity(self.nnz());
        let mut rev: Vec<(u64, u64, u64)> = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (c, v) in self.row(i) {
                fwd.push((i as u64, c.into(), v.to_bits()));
                rev.push((c.into(), i as u64, v.to_bits()));
            }
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        fwd == rev
    }

    /// Structural statistics used for reporting and generator calibration.
    pub fn stats(&self) -> CsrStats {
        let mut max_row = 0usize;
        let mut min_row = usize::MAX;
        let mut bandwidth_sum = 0u64;
        let mut max_bandwidth = 0u64;
        for i in 0..self.rows {
            let n = self.row_nnz(i);
            max_row = max_row.max(n);
            min_row = min_row.min(n);
            for (c, _) in self.row(i) {
                let d = (c as i64 - i as i64).unsigned_abs();
                bandwidth_sum += d;
                max_bandwidth = max_bandwidth.max(d);
            }
        }
        if self.rows == 0 {
            min_row = 0;
        }
        CsrStats {
            rows: self.rows,
            cols: self.cols,
            nnz: self.nnz(),
            avg_row_nnz: self.nnz() as f64 / self.rows.max(1) as f64,
            max_row_nnz: max_row,
            min_row_nnz: min_row,
            avg_bandwidth: bandwidth_sum as f64 / self.nnz().max(1) as f64,
            max_bandwidth,
        }
    }
}

/// Summary statistics of a CSR matrix's structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrStats {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Maximum nonzeros in any row.
    pub max_row_nnz: usize,
    /// Minimum nonzeros in any row.
    pub min_row_nnz: usize,
    /// Mean |col − row| over nonzeros — a locality proxy.
    pub avg_bandwidth: f64,
    /// Maximum |col − row|.
    pub max_bandwidth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_sim::SimRng;

    fn small() -> Csr {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        Csr::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn spmv_matches_dense_math() {
        let m = small();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn row_iteration() {
        let m = small();
        let r0: Vec<_> = m.row(0).collect();
        assert_eq!(r0, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row_nnz(1), 1);
    }

    #[test]
    fn rejects_bad_row_ptr() {
        assert!(matches!(
            Csr::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]),
            Err(FormatError::BadRowPtr)
        ));
        assert!(matches!(
            Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(FormatError::BadRowPtr)
        ));
        assert!(matches!(
            Csr::from_parts(2, 2, vec![1, 1, 1], vec![], vec![]),
            Err(FormatError::BadRowPtr)
        ));
    }

    #[test]
    fn rejects_col_out_of_range() {
        let err = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]);
        assert!(matches!(
            err,
            Err(FormatError::IndexOutOfRange { row: 1, col: 5, .. })
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(matches!(
            Csr::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0]),
            Err(FormatError::LengthMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn spmv_wrong_vector_length_panics() {
        small().spmv(&[1.0]);
    }

    #[test]
    fn stats_reflect_structure() {
        let m = small();
        let s = m.stats();
        assert_eq!(s.nnz, 5);
        assert_eq!(s.max_row_nnz, 2);
        assert_eq!(s.min_row_nnz, 1);
        assert!((s.avg_row_nnz - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_bandwidth, 2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = Csr::from_parts(3, 3, vec![0, 0, 1, 1], vec![2], vec![9.0]).unwrap();
        assert_eq!(m.spmv(&[0.0, 0.0, 2.0]), vec![0.0, 18.0, 0.0]);
    }

    #[test]
    fn is_symmetric_detects_exact_transposition() {
        // [[2, 1, 0], [1, 3, 0], [0, 0, 4]] — symmetric.
        let s = Csr::from_parts(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 0, 1, 2],
            vec![2.0, 1.0, 1.0, 3.0, 4.0],
        )
        .unwrap();
        assert!(s.is_symmetric());
        // Perturbing one mirrored value breaks it.
        let a = Csr::from_parts(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 0, 1, 2],
            vec![2.0, 1.0, 1.5, 3.0, 4.0],
        )
        .unwrap();
        assert!(!a.is_symmetric());
        // Structural asymmetry (entry without its mirror) breaks it.
        let t = Csr::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 5.0, 1.0]).unwrap();
        assert!(!t.is_symmetric());
        // Non-square is never symmetric; value strictness sees -0.0.
        assert!(!Csr::from_parts(1, 2, vec![0, 1], vec![0], vec![1.0])
            .unwrap()
            .is_symmetric());
        let z = Csr::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.0, -0.0]).unwrap();
        assert!(!z.is_symmetric(), "-0.0 mirror is not bit-identical");
    }

    #[test]
    fn spmv_fast_is_byte_identical_to_golden() {
        // Row lengths 0..=9 put every prefix/tail split inside a row
        // group; values and x entries are "ugly" floats so any
        // reassociation would show.
        let rows = 37;
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..rows {
            let n = i % 10;
            for _ in 0..n {
                col_idx.push((next() % rows as u64) as u32);
                values.push(1.0 / (1 + next() % 97) as f64);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let m = Csr::from_parts(rows, rows, row_ptr, col_idx, values).unwrap();
        let x: Vec<f64> = (0..rows).map(|i| 0.3 + i as f64 * 1e-3).collect();
        let golden = m.spmv(&x);
        for jobs in [1usize, 2, 4, 8] {
            let mut y = vec![f64::NAN; rows];
            m.spmv_fast_into_jobs(jobs, &x, &mut y);
            let same = golden
                .iter()
                .zip(&y)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "jobs={jobs} must be byte-identical to golden");
        }
        let mut y = vec![f64::NAN; rows];
        m.spmv_fast_into(&x, &mut y);
        let same = golden
            .iter()
            .zip(&y)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
    }

    /// The row loop of the golden model before rows were grouped: one
    /// row at a time, one accumulator from `+0.0`, left to right.
    fn row_at_a_time(m: &Csr, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        for (i, out) in y.iter_mut().enumerate() {
            let lo = m.row_ptr()[i] as usize;
            let hi = m.row_ptr()[i + 1] as usize;
            let mut acc = 0.0;
            for k in lo..hi {
                acc += m.values()[k] * x[m.col_idx()[k] as usize];
            }
            *out = acc;
        }
        y
    }

    /// First index whose bits differ, a NaN matching any NaN (payloads
    /// of NaN operands need not survive an add in a fixed order).
    fn first_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
        assert_eq!(got.len(), want.len());
        got.iter()
            .zip(want)
            .position(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()))
    }

    /// A value for a matrix or `x`: mostly finite with random mantissas
    /// and exponents spread over ±8 binary orders (products span 32,
    /// inside one 53 b mantissa, so no term simply absorbs the rest and
    /// summing a row in another order changes its bits); now and then
    /// NaN, ±inf, −0.0 or a subnormal.
    fn ugly(rng: &mut SimRng) -> f64 {
        match rng.gen_usize(0, 100) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / (1u64 << rng.gen_usize(1, 52)) as f64,
            _ => {
                let mag = (1.0 + rng.gen_f64()) * 2f64.powi(rng.gen_usize(0, 17) as i32 - 8);
                if rng.gen_usize(0, 2) == 0 {
                    mag
                } else {
                    -mag
                }
            }
        }
    }

    /// A seeded `rows` × `cols` matrix: short rows, empty rows (inside
    /// groups too) and now and then a hub row far longer than its
    /// neighbours. `dense` 0 gives no nonzeros at all.
    fn grouped_case(rng: &mut SimRng, rows: usize, cols: usize, dense: usize) -> Csr {
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        for _ in 0..rows {
            let width = match rng.gen_usize(0, 10) {
                _ if dense == 0 => 0,
                0 | 1 => 0,
                2 => rng.gen_usize(20, 60),
                _ => rng.gen_usize(1, dense + 1),
            };
            col_idx.extend((0..width).map(|_| rng.gen_usize(0, cols) as u32));
            row_ptr.push(col_idx.len() as u32);
        }
        let values = (0..col_idx.len()).map(|_| ugly(rng)).collect();
        Csr::from_parts(rows, cols, row_ptr, col_idx, values).unwrap()
    }

    /// Differential test of the row-group kernel (the golden model)
    /// against the row-at-a-time loop it replaced: every row count
    /// modulo the group size, zero rows, zero nonzeros, empty rows and
    /// hub rows inside groups, 1×n and n×1 shapes, through
    /// `spmv_into`, `spmv` and `spmv_fast_into_jobs`.
    #[test]
    fn row_groups_match_the_row_at_a_time_loop() {
        let mut rng = SimRng::new(44);
        let mut cases = Vec::new();
        for rows in 0..=4 * ROW_GROUP + 3 {
            for dense in [0, 3, 12] {
                for _ in 0..8 {
                    let cols = rng.gen_usize(1, 40);
                    cases.push(grouped_case(&mut rng, rows, cols, dense));
                }
            }
        }
        for n in [1, 2, 3, 7, 40] {
            cases.push(grouped_case(&mut rng, 1, n, 12));
            cases.push(grouped_case(&mut rng, n, 1, 3));
        }
        for _ in 0..4 {
            cases.push(grouped_case(&mut rng, 97, 64, 12));
        }
        let mut order_sensitive = 0;
        let mut eligible = 0;
        for (case, m) in cases.iter().enumerate() {
            let x: Vec<f64> = (0..m.cols()).map(|_| ugly(&mut rng)).collect();
            let want = row_at_a_time(m, &x);
            let shape = format!("case {case} ({}×{})", m.rows(), m.cols());
            let mut y = vec![f64::NAN; m.rows()];
            m.spmv_into(&x, &mut y);
            assert_eq!(first_mismatch(&y, &want), None, "{shape}: spmv_into");
            assert_eq!(first_mismatch(&m.spmv(&x), &want), None, "{shape}: spmv");
            for jobs in [1, 2, 3] {
                let mut y = vec![f64::NAN; m.rows()];
                m.spmv_fast_into_jobs(jobs, &x, &mut y);
                let at = first_mismatch(&y, &want);
                assert_eq!(at, None, "{shape}: spmv_fast_into_jobs({jobs})");
            }
            // The data is wide enough that another summation order shows:
            // count the rows whose reversed sum has other bits.
            for (i, &w) in want.iter().enumerate() {
                if m.row_nnz(i) < 3 || !w.is_finite() {
                    continue;
                }
                let row: Vec<(u32, f64)> = m.row(i).collect();
                let reversed = row
                    .iter()
                    .rev()
                    .fold(0.0, |acc, &(c, v)| acc + v * x[c as usize]);
                eligible += 1;
                order_sensitive += usize::from(reversed.to_bits() != w.to_bits());
            }
        }
        // Reversing a row changes its bits in over a third of the rows
        // with three or more finite terms.
        assert!(
            eligible > 400 && 3 * order_sensitive > eligible,
            "{order_sensitive} order-sensitive rows of {eligible}"
        );
    }

    #[test]
    fn spmv_fast_handles_degenerate_shapes() {
        let empty = Csr::from_parts(0, 3, vec![0], vec![], vec![]).unwrap();
        empty.spmv_fast_into(&[1.0, 2.0, 3.0], &mut []);
        let m = Csr::from_parts(3, 3, vec![0, 0, 1, 1], vec![2], vec![9.0]).unwrap();
        let mut y = vec![f64::NAN; 3];
        m.spmv_fast_into(&[0.0, 0.0, 2.0], &mut y);
        assert_eq!(y, vec![0.0, 18.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn spmv_fast_into_wrong_output_length_panics() {
        let mut y = vec![0.0; 1];
        small().spmv_fast_into(&[1.0, 2.0, 3.0], &mut y);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let m = small();
        assert_eq!(m.fingerprint(), m.clone().fingerprint(), "deterministic");
        // Any content perturbation — a value, an index, or just the
        // dimensions — moves the fingerprint.
        let mut vals = m.values().to_vec();
        vals[0] += 1.0;
        let v = Csr::from_parts(3, 3, m.row_ptr().to_vec(), m.col_idx().to_vec(), vals).unwrap();
        assert_ne!(m.fingerprint(), v.fingerprint());
        let wider = Csr::from_parts(
            3,
            4,
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_ne!(m.fingerprint(), wider.fingerprint());
        // Sign-of-zero is content: -0.0 and 0.0 are different matrices.
        let z0 = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![0.0]).unwrap();
        let z1 = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![-0.0]).unwrap();
        assert_ne!(z0.fingerprint(), z1.fingerprint());
    }
}
