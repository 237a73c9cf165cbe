//! Sliced ELLPACK (SELL) format with the paper's 32-row slices.

use std::ops::Range;

use crate::{Csr, FormatError};

/// Slice height used throughout the paper's evaluation (32 rows per slice).
pub const DEFAULT_SLICE_HEIGHT: usize = 32;

/// A sparse matrix in sliced ELLPACK (SELL) form.
///
/// Rows are grouped into slices of `slice_height` rows; within a slice all
/// rows are padded to the widest row, and entries are stored
/// **column-major** within the slice (all first-nonzeros of the 32 rows,
/// then all second-nonzeros, ...). This is the layout a vector processor
/// consumes with unit-stride loads of 32-element groups, and the layout
/// whose `col_idx` array forms the indirect stream in the paper's SELL
/// SpMV experiments.
///
/// Padding entries use column 0 and value 0.0. They occupy slots in the
/// index stream (and coalesce perfectly, since they all hit block 0 of
/// the vector) but contribute nothing to the result: [`Sell::spmv`] skips
/// them by row length, so a non-finite `x[0]` cannot leak into a row
/// through `0.0 * x[0]`. A consumer of the stream learns each entry's
/// row, and skips padding, through [`Sell::walk`].
///
/// # Example
///
/// ```
/// use nmpic_sparse::{Csr, Sell};
/// let csr = Csr::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
/// let sell = Sell::from_csr(&csr, 2);
/// assert_eq!(sell.nnz(), 3);
/// assert_eq!(sell.padded_len(), 4); // slice width 2 × 2 rows
/// assert_eq!(sell.spmv(&[10.0, 100.0]), csr.spmv(&[10.0, 100.0]));
/// // Positions 0, 1 and 3 hold rows 0, 1 and 1; 2 is row 0's padding.
/// let mut seen = Vec::new();
/// sell.walk(0..4, |pos, row| seen.push((pos, row)));
/// assert_eq!(seen, [(0, 0), (1, 1), (3, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sell {
    rows: usize,
    cols: usize,
    slice_height: usize,
    /// Element offset of each slice's data; `slice_ptr[s+1] - slice_ptr[s]`
    /// is `slice_height * width(s)`.
    slice_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Stored nonzeros of each row: in its slice, positions
    /// `j >= row_len[r]` of row `r` are padding.
    row_len: Vec<u32>,
    nnz: usize,
}

impl Sell {
    /// Converts a CSR matrix to SELL with the given slice height.
    ///
    /// # Panics
    ///
    /// Panics if `slice_height` is zero, or if the padded layout would
    /// overflow the 32 b slice-pointer offsets (see
    /// [`Sell::try_from_csr`] for the error-returning variant).
    pub fn from_csr(csr: &Csr, slice_height: usize) -> Self {
        match Self::try_from_csr(csr, slice_height) {
            Ok(sell) => sell,
            // nmpic-lint: allow(L2) — documented panic: from_csr advertises this in its Panics section; try_from_csr is the error-returning variant
            Err(e) => panic!("CSR to SELL conversion failed: {e}"),
        }
    }

    /// Converts a CSR matrix to SELL with the given slice height,
    /// checking that the padded entry count fits the 32 b slice-pointer
    /// offsets **before** allocating any data array.
    ///
    /// SELL pads every row of a slice to the widest row, so the stored
    /// entry count can exceed the nonzero count by orders of magnitude
    /// (one dense row in a tall slice pads the whole slice to its
    /// width). The former `as u32` casts silently truncated
    /// `slice_ptr` in that regime, producing a structurally corrupt
    /// matrix; this constructor rejects it with a typed error instead.
    ///
    /// # Errors
    ///
    /// [`FormatError::TooManyEntries`] when the padded layout needs more
    /// than `u32::MAX` entries.
    ///
    /// # Panics
    ///
    /// Panics if `slice_height` is zero.
    pub fn try_from_csr(csr: &Csr, slice_height: usize) -> Result<Self, FormatError> {
        assert!(slice_height > 0, "slice height must be nonzero");
        let rows = csr.rows();
        let n_slices = rows.div_ceil(slice_height);

        // Structure-only pre-pass: the padded size is known from the row
        // widths alone, so the overflow check costs O(rows) and runs
        // before the O(padded) allocation below.
        let mut padded: u64 = 0;
        for s in 0..n_slices {
            let r0 = s * slice_height;
            let r1 = (r0 + slice_height).min(rows);
            let width = (r0..r1).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
            padded += width as u64 * slice_height as u64;
        }
        if padded > u32::MAX as u64 {
            return Err(FormatError::TooManyEntries { entries: padded });
        }

        let mut slice_ptr = Vec::with_capacity(n_slices + 1);
        slice_ptr.push(0u32);
        let mut col_idx = Vec::with_capacity(padded as usize);
        let mut values = Vec::with_capacity(padded as usize);

        for s in 0..n_slices {
            let r0 = s * slice_height;
            let r1 = (r0 + slice_height).min(rows);
            let width = (r0..r1).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
            // Column-major within the slice: position j of every row.
            for j in 0..width {
                for r in r0..r0 + slice_height {
                    if r < rows && j < csr.row_nnz(r) {
                        let lo = csr.row_ptr()[r] as usize;
                        col_idx.push(csr.col_idx()[lo + j]);
                        values.push(csr.values()[lo + j]);
                    } else {
                        // Padding: column 0, value 0.
                        col_idx.push(0);
                        values.push(0.0);
                    }
                }
            }
            // nmpic-lint: allow(L2) — invariant: the structure-only pre-pass above rejected any padded size past u32::MAX before allocation
            slice_ptr.push(u32::try_from(col_idx.len()).expect("checked by the pre-pass"));
        }

        Ok(Self {
            rows,
            cols: csr.cols(),
            slice_height,
            slice_ptr,
            col_idx,
            values,
            row_len: csr.row_ptr().windows(2).map(|w| w[1] - w[0]).collect(),
            nnz: csr.nnz(),
        })
    }

    /// Converts with the paper's default 32-row slices.
    pub fn from_csr_default(csr: &Csr) -> Self {
        Self::from_csr(csr, DEFAULT_SLICE_HEIGHT)
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows per slice.
    pub fn slice_height(&self) -> usize {
        self.slice_height
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// True (unpadded) nonzero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total stored entries including padding — the length of the indirect
    /// index stream for SELL SpMV.
    pub fn padded_len(&self) -> usize {
        self.col_idx.len()
    }

    /// `padded_len / nnz`, ≥ 1; a measure of SELL storage overhead.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_len() as f64 / self.nnz as f64
        }
    }

    /// The slice pointer array (element offsets, `n_slices + 1` entries).
    pub fn slice_ptr(&self) -> &[u32] {
        &self.slice_ptr
    }

    /// The padded, slice-major column-index array — the indirect stream.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The padded value array, same layout as [`Sell::col_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Width (padded nonzeros per row) of slice `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_slices`.
    pub fn slice_width(&self, s: usize) -> usize {
        let span = (self.slice_ptr[s + 1] - self.slice_ptr[s]) as usize;
        span / self.slice_height
    }

    /// Visits the stream `positions` in order, calling `visit(pos, row)`
    /// for each stored entry and skipping padding. Position
    /// `slice_ptr[s] + j·h + lane` holds entry `j` of row `s·h + lane`;
    /// code outside this file learns that only through this walk.
    ///
    /// # Panics
    ///
    /// Panics if `positions` ends past [`Sell::padded_len`].
    pub fn walk(&self, positions: Range<usize>, mut visit: impl FnMut(usize, usize)) {
        assert!(positions.end <= self.padded_len(), "walk past the stream");
        let h = self.slice_height;
        let (mut pos, mut s) = (positions.start, self.complete_slices(positions.start));
        while pos < positions.end {
            let base = self.slice_ptr[s] as usize;
            let stop = positions.end.min(self.slice_ptr[s + 1] as usize);
            let r0 = s * h;
            // A partial last slice has fewer rows than lanes.
            let lens = &self.row_len[r0..(r0 + h).min(self.rows)];
            let (mut j, mut lane) = ((pos - base) / h, (pos - base) % h);
            for p in pos..stop {
                if lens.get(lane).is_some_and(|&len| j < len as usize) {
                    visit(p, r0 + lane);
                }
                lane += 1;
                if lane == h {
                    (j, lane) = (j + 1, 0);
                }
            }
            (pos, s) = (stop, s + 1);
        }
    }

    /// Rows whose every stream position lies before `pos`: the rows of
    /// the slices that end at or before it.
    pub fn complete_rows(&self, pos: usize) -> usize {
        (self.complete_slices(pos) * self.slice_height).min(self.rows)
    }

    /// Slices that end at or before stream position `pos`.
    fn complete_slices(&self, pos: usize) -> usize {
        self.slice_ptr[1..].partition_point(|&end| end as usize <= pos)
    }

    /// SpMV over the SELL layout, bit-identical to [`Csr::spmv`] for
    /// every `x`: each row accumulates its stored entries in CSR order
    /// from `+0.0`, and padding is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// [`Sell::spmv`] into a caller-preallocated buffer (overwritten, not
    /// accumulated into); allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        assert_eq!(y.len(), self.rows, "output length must equal rows");
        y.fill(0.0);
        // A padding entry adds `0.0 * x[0]`: ±0.0 for a finite `x[0]`,
        // which leaves a sum that started at +0.0 bit for bit unchanged,
        // so the length test is paid only when `x[0]` is not finite.
        let skip_padding = !x.first().is_some_and(|v| v.is_finite());
        let h = self.slice_height;
        for s in 0..self.n_slices() {
            let rows = s * h..((s + 1) * h).min(self.rows);
            let lens = &self.row_len[rows.clone()];
            let y = &mut y[rows];
            let base = self.slice_ptr[s] as usize;
            for j in 0..self.slice_width(s) {
                let col = base + j * h..base + j * h + y.len();
                let entries = self.values[col.clone()].iter().zip(&self.col_idx[col]);
                if skip_padding {
                    for ((y, (&a, &c)), &len) in y.iter_mut().zip(entries).zip(lens) {
                        if j < len as usize {
                            *y += a * x[c as usize];
                        }
                    }
                } else {
                    for (y, (&a, &c)) in y.iter_mut().zip(entries) {
                        *y += a * x[c as usize];
                    }
                }
            }
        }
    }

    /// Validates internal invariants (used by property tests).
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] describing the first violated invariant.
    pub fn try_validate(&self) -> Result<(), FormatError> {
        if self.slice_ptr.first() != Some(&0)
            || self.slice_ptr.windows(2).any(|w| w[0] > w[1])
            || *self.slice_ptr.last().unwrap_or(&0) as usize != self.col_idx.len()
        {
            return Err(FormatError::BadRowPtr);
        }
        if self.row_len.len() != self.rows {
            return Err(FormatError::BadRowPtr);
        }
        if self.col_idx.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                col_idx: self.col_idx.len(),
                values: self.values.len(),
            });
        }
        for s in 0..self.n_slices() {
            let span = (self.slice_ptr[s + 1] - self.slice_ptr[s]) as usize;
            if !span.is_multiple_of(self.slice_height) {
                return Err(FormatError::BadRowPtr);
            }
            let r0 = s * self.slice_height;
            let lens = &self.row_len[r0..(r0 + self.slice_height).min(self.rows)];
            if lens.iter().any(|&len| len as usize > self.slice_width(s)) {
                return Err(FormatError::BadRowPtr);
            }
        }
        for &c in &self.col_idx {
            if c as usize >= self.cols {
                return Err(FormatError::IndexOutOfRange {
                    row: 0,
                    col: c.into(),
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmpic_sim::SimRng;

    fn sample() -> Csr {
        // 5 rows, widths 2,1,3,0,1 — exercises padding and a short slice.
        Csr::from_parts(
            5,
            6,
            vec![0, 2, 3, 6, 6, 7],
            vec![0, 3, 1, 0, 2, 5, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn sell_spmv_matches_csr() {
        let csr = sample();
        // The second vector's x[0] = inf must not reach the padded rows
        // through `0.0 * x[0]`.
        for x in [
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [f64::INFINITY, 2.0, 3.0, 4.0, 5.0, 6.0],
        ] {
            for h in [1, 2, 3, 4, 32] {
                let sell = Sell::from_csr(&csr, h);
                assert_eq!(sell.spmv(&x), csr.spmv(&x), "slice height {h}, {x:?}");
                sell.try_validate().unwrap();
            }
        }
    }

    #[test]
    fn slice_geometry() {
        let csr = sample();
        let sell = Sell::from_csr(&csr, 2);
        // Slices: rows {0,1} width 2, rows {2,3} width 3, row {4} width 1.
        assert_eq!(sell.n_slices(), 3);
        assert_eq!(sell.slice_width(0), 2);
        assert_eq!(sell.slice_width(1), 3);
        assert_eq!(sell.slice_width(2), 1);
        assert_eq!(sell.padded_len(), 2 * 2 + 3 * 2 + 2);
        assert_eq!(sell.nnz(), 7);
    }

    #[test]
    fn column_major_layout_within_slice() {
        let csr = sample();
        let sell = Sell::from_csr(&csr, 2);
        // Slice 0 (rows 0,1; width 2), column-major:
        //   j=0: row0 col0, row1 col1 ; j=1: row0 col3, row1 pad(0).
        assert_eq!(&sell.col_idx()[0..4], &[0, 1, 3, 0]);
        assert_eq!(&sell.values()[0..4], &[1.0, 3.0, 2.0, 0.0]);
    }

    #[test]
    fn padding_ratio_one_for_uniform_rows() {
        let csr =
            Csr::from_parts(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3], vec![1.0; 4]).unwrap();
        let sell = Sell::from_csr(&csr, 2);
        assert!((sell.padding_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_slice_shorter_than_height() {
        let csr = sample();
        let sell = Sell::from_csr(&csr, 4);
        // 5 rows with height 4 → 2 slices; second slice has 1 real row.
        assert_eq!(sell.n_slices(), 2);
        let x = [1.0; 6];
        assert_eq!(sell.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn default_height_is_32() {
        let csr = sample();
        let sell = Sell::from_csr_default(&csr);
        assert_eq!(sell.slice_height(), 32);
    }

    /// A structure-only shape whose **padded** size just crosses the 32 b
    /// offset limit: 2^20 rows in one 2^20-tall slice, where a single
    /// 4096-wide row pads the whole slice to 4096 × 2^20 = 2^32 entries.
    /// The CSR itself holds only 4096 nonzeros — nothing near 4 billion
    /// entries is ever allocated.
    fn just_over_the_edge() -> Csr {
        let rows = 1usize << 20;
        let width = 4096usize;
        let mut row_ptr = vec![width as u32; rows + 1];
        row_ptr[0] = 0;
        let col_idx: Vec<u32> = (0..width as u32).collect();
        let values = vec![1.0; width];
        Csr::from_parts(rows, width, row_ptr, col_idx, values).unwrap()
    }

    /// Regression: `from_csr` used to truncate `slice_ptr` through
    /// `as u32` once padding pushed the entry count past `u32::MAX`,
    /// silently producing a corrupt layout. The checked conversion now
    /// rejects the shape before allocating anything.
    #[test]
    fn padded_overflow_is_a_typed_error_not_truncation() {
        let csr = just_over_the_edge();
        let err = Sell::try_from_csr(&csr, 1 << 20).unwrap_err();
        assert_eq!(
            err,
            FormatError::TooManyEntries {
                entries: 1u64 << 32
            }
        );
        assert!(err.to_string().contains("32 b offset limit"));
        // The same matrix converts fine with a slice height that keeps
        // the padding bounded (4096-entry slices → 4096 × 4096 entries
        // for the dense slice, 0 for the empty ones).
        let ok = Sell::try_from_csr(&csr, 4096).unwrap();
        assert_eq!(ok.nnz(), 4096);
        assert_eq!(ok.padded_len(), 4096 * 4096);
        ok.try_validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "32 b offset limit")]
    fn from_csr_panics_instead_of_truncating() {
        let _ = Sell::from_csr(&just_over_the_edge(), 1 << 20);
    }

    /// Reference for [`Sell::walk`]: the row of every padded position
    /// (`None` for padding), placed row by row from the layout rule.
    fn row_map(sell: &Sell) -> Vec<Option<usize>> {
        let mut map = vec![None; sell.padded_len()];
        let h = sell.slice_height();
        for r in 0..sell.rows() {
            let first = sell.slice_ptr()[r / h] as usize + r % h;
            for j in 0..sell.row_len[r] as usize {
                map[first + j * h] = Some(r);
            }
        }
        map
    }

    /// Reference for [`Sell::complete_rows`]: the leading rows whose
    /// slices all end at or before `pos`, scanned from slice 0.
    fn complete_rows(sell: &Sell, pos: usize) -> usize {
        let h = sell.slice_height();
        let mut done = 0usize;
        for s in 0..sell.n_slices() {
            if (sell.slice_ptr()[s + 1] as usize) <= pos {
                done = ((s + 1) * h).min(sell.rows());
            } else {
                break;
            }
        }
        done
    }

    /// A seeded matrix with short rows, hub rows and a run of empty rows
    /// long enough to leave whole slices (zero width) empty.
    fn random_csr(rng: &mut SimRng) -> Csr {
        let rows = rng.gen_usize(0, 160);
        let cols = rng.gen_usize(1, 40);
        let empty_lo = rng.gen_usize(0, rows + 1);
        let empty = empty_lo..empty_lo + rng.gen_usize(0, 100);
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        for r in 0..rows {
            let width = match rng.gen_usize(0, 10) {
                _ if empty.contains(&r) => 0,
                0 => 0,
                1 => rng.gen_usize(8, 40),
                _ => rng.gen_usize(1, 5),
            };
            col_idx.extend((0..width).map(|_| rng.gen_usize(0, cols) as u32));
            row_ptr.push(col_idx.len() as u32);
        }
        let values = (0..col_idx.len()).map(|k| k as f64 + 0.5).collect();
        Csr::from_parts(rows, cols, row_ptr, col_idx, values).unwrap()
    }

    /// Differential test of [`Sell::walk`] and [`Sell::complete_rows`]
    /// against the references: slice heights 1–40, consecutive windows
    /// of random length (often empty, often starting or ending
    /// mid-slice), checked at every window end.
    #[test]
    fn walk_matches_the_reference_row_map() {
        let mut rng = SimRng::new(43);
        let mut zero_width_slices = 0;
        for h in 1..=40 {
            for _ in 0..12 {
                let sell = Sell::from_csr(&random_csr(&mut rng), h);
                let map = row_map(&sell);
                let stored = map.iter().flatten().count();
                assert_eq!(stored, sell.nnz(), "h {h}: the map holds every entry");
                zero_width_slices += (0..sell.n_slices())
                    .filter(|&s| sell.slice_width(s) == 0)
                    .count();
                assert_eq!(sell.complete_rows(0), complete_rows(&sell, 0), "h {h}");
                let (mut lo, mut skipped) = (0, 0);
                while lo < sell.padded_len() {
                    let end = (lo + rng.gen_usize(0, 3 * h + 2)).min(sell.padded_len());
                    let mut seen = Vec::new();
                    sell.walk(lo..end, |pos, row| seen.push((pos, row)));
                    let want: Vec<(usize, usize)> = (lo..end)
                        .filter_map(|pos| map[pos].map(|row| (pos, row)))
                        .collect();
                    assert_eq!(seen, want, "h {h}, window {lo}..{end}");
                    skipped += end - lo - seen.len();
                    assert_eq!(
                        sell.complete_rows(end),
                        complete_rows(&sell, end),
                        "h {h}, window end {end}"
                    );
                    lo = end;
                }
                assert_eq!(skipped, sell.padded_len() - sell.nnz(), "h {h}: padding");
                assert_eq!(sell.complete_rows(lo), sell.rows(), "h {h}");
            }
        }
        assert!(
            zero_width_slices > 100,
            "{zero_width_slices} zero-width slices"
        );
    }
}
