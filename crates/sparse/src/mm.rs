//! MatrixMarket coordinate file I/O.
//!
//! The paper's matrices come from the SuiteSparse collection, which is
//! distributed in MatrixMarket format. This reader/writer lets users drop
//! the real files into the experiments in place of the synthetic stand-ins.

use std::fmt;
use std::io::{BufRead, Write};

use crate::{Coo, Csr};

/// Errors from MatrixMarket parsing or writing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The `%%MatrixMarket` banner is missing or unsupported.
    BadHeader(String),
    /// The size line or an entry line failed to parse, or the size line
    /// declares zero rows or columns.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        what: String,
    },
    /// Fewer entries than the size line promised.
    Truncated {
        /// Entries promised by the size line.
        expected: usize,
        /// Entries actually present.
        got: usize,
    },
    /// More entries than the size line promised. Silently accepting the
    /// surplus would mis-shape the matrix (duplicates sum), so the
    /// surplus is an error just like a shortfall.
    Excess {
        /// Entries promised by the size line.
        expected: usize,
        /// 1-based line number of the first surplus entry.
        line: usize,
    },
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "i/o error: {e}"),
            MmError::BadHeader(h) => write!(f, "unsupported MatrixMarket header: {h}"),
            MmError::Parse { line, what } => write!(f, "parse error on line {line}: {what}"),
            MmError::Truncated { expected, got } => {
                write!(f, "file promised {expected} entries but held {got}")
            }
            MmError::Excess { expected, line } => {
                write!(
                    f,
                    "file promised {expected} entries but line {line} holds at least one more"
                )
            }
        }
    }
}

impl std::error::Error for MmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Value field of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Symmetry of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a MatrixMarket *coordinate* matrix into [`Csr`].
///
/// Supports `real`, `integer` and `pattern` fields with `general`,
/// `symmetric` or `skew-symmetric` symmetry (symmetric entries are
/// mirrored; pattern entries get value 1.0). Duplicate entries are summed.
///
/// # Errors
///
/// Returns [`MmError`] on malformed input; see the variants for details.
///
/// # Example
///
/// ```
/// use nmpic_sparse::read_matrix_market;
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n";
/// let m = read_matrix_market(text.as_bytes()).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.spmv(&[1.0, 1.0]), vec![1.5, 2.5]);
/// ```
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, MmError> {
    let mut lines = reader.lines().enumerate();

    // Banner.
    let (_, banner) = lines
        .next()
        .ok_or_else(|| MmError::BadHeader("empty file".into()))?;
    let banner = banner?;
    let lower = banner.to_ascii_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MmError::BadHeader(banner));
    }
    if tokens[2] != "coordinate" {
        return Err(MmError::BadHeader(format!(
            "only coordinate format supported, got `{}`",
            tokens[2]
        )));
    }
    let field = match tokens[3] {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => return Err(MmError::BadHeader(format!("unsupported field `{other}`"))),
    };
    let symmetry = match tokens[4] {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => {
            return Err(MmError::BadHeader(format!(
                "unsupported symmetry `{other}`"
            )))
        }
    };

    // Size line (first non-comment line).
    let mut size: Option<(usize, usize, usize)> = None;
    let mut coo: Option<Coo> = None;
    let mut read_entries = 0usize;
    let mut expected = 0usize;

    for (lineno, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        if size.is_none() {
            let parts: Vec<&str> = trimmed.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(MmError::Parse {
                    line: lineno + 1,
                    what: format!("size line needs `rows cols nnz`, got `{trimmed}`"),
                });
            }
            let parse = |s: &str| -> Result<usize, MmError> {
                s.parse().map_err(|_| MmError::Parse {
                    line: lineno + 1,
                    what: format!("bad integer `{s}`"),
                })
            };
            let (r, c, n) = (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
            // Checked against the 32 b index width here, so malformed
            // files get a typed error instead of tripping `Coo::new`'s
            // dimension assertion (a panic) from library code.
            if r > u32::MAX as usize || c > u32::MAX as usize {
                return Err(MmError::Parse {
                    line: lineno + 1,
                    what: format!(
                        "dimensions {r}x{c} exceed the 32 b index limit ({})",
                        u32::MAX
                    ),
                });
            }
            // A matrix with no rows or no columns has nothing to multiply;
            // reading it as 1x1 would invent a row and a column.
            if r == 0 || c == 0 {
                return Err(MmError::Parse {
                    line: lineno + 1,
                    what: format!("dimensions {r}x{c} declare an empty matrix"),
                });
            }
            size = Some((r, c, n));
            expected = n;
            coo = Some(Coo::new(r, c));
            continue;
        }

        // nmpic-lint: allow(L2) — invariant: the `size.is_none()` branch above sets `coo = Some(..)` and `continue`s, so entry lines always see it populated
        let coo = coo.as_mut().expect("size parsed before entries");
        // The `Truncated` check below only catches a shortfall; a surplus
        // entry must fail eagerly too, before it is folded into the
        // matrix.
        if read_entries >= expected {
            return Err(MmError::Excess {
                expected,
                line: lineno + 1,
            });
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        let need = if field == MmField::Pattern { 2 } else { 3 };
        if parts.len() < need {
            return Err(MmError::Parse {
                line: lineno + 1,
                what: format!("entry needs {need} fields, got `{trimmed}`"),
            });
        }
        let r: u64 = parts[0].parse().map_err(|_| MmError::Parse {
            line: lineno + 1,
            what: format!("bad row `{}`", parts[0]),
        })?;
        let c: u64 = parts[1].parse().map_err(|_| MmError::Parse {
            line: lineno + 1,
            what: format!("bad col `{}`", parts[1]),
        })?;
        if r == 0 || c == 0 {
            return Err(MmError::Parse {
                line: lineno + 1,
                what: "MatrixMarket indices are 1-based; got 0".into(),
            });
        }
        let v: f64 = match field {
            MmField::Pattern => 1.0,
            _ => parts[2].parse().map_err(|_| MmError::Parse {
                line: lineno + 1,
                what: format!("bad value `{}`", parts[2]),
            })?,
        };
        // Checked narrowing: a file indexing past the 32 b limit used to
        // wrap through `as u32` and silently build the wrong matrix.
        let to_idx = |v: u64| -> Result<u32, MmError> {
            u32::try_from(v - 1).map_err(|_| MmError::Parse {
                line: lineno + 1,
                what: format!("index {v} exceeds the 32 b index limit ({})", u32::MAX),
            })
        };
        let (r0, c0) = (to_idx(r)?, to_idx(c)?);
        // Checked against the declared shape here, so a stray entry gets
        // a typed error instead of tripping `Coo::push`'s bounds
        // assertion (a panic) from library code.
        let (rows, cols, _) = size.unwrap_or_default();
        if r > rows as u64 || c > cols as u64 {
            return Err(MmError::Parse {
                line: lineno + 1,
                what: format!("entry ({r}, {c}) lies outside the declared {rows}x{cols} matrix"),
            });
        }
        // A skew-symmetric matrix satisfies A = −Aᵀ, which forces a zero
        // diagonal; a nonzero diagonal entry cannot be mirrored
        // consistently and is a malformed file, not data.
        if symmetry == MmSymmetry::SkewSymmetric && r0 == c0 && v != 0.0 {
            return Err(MmError::Parse {
                line: lineno + 1,
                what: format!(
                    "skew-symmetric matrices have a zero diagonal, got a({r}, {c}) = {v}"
                ),
            });
        }
        coo.push(r0, c0, v);
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric if r0 != c0 => coo.push(c0, r0, v),
            // The mirrored value is negated: a(j, i) = −a(i, j).
            MmSymmetry::SkewSymmetric if r0 != c0 => coo.push(c0, r0, -v),
            _ => {}
        }
        read_entries += 1;
    }

    if size.is_none() {
        return Err(MmError::BadHeader("missing size line".into()));
    }
    if read_entries < expected {
        return Err(MmError::Truncated {
            expected,
            got: read_entries,
        });
    }
    // nmpic-lint: allow(L2) — invariant: the `size.is_none()` early return above guarantees the size line (and thus `coo`) was seen
    Ok(coo.expect("constructed with size line").to_csr())
}

/// Writes a CSR matrix as a `coordinate real general` MatrixMarket file.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use nmpic_sparse::{Csr, read_matrix_market, write_matrix_market};
/// let m = Csr::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![4.0, 5.0]).unwrap();
/// let mut out = Vec::new();
/// write_matrix_market(&mut out, &m).unwrap();
/// let back = read_matrix_market(out.as_slice()).unwrap();
/// assert_eq!(back, m);
/// ```
pub fn write_matrix_market<W: Write>(writer: &mut W, m: &Csr) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for i in 0..m.rows() {
        for (c, v) in m.row(i) {
            writeln!(writer, "{} {} {:e}", i + 1, c + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 3\n1 1 1.0\n2 3 -2.0\n3 2 0.5\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.spmv(&[1.0, 1.0, 1.0]), vec![1.0, -2.0, 0.5]);
    }

    #[test]
    fn reads_symmetric_and_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 3.0\n2 1 4.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        // Mirrored: (0,0)=3, (1,0)=4, (0,1)=4.
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.spmv(&[1.0, 0.0]), vec![3.0, 4.0]);
        assert_eq!(m.spmv(&[0.0, 1.0]), vec![4.0, 0.0]);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.spmv(&[2.0, 3.0]), vec![3.0, 2.0]);
    }

    #[test]
    fn reads_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 5.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.spmv(&[1.0, 0.0]), vec![0.0, 5.0]);
        assert_eq!(m.spmv(&[0.0, 1.0]), vec![-5.0, 0.0]);
    }

    #[test]
    fn rejects_bad_banner() {
        let text = "%%NotMatrixMarket\n1 1 0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(MmError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_array_format() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(MmError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(MmError::Parse { .. })
        ));
    }

    /// Regression: a skew-symmetric file smuggling a nonzero diagonal
    /// entry used to be silently accepted (and not mirrored), producing a
    /// matrix that is not skew-symmetric at all.
    #[test]
    fn rejects_nonzero_skew_symmetric_diagonal() {
        let text =
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 5.0\n2 2 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("zero diagonal"), "{err}");
        // An explicit zero diagonal entry remains legal.
        let text =
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 5.0\n2 2 0.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.spmv(&[1.0, 1.0]), vec![-5.0, 5.0]);
        // Pattern entries carry an implicit 1.0, so a pattern diagonal is
        // rejected too.
        let text = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n1 1\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(MmError::Parse { .. })
        ));
    }

    /// Regression: only a shortfall was detected; surplus entries were
    /// silently folded in (duplicates sum), corrupting the matrix.
    #[test]
    fn detects_excess_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                MmError::Excess {
                    expected: 1,
                    line: 4
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("more"), "{err}");
    }

    #[test]
    fn detects_truncation() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(MmError::Truncated {
                expected: 3,
                got: 1
            })
        ));
    }

    /// Regression: a 1-based entry index of `2^32 + 1` used to wrap
    /// through `as u32` to row 0 — in range for the declared shape, so
    /// the file was silently accepted and built the wrong matrix.
    #[test]
    fn rejects_entry_index_past_32b_limit() {
        let big = (u32::MAX as u64) + 2;
        let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n{big} 1 1.0\n");
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("32 b index limit"), "{err}");
    }

    /// Regression: an entry outside the declared shape used to reach
    /// `Coo::push`'s bounds assertion and panic out of the parser.
    #[test]
    fn rejects_entry_outside_declared_shape() {
        for (entry, line) in [("5 1 1.0", 3), ("1 4 1.0", 3)] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n3 3 1\n{entry}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, MmError::Parse { line: l, .. } if l == line),
                "{err}"
            );
            assert!(
                err.to_string().contains("outside the declared 3x3"),
                "{err}"
            );
        }
        // A declared 0x0 matrix admits no entry at all.
        let text = "%%MatrixMarket matrix coordinate real general\n0 0 1\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse { line: 2, .. }), "{err}");
    }

    /// Regression: a size line with no rows or no columns used to read as
    /// a 1x1 matrix.
    #[test]
    fn rejects_zero_dimensions() {
        for size in ["0 0 0", "0 3 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, MmError::Parse { line: 2, .. }),
                "`{size}`: {err}"
            );
            assert!(err.to_string().contains("empty matrix"), "`{size}`: {err}");
        }
    }

    /// CRLF line endings (files written on Windows) read like LF ones.
    #[test]
    fn reads_crlf_line_endings() {
        let text = "%%MatrixMarket matrix coordinate real general\r\n% comment\r\n2 2 2\r\n\
                    1 2 3.5\r\n2 1 -1.0\r\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 2, 2));
        assert_eq!(m.spmv(&[1.0, 2.0]), vec![7.0, -1.0]);
    }

    /// A file cut off inside its last entry line is a parse error on that
    /// line, whether the cut drops fields or splits a number.
    #[test]
    fn rejects_an_entry_truncated_mid_line() {
        for last in ["2", "2 2", "2 2 1.5e"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{last}");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, MmError::Parse { line: 4, .. }),
                "`{last}`: {err}"
            );
        }
    }

    /// Regression: an oversized size line used to reach `Coo::new`'s
    /// dimension assertion and panic out of the parser instead of
    /// returning a typed error.
    #[test]
    fn rejects_oversized_dimensions() {
        let big = (u32::MAX as u64) + 1;
        let text = format!("%%MatrixMarket matrix coordinate real general\n{big} 2 0\n");
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("32 b index limit"), "{err}");
    }

    #[test]
    fn roundtrip_via_writer() {
        let m = Csr::from_parts(
            3,
            4,
            vec![0, 2, 2, 3],
            vec![0, 3, 1],
            vec![1.25, -2.5, 1e-3],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }
}
