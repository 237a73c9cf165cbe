//! Text-table, CSV and JSON output shared by every experiment, plus the
//! generic result gate every table must pass.

use std::fs;
use std::path::{Path, PathBuf};

/// One column of a typed table: its header and how a row renders its
/// cell ([`Table::of`]).
pub(crate) type Column<R> = (&'static str, fn(&R) -> String);

/// A simple fixed-width text table with CSV export.
///
/// # Example
///
/// ```
/// use nmpic_bench::Table;
/// let mut t = Table::new(vec!["matrix", "GB/s"]);
/// t.row(vec!["pwtk".into(), "31.2".into()]);
/// let text = t.render();
/// assert!(text.contains("pwtk"));
/// assert!(t.to_csv().starts_with("matrix,GB/s\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Creates a table with one row per item of `rows`, each column's
    /// header spelled next to the function that renders its cell.
    pub(crate) fn of<R>(rows: &[R], columns: &[Column<R>]) -> Self {
        let mut table = Self::new(columns.iter().map(|(header, _)| *header).collect());
        for r in rows {
            table.row(columns.iter().map(|(_, cell)| cell(r)).collect());
        }
        table
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The generic result gate: an experiment that produced no rows, or
    /// a NaN / infinite cell (a meaningless bandwidth, a NaN residual),
    /// yields one message per offence; a sound table yields none.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_bench::Table;
    /// let mut t = Table::new(vec!["matrix", "GB/s"]);
    /// assert_eq!(t.gate(), vec!["zero result rows"]);
    /// t.row(vec!["pwtk".into(), "NaN".into()]);
    /// assert_eq!(t.gate(), vec!["row 1 (pwtk): non-finite 'GB/s' = NaN"]);
    /// ```
    pub fn gate(&self) -> Vec<String> {
        if self.rows.is_empty() {
            return vec!["zero result rows".to_string()];
        }
        let mut failures = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            for (header, cell) in self.headers.iter().zip(row) {
                // `str::parse::<f64>` accepts every spelling `Display`
                // gives a non-finite float (NaN, inf, -inf, infinity).
                if cell.parse::<f64>().is_ok_and(|v| !v.is_finite()) {
                    failures.push(format!(
                        "row {} ({}): non-finite '{header}' = {cell}",
                        i + 1,
                        row[0]
                    ));
                }
            }
        }
        failures
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON array of row objects keyed by header.
    ///
    /// Cells that parse as **finite** numbers are emitted as JSON
    /// numbers; everything else — including `NaN`/`inf`, which JSON
    /// cannot represent — is emitted as a string, so the uploaded file
    /// stays valid JSON even when [`Table::gate`] fails the run.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_bench::Table;
    /// let mut t = Table::new(vec!["matrix", "GB/s"]);
    /// t.row(vec!["pwtk".into(), "31.2".into()]);
    /// assert_eq!(t.to_json(), "[\n  {\"matrix\": \"pwtk\", \"GB/s\": 31.2}\n]\n");
    /// ```
    pub fn to_json(&self) -> String {
        let quote = |s: &str| -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    // nmpic-lint: allow(L1) — in range on every target: char scalars are at most 0x10FFFF, so u32 holds every value
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let value = |cell: &str| -> String {
            if is_json_number(cell) {
                cell.to_string()
            } else {
                quote(cell)
            }
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| format!("{}: {}", quote(h), value(c)))
                    .collect();
                format!("  {{{}}}", fields.join(", "))
            })
            .collect();
        if rows.is_empty() {
            "[]\n".to_string()
        } else {
            format!("[\n{}\n]\n", rows.join(",\n"))
        }
    }

    /// Writes `results/<stem>.csv` and `results/<stem>.json`, creating
    /// the directory, and returns the two paths.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_results(&self, stem: &str) -> std::io::Result<[PathBuf; 2]> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let csv = dir.join(format!("{stem}.csv"));
        fs::write(&csv, self.to_csv())?;
        let json = dir.join(format!("{stem}.json"));
        fs::write(&json, self.to_json())?;
        Ok([csv, json])
    }
}

/// Formats a float with the given number of decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// `true` iff `s` is a valid **JSON** number literal. Stricter than
/// `str::parse::<f64>`, which also accepts forms JSON forbids (`.5`,
/// `5.`, `+1`, `inf`, `NaN`) — emitting those unquoted would corrupt
/// the uploaded results files.
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    let digits = |b: &[u8], mut i: usize| -> Option<usize> {
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        (i > start).then_some(i)
    };
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    // Integer part: `0` alone or a nonzero-led digit run.
    match b.get(i) {
        Some(b'0') => i += 1,
        // nmpic-lint: allow(L2) — invariant: the match guard saw an ascii digit at i, so digits() returns Some
        Some(c) if c.is_ascii_digit() => i = digits(b, i).expect("digit checked"),
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        match digits(b, i + 1) {
            Some(end) => i = end,
            None => return false,
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        match digits(b, i) {
            Some(end) => i = end,
            None => return false,
        }
    }
    i == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["xx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_format() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
        let typed = Table::of(
            &[(1, 2.0)],
            &[("x", |r| r.0.to_string()), ("y", |r| f(r.1, 0))],
        );
        assert_eq!(typed.to_csv(), t.to_csv());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }

    #[test]
    fn json_types_numbers_and_strings() {
        let mut t = Table::new(vec!["name", "gbps", "note"]);
        t.row(vec!["a\"b".into(), "1.5".into(), "fast".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            "[\n  {\"name\": \"a\\\"b\", \"gbps\": 1.5, \"note\": \"fast\"}\n]\n"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["a\nb\tc\u{1}".into()]);
        assert_eq!(t.to_json(), "[\n  {\"x\": \"a\\nb\\tc\\u0001\"}\n]\n");
    }

    #[test]
    fn json_nan_is_detectable_not_silent() {
        let mut t = Table::new(vec!["gbps"]);
        t.row(vec![format!("{}", f64::NAN)]);
        // NaN cannot be a JSON number; it surfaces as a string, and the
        // result gate names the row and column.
        assert!(t.to_json().contains("\"NaN\""));
        assert_eq!(t.gate(), vec!["row 1 (NaN): non-finite 'gbps' = NaN"]);
    }

    #[test]
    fn gate_flags_empty_tables_and_every_non_finite_spelling() {
        let mut t = Table::new(vec!["point", "gbps", "note"]);
        assert_eq!(t.gate(), vec!["zero result rows"]);
        t.row(vec!["a".into(), "31.25".into(), "-".into()]);
        t.row(vec!["b".into(), "1e-3".into(), "info".into()]);
        assert!(t.gate().is_empty(), "{:?}", t.gate());
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let mut broken = t.clone();
            broken.row(vec!["c".into(), bad.into(), "-".into()]);
            assert_eq!(
                broken.gate(),
                vec![format!("row 3 (c): non-finite 'gbps' = {bad}")]
            );
        }
    }

    #[test]
    fn json_empty_table_is_empty_array() {
        assert_eq!(Table::new(vec!["x"]).to_json(), "[]\n");
    }

    #[test]
    fn json_number_grammar_is_strict() {
        for ok in ["0", "-0", "7", "31.25", "-4.5", "1e9", "2.5E-3", "10"] {
            assert!(is_json_number(ok), "{ok} is a JSON number");
        }
        // f64-parsable but not valid JSON — these must be quoted.
        for bad in [".5", "5.", "+1", "01", "1.", "inf", "NaN", "1e", "", "-"] {
            assert!(!is_json_number(bad), "{bad} is not a JSON number");
        }
        let mut t = Table::new(vec!["x"]);
        t.row(vec![".5".into()]);
        assert_eq!(t.to_json(), "[\n  {\"x\": \".5\"}\n]\n");
    }
}
