//! Fixtures shared by the integration tests that include this module.

use nmpic_sparse::Csr;

/// A 100 × 100 matrix of the shapes that test how a datapath finds the
/// row of each stream position:
/// - rows 32–63 are empty, so the second 32-row SELL slice has zero width
///   and the middle shards of an 8-way row split own rows but no nonzeros;
/// - the last slice holds only rows 96–99;
/// - row 70 is a hub of 300 nonzeros, so its slice pads to 9 600 entries
///   and crosses the boundary between the first two 8 192-entry pack
///   tiles;
/// - every fifth row elsewhere is empty too.
pub fn degenerate() -> Csr {
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    for r in 0..100usize {
        let width = match r {
            32..64 => 0,
            70 => 300,
            _ => r % 5,
        };
        col_idx.extend((0..width).map(|k| ((r * 7 + k * 13) % 100) as u32));
        row_ptr.push(col_idx.len() as u32);
    }
    let values = (0..col_idx.len())
        .map(|k| 0.3 + (k % 23) as f64 * 0.17)
        .collect();
    Csr::from_parts(100, 100, row_ptr, col_idx, values).expect("well-formed CSR")
}
