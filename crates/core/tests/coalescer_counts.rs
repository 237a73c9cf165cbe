//! Pinned simulated counts of the request coalescer.
//!
//! A seeded grid of index streams — banded, uniform-random, one-hub and
//! strided addresses × W ∈ {8, 64, 256} × {`mlp`, `seq`, `mlp` with
//! `cross_window = false`} × {Table I offsets queues, offsets queues of
//! depth 2 (back-pressure on the watcher)} — each driven through
//! [`run_indirect_stream`] on `ideal` and on `hbm`, and for each the exact
//! `(cycles, wide_requests, cross_window_merges, partial_windows,
//! watchdog_fires, windows_opened, elements_out)`. The literals were
//! recorded from the coalescer as it stood before its state was flattened
//! (one `VecDeque` per queue, `Vec<bool>` hitmaps); a host-side rewrite
//! of the coalescer must leave this table untouched and green.
//!
//! On a mismatch the failure message prints the measured rows in source
//! form, so a deliberate model change re-pins by copy and paste.

use nmpic_core::{run_indirect_stream, AdapterConfig, StreamOptions};
use nmpic_mem::BackendConfig;
use nmpic_sim::SimRng;

/// `(cycles, wide_requests, cross_window_merges, partial_windows,
/// watchdog_fires, windows_opened, elements_out)`.
type Counts = (u64, u64, u64, u64, u64, u64, u64);

/// `(pattern, W, variant, tight offsets queues, backend, counts)`.
type Row = (
    &'static str,
    usize,
    &'static str,
    bool,
    &'static str,
    Counts,
);

/// Stream length: not a multiple of any window, so every run ends in a
/// partial window and a watchdog-retired tag.
const STREAM: usize = 1500;
/// Elements in the gathered vector (512 wide blocks).
const VEC_LEN: usize = 4096;

const PATTERNS: [&str; 4] = ["banded", "uniform", "hub", "strided"];
const WINDOWS: [usize; 3] = [8, 64, 256];
const VARIANTS: [&str; 3] = ["mlp", "seq", "nocross"];
const BACKENDS: [&str; 2] = ["ideal", "hbm"];

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("banded", 8, "mlp", false, "ideal", (2360, 1075, 188, 1, 1, 188, 1500)),
    ("banded", 8, "mlp", false, "hbm", (2432, 1075, 188, 1, 1, 188, 1500)),
    ("banded", 8, "mlp", true, "ideal", (2955, 1078, 188, 1, 3, 188, 1500)),
    ("banded", 8, "mlp", true, "hbm", (6876, 1117, 188, 1, 40, 188, 1500)),
    ("banded", 8, "seq", false, "ideal", (2361, 1075, 188, 1, 1, 188, 1500)),
    ("banded", 8, "seq", false, "hbm", (2437, 1075, 188, 1, 1, 188, 1500)),
    ("banded", 8, "seq", true, "ideal", (2956, 1078, 188, 1, 3, 188, 1500)),
    ("banded", 8, "seq", true, "hbm", (6879, 1117, 188, 1, 40, 188, 1500)),
    ("banded", 8, "nocross", false, "ideal", (2526, 1158, 0, 1, 0, 188, 1500)),
    ("banded", 8, "nocross", false, "hbm", (2598, 1158, 0, 1, 0, 188, 1500)),
    ("banded", 8, "nocross", true, "ideal", (2801, 1160, 0, 1, 2, 188, 1500)),
    ("banded", 8, "nocross", true, "hbm", (6407, 1189, 0, 1, 31, 188, 1500)),
    ("banded", 64, "mlp", false, "ideal", (1381, 585, 24, 1, 1, 24, 1500)),
    ("banded", 64, "mlp", false, "hbm", (1449, 582, 25, 3, 1, 25, 1500)),
    ("banded", 64, "mlp", true, "ideal", (1381, 585, 24, 1, 1, 24, 1500)),
    ("banded", 64, "mlp", true, "hbm", (1744, 584, 25, 3, 3, 25, 1500)),
    ("banded", 64, "seq", false, "ideal", (1706, 653, 43, 41, 1, 43, 1500)),
    ("banded", 64, "seq", false, "hbm", (1817, 677, 47, 47, 1, 47, 1500)),
    ("banded", 64, "seq", true, "ideal", (1706, 649, 43, 40, 1, 43, 1500)),
    ("banded", 64, "seq", true, "hbm", (1817, 602, 28, 11, 2, 28, 1500)),
    ("banded", 64, "nocross", false, "ideal", (1423, 606, 0, 1, 0, 24, 1500)),
    ("banded", 64, "nocross", false, "hbm", (1493, 603, 0, 3, 0, 25, 1500)),
    ("banded", 64, "nocross", true, "ideal", (1423, 606, 0, 1, 0, 24, 1500)),
    ("banded", 64, "nocross", true, "hbm", (1759, 603, 0, 3, 0, 25, 1500)),
    ("banded", 256, "mlp", false, "ideal", (1217, 503, 7, 2, 1, 7, 1500)),
    ("banded", 256, "mlp", false, "hbm", (1308, 514, 9, 4, 1, 9, 1500)),
    ("banded", 256, "mlp", true, "ideal", (1217, 503, 7, 2, 1, 7, 1500)),
    ("banded", 256, "mlp", true, "hbm", (1308, 514, 9, 4, 1, 9, 1500)),
    ("banded", 256, "seq", false, "ideal", (1706, 654, 42, 42, 1, 42, 1500)),
    ("banded", 256, "seq", false, "hbm", (1817, 677, 47, 47, 1, 47, 1500)),
    ("banded", 256, "seq", true, "ideal", (1706, 654, 42, 42, 1, 42, 1500)),
    ("banded", 256, "seq", true, "hbm", (1817, 677, 47, 47, 1, 47, 1500)),
    ("banded", 256, "nocross", false, "ideal", (1227, 508, 0, 2, 0, 7, 1500)),
    ("banded", 256, "nocross", false, "hbm", (1329, 521, 0, 4, 0, 9, 1500)),
    ("banded", 256, "nocross", true, "ideal", (1227, 508, 0, 2, 0, 7, 1500)),
    ("banded", 256, "nocross", true, "hbm", (1329, 521, 0, 4, 0, 9, 1500)),
    ("uniform", 8, "mlp", false, "ideal", (3176, 1483, 188, 1, 1, 188, 1500)),
    ("uniform", 8, "mlp", false, "hbm", (3270, 1483, 188, 1, 1, 188, 1500)),
    ("uniform", 8, "mlp", true, "ideal", (3221, 1483, 188, 1, 1, 188, 1500)),
    ("uniform", 8, "mlp", true, "hbm", (7906, 1551, 188, 1, 69, 188, 1500)),
    ("uniform", 8, "seq", false, "ideal", (3176, 1483, 188, 1, 1, 188, 1500)),
    ("uniform", 8, "seq", false, "hbm", (3263, 1483, 186, 1, 3, 188, 1500)),
    ("uniform", 8, "seq", true, "ideal", (3221, 1483, 188, 1, 1, 188, 1500)),
    ("uniform", 8, "seq", true, "hbm", (7906, 1551, 188, 1, 69, 188, 1500)),
    ("uniform", 8, "nocross", false, "ideal", (3186, 1488, 0, 1, 0, 188, 1500)),
    ("uniform", 8, "nocross", false, "hbm", (3272, 1488, 0, 1, 0, 188, 1500)),
    ("uniform", 8, "nocross", true, "ideal", (3191, 1488, 0, 1, 0, 188, 1500)),
    ("uniform", 8, "nocross", true, "hbm", (7820, 1551, 0, 1, 63, 188, 1500)),
    ("uniform", 64, "mlp", false, "ideal", (3012, 1401, 24, 1, 1, 24, 1500)),
    ("uniform", 64, "mlp", false, "hbm", (3089, 1400, 25, 3, 1, 25, 1500)),
    ("uniform", 64, "mlp", true, "ideal", (3012, 1401, 24, 1, 1, 24, 1500)),
    ("uniform", 64, "mlp", true, "hbm", (3133, 1420, 25, 3, 21, 25, 1500)),
    ("uniform", 64, "seq", false, "ideal", (3020, 1405, 25, 3, 1, 25, 1500)),
    ("uniform", 64, "seq", false, "hbm", (3092, 1399, 26, 4, 1, 26, 1500)),
    ("uniform", 64, "seq", true, "ideal", (3020, 1405, 25, 3, 1, 25, 1500)),
    ("uniform", 64, "seq", true, "hbm", (3134, 1421, 26, 4, 23, 26, 1500)),
    ("uniform", 64, "nocross", false, "ideal", (3012, 1401, 0, 1, 0, 24, 1500)),
    ("uniform", 64, "nocross", false, "hbm", (3095, 1403, 0, 3, 0, 25, 1500)),
    ("uniform", 64, "nocross", true, "ideal", (3012, 1401, 0, 1, 0, 24, 1500)),
    ("uniform", 64, "nocross", true, "hbm", (3137, 1424, 0, 3, 21, 25, 1500)),
    ("uniform", 256, "mlp", false, "ideal", (2610, 1200, 7, 2, 1, 7, 1500)),
    ("uniform", 256, "mlp", false, "hbm", (2726, 1213, 8, 3, 1, 8, 1500)),
    ("uniform", 256, "mlp", true, "ideal", (2610, 1200, 7, 2, 1, 7, 1500)),
    ("uniform", 256, "mlp", true, "hbm", (2726, 1213, 8, 3, 1, 8, 1500)),
    ("uniform", 256, "seq", false, "ideal", (2636, 1213, 9, 4, 1, 9, 1500)),
    ("uniform", 256, "seq", false, "hbm", (2762, 1226, 10, 6, 1, 10, 1500)),
    ("uniform", 256, "seq", true, "ideal", (2636, 1213, 9, 4, 1, 9, 1500)),
    ("uniform", 256, "seq", true, "hbm", (2762, 1226, 10, 6, 1, 10, 1500)),
    ("uniform", 256, "nocross", false, "ideal", (2612, 1201, 0, 2, 0, 7, 1500)),
    ("uniform", 256, "nocross", false, "hbm", (2732, 1217, 0, 3, 0, 8, 1500)),
    ("uniform", 256, "nocross", true, "ideal", (2612, 1201, 0, 2, 0, 7, 1500)),
    ("uniform", 256, "nocross", true, "hbm", (2732, 1217, 0, 3, 0, 8, 1500)),
    ("hub", 8, "mlp", false, "ideal", (1268, 529, 188, 1, 1, 188, 1500)),
    ("hub", 8, "mlp", false, "hbm", (1365, 529, 188, 1, 2, 188, 1500)),
    ("hub", 8, "mlp", true, "ideal", (2765, 534, 188, 1, 7, 188, 1500)),
    ("hub", 8, "mlp", true, "hbm", (6941, 626, 188, 1, 108, 188, 1500)),
    ("hub", 8, "seq", false, "ideal", (1673, 529, 188, 1, 1, 188, 1500)),
    ("hub", 8, "seq", false, "hbm", (1816, 529, 188, 1, 1, 188, 1500)),
    ("hub", 8, "seq", true, "ideal", (2781, 534, 188, 1, 7, 188, 1500)),
    ("hub", 8, "seq", true, "hbm", (7000, 624, 188, 1, 107, 188, 1500)),
    ("hub", 8, "nocross", false, "ideal", (1328, 559, 0, 1, 0, 188, 1500)),
    ("hub", 8, "nocross", false, "hbm", (1411, 559, 0, 1, 0, 188, 1500)),
    ("hub", 8, "nocross", true, "ideal", (2465, 563, 0, 1, 4, 188, 1500)),
    ("hub", 8, "nocross", true, "hbm", (6905, 672, 0, 1, 113, 188, 1500)),
    ("hub", 64, "mlp", false, "ideal", (990, 390, 24, 1, 1, 24, 1500)),
    ("hub", 64, "mlp", false, "hbm", (1071, 391, 25, 3, 2, 25, 1500)),
    ("hub", 64, "mlp", true, "ideal", (1009, 390, 24, 1, 1, 24, 1500)),
    ("hub", 64, "mlp", true, "hbm", (1665, 395, 25, 3, 6, 25, 1500)),
    ("hub", 64, "seq", false, "ideal", (1672, 427, 59, 59, 1, 59, 1500)),
    ("hub", 64, "seq", false, "hbm", (1800, 429, 61, 61, 2, 61, 1500)),
    ("hub", 64, "seq", true, "ideal", (1672, 427, 58, 58, 1, 58, 1500)),
    ("hub", 64, "seq", true, "hbm", (1792, 399, 29, 14, 4, 29, 1500)),
    ("hub", 64, "nocross", false, "ideal", (992, 391, 0, 1, 0, 24, 1500)),
    ("hub", 64, "nocross", false, "hbm", (1075, 392, 0, 3, 0, 25, 1500)),
    ("hub", 64, "nocross", true, "ideal", (992, 391, 0, 1, 0, 24, 1500)),
    ("hub", 64, "nocross", true, "hbm", (1677, 398, 0, 3, 6, 25, 1500)),
    ("hub", 256, "mlp", false, "ideal", (932, 361, 7, 2, 1, 7, 1500)),
    ("hub", 256, "mlp", false, "hbm", (1011, 365, 9, 4, 2, 9, 1500)),
    ("hub", 256, "mlp", true, "ideal", (932, 361, 7, 2, 1, 7, 1500)),
    ("hub", 256, "mlp", true, "hbm", (1026, 366, 9, 4, 3, 9, 1500)),
    ("hub", 256, "seq", false, "ideal", (1672, 427, 59, 59, 1, 59, 1500)),
    ("hub", 256, "seq", false, "hbm", (1800, 429, 61, 61, 2, 61, 1500)),
    ("hub", 256, "seq", true, "ideal", (1672, 427, 59, 59, 1, 59, 1500)),
    ("hub", 256, "seq", true, "hbm", (1800, 429, 61, 61, 2, 61, 1500)),
    ("hub", 256, "nocross", false, "ideal", (934, 362, 0, 2, 0, 7, 1500)),
    ("hub", 256, "nocross", false, "hbm", (1032, 367, 0, 5, 0, 9, 1500)),
    ("hub", 256, "nocross", true, "ideal", (934, 362, 0, 2, 0, 7, 1500)),
    ("hub", 256, "nocross", true, "hbm", (1052, 368, 0, 5, 1, 9, 1500)),
    ("strided", 8, "mlp", false, "ideal", (1336, 563, 188, 1, 1, 188, 1500)),
    ("strided", 8, "mlp", false, "hbm", (1416, 563, 188, 1, 2, 188, 1500)),
    ("strided", 8, "mlp", true, "ideal", (2389, 566, 188, 1, 4, 188, 1500)),
    ("strided", 8, "mlp", true, "hbm", (5553, 605, 188, 1, 44, 188, 1500)),
    ("strided", 8, "seq", false, "ideal", (1675, 563, 188, 1, 1, 188, 1500)),
    ("strided", 8, "seq", false, "hbm", (1750, 563, 188, 1, 1, 188, 1500)),
    ("strided", 8, "seq", true, "ideal", (2389, 566, 188, 1, 4, 188, 1500)),
    ("strided", 8, "seq", true, "hbm", (5553, 605, 188, 1, 43, 188, 1500)),
    ("strided", 8, "nocross", false, "ideal", (1336, 563, 0, 1, 0, 188, 1500)),
    ("strided", 8, "nocross", false, "hbm", (1422, 563, 0, 1, 0, 188, 1500)),
    ("strided", 8, "nocross", true, "ideal", (2265, 566, 0, 1, 3, 188, 1500)),
    ("strided", 8, "nocross", true, "hbm", (5508, 605, 0, 1, 42, 188, 1500)),
    ("strided", 64, "mlp", false, "ideal", (1336, 563, 24, 1, 1, 24, 1500)),
    ("strided", 64, "mlp", false, "hbm", (1425, 563, 25, 3, 2, 25, 1500)),
    ("strided", 64, "mlp", true, "ideal", (1336, 563, 24, 1, 1, 24, 1500)),
    ("strided", 64, "mlp", true, "hbm", (1690, 563, 25, 3, 2, 25, 1500)),
    ("strided", 64, "seq", false, "ideal", (1682, 563, 49, 47, 1, 49, 1500)),
    ("strided", 64, "seq", false, "hbm", (1779, 563, 54, 54, 2, 54, 1500)),
    ("strided", 64, "seq", true, "ideal", (1682, 563, 49, 47, 1, 49, 1500)),
    ("strided", 64, "seq", true, "hbm", (1779, 563, 46, 45, 2, 46, 1500)),
    ("strided", 64, "nocross", false, "ideal", (1336, 563, 0, 1, 0, 24, 1500)),
    ("strided", 64, "nocross", false, "hbm", (1441, 563, 0, 3, 0, 25, 1500)),
    ("strided", 64, "nocross", true, "ideal", (1336, 563, 0, 1, 0, 24, 1500)),
    ("strided", 64, "nocross", true, "hbm", (1551, 563, 0, 3, 0, 25, 1500)),
    ("strided", 256, "mlp", false, "ideal", (1336, 563, 7, 2, 1, 7, 1500)),
    ("strided", 256, "mlp", false, "hbm", (1413, 563, 9, 4, 2, 9, 1500)),
    ("strided", 256, "mlp", true, "ideal", (1336, 563, 7, 2, 1, 7, 1500)),
    ("strided", 256, "mlp", true, "hbm", (1413, 563, 9, 4, 2, 9, 1500)),
    ("strided", 256, "seq", false, "ideal", (1682, 563, 49, 49, 1, 49, 1500)),
    ("strided", 256, "seq", false, "hbm", (1779, 563, 54, 54, 2, 54, 1500)),
    ("strided", 256, "seq", true, "ideal", (1682, 563, 49, 49, 1, 49, 1500)),
    ("strided", 256, "seq", true, "hbm", (1779, 563, 54, 54, 2, 54, 1500)),
    ("strided", 256, "nocross", false, "ideal", (1336, 563, 0, 2, 0, 7, 1500)),
    ("strided", 256, "nocross", false, "hbm", (1407, 563, 0, 4, 0, 9, 1500)),
    ("strided", 256, "nocross", true, "ideal", (1336, 563, 0, 2, 0, 7, 1500)),
    ("strided", 256, "nocross", true, "hbm", (1407, 563, 0, 4, 0, 9, 1500)),
];

fn indices(pattern: &str) -> Vec<u32> {
    let mut rng = SimRng::new(0x00C0_A1E5);
    let n = VEC_LEN as u64;
    (0..STREAM as u64)
        .map(|k| {
            let i = match pattern {
                // FEM-like rows of 12 nonzeros inside a 96-element band
                // that slides with the row.
                "banded" => (k / 12 * 32 + rng.gen_u64(0, 96)) % n,
                "uniform" => rng.gen_u64(0, n),
                // Three of four accesses land in one hot block.
                "hub" => match rng.gen_u64(0, 4) {
                    0 => rng.gen_u64(0, n),
                    _ => 2048 + rng.gen_u64(0, 8),
                },
                // 24 B stride: blocks are shared by 2-3 neighbours.
                "strided" => k * 3 % n,
                other => panic!("unknown pattern '{other}'"),
            };
            u32::try_from(i).expect("index below VEC_LEN")
        })
        .collect()
}

fn config(window: usize, variant: &str, tight: bool) -> AdapterConfig {
    let mut cfg = match variant {
        "mlp" | "nocross" => AdapterConfig::mlp(window),
        "seq" => AdapterConfig::seq(window),
        other => panic!("unknown variant '{other}'"),
    };
    cfg.cross_window = variant != "nocross";
    if tight {
        cfg.offsets_queue_depth = 2;
    }
    cfg
}

fn backend(name: &str) -> BackendConfig {
    match name {
        "ideal" => BackendConfig::ideal(),
        "hbm" => BackendConfig::hbm(),
        other => panic!("unknown backend '{other}'"),
    }
}

fn measure(idx: &[u32], window: usize, variant: &str, tight: bool, backend_name: &str) -> Counts {
    let opts = StreamOptions {
        backend: backend(backend_name),
    };
    let r = run_indirect_stream(&config(window, variant, tight), idx, VEC_LEN, &opts);
    assert!(r.verified, "gather mismatch");
    let c = r.coalescer.expect("coalescing variants report stats");
    (
        r.cycles,
        c.wide_requests,
        c.cross_window_merges,
        c.partial_windows,
        c.watchdog_fires,
        c.windows_opened,
        c.elements_out,
    )
}

#[test]
fn coalescer_counts_match_the_pinned_table() {
    let mut measured = Vec::new();
    for pattern in PATTERNS {
        let idx = indices(pattern);
        for window in WINDOWS {
            for variant in VARIANTS {
                for tight in [false, true] {
                    for backend_name in BACKENDS {
                        let got = measure(&idx, window, variant, tight, backend_name);
                        measured.push((pattern, window, variant, tight, backend_name, got));
                    }
                }
            }
        }
    }
    assert_eq!(measured.len(), 144, "4 patterns x 3 W x 3 variants x 2 x 2");
    let drifted: Vec<String> = measured
        .iter()
        .enumerate()
        .filter(|&(i, row)| PINNED.get(i) != Some(row))
        .map(|(_, row)| format!("    {row:?},"))
        .collect();
    assert!(
        drifted.is_empty() && PINNED.len() == measured.len(),
        "coalescer counts drifted ({} of {} rows); measured rows:\n{}",
        drifted.len(),
        measured.len(),
        drifted.join("\n")
    );
}

/// The grid is worth pinning only if it reaches the regimes the rewrite
/// could get wrong: cross-window merges, partial windows, watchdog
/// issues, and offsets-queue stalls that change the cycle count.
#[test]
fn the_grid_covers_every_coalescer_regime() {
    let any = |f: fn(&Counts) -> bool| PINNED.iter().any(|row| f(&row.5));
    assert!(any(|c| c.2 > 0), "no cross-window merge in the grid");
    assert!(any(|c| c.3 > 1), "no mid-stream partial window in the grid");
    assert!(any(|c| c.4 > 1), "no mid-stream watchdog issue in the grid");
    assert!(PINNED.iter().all(|row| row.5 .6 == STREAM as u64));
    // Tight offsets queues must bite somewhere: same stream and variant,
    // different cycle count.
    let stalled = PINNED.iter().filter(|row| row.3).any(|tight| {
        PINNED.iter().any(|loose| {
            !loose.3
                && (loose.0, loose.1, loose.2, loose.4) == (tight.0, tight.1, tight.2, tight.4)
                && loose.5 .0 != tight.5 .0
        })
    });
    assert!(
        stalled,
        "offsets-queue back-pressure never changed a cycle count"
    );
}
