//! Pinned simulated counts of the baseline system, cycle-accurate
//! (`PINNED`) and analytic (`ANALYTIC`).
//!
//! One factor at a time around `BaseConfig::default()` — `chunk`
//! {8, 32, 64}, `mshrs` {2, 8, 16}, `vlsu_outstanding` {1, 8},
//! `gather_issue_interval` {1, 5} and an 8 KiB LLC (which evicts) — ×
//! three generators × {ideal, hbm, hbm x8}. Each row holds the exact
//! `(cycles, indir_cycles, offchip_bytes)` of `run` on a fresh plan and
//! of the second `run_into` on another fresh plan (warm matrix lines).
//! The `PINNED` literals were recorded from the baseline's per-cycle
//! loop before it learnt to skip idle cycles; a change to that loop must
//! leave them untouched and green. The `ANALYTIC` literals were recorded
//! from the model's per-element LLC replay; a change to the replay must
//! leave them untouched and green.
//!
//! On a mismatch the failure message prints the measured rows in source
//! form, so a deliberate model change re-pins by copy and paste.

use nmpic_mem::{BackendConfig, CacheConfig};
use nmpic_sparse::gen::{banded_fem, circuit, random_uniform};
use nmpic_sparse::Csr;
use nmpic_system::{golden_x, BaseConfig, ExecMode, IterReport, SpmvEngine, SystemKind};

/// `(cycles, indir_cycles, offchip_bytes)`.
type Counts = (u64, u64, u64);

/// `(config, matrix, backend, [run, second run_into])`.
type Row = (&'static str, &'static str, &'static str, [Counts; 2]);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("default", "banded_fem", "ideal", [(64925, 51221, 102464), (57794, 45031, 12288)]),
    ("default", "banded_fem", "hbm", [(70294, 56513, 102464), (57855, 45112, 12288)]),
    ("default", "banded_fem", "hbm x8", [(66913, 53861, 102464), (57792, 45049, 12288)]),
    ("chunk8", "banded_fem", "ideal", [(101814, 78269, 102464), (81763, 68547, 12288)]),
    ("chunk8", "banded_fem", "hbm", [(119647, 87218, 102464), (81916, 68720, 12288)]),
    ("chunk8", "banded_fem", "hbm x8", [(117334, 86859, 102464), (81825, 68629, 12288)]),
    ("chunk64", "banded_fem", "ideal", [(59396, 46257, 102464), (53847, 41084, 12288)]),
    ("chunk64", "banded_fem", "hbm", [(66837, 52872, 102464), (53922, 41179, 12288)]),
    ("chunk64", "banded_fem", "hbm x8", [(62847, 49990, 102464), (53849, 41106, 12288)]),
    ("mshrs2", "banded_fem", "ideal", [(73460, 56713, 102464), (57795, 45032, 12288)]),
    ("mshrs2", "banded_fem", "hbm", [(89401, 68515, 102464), (57860, 45117, 12288)]),
    ("mshrs2", "banded_fem", "hbm x8", [(86333, 66382, 102464), (57812, 45069, 12288)]),
    ("mshrs16", "banded_fem", "ideal", [(64925, 51221, 102464), (57794, 45031, 12288)]),
    ("mshrs16", "banded_fem", "hbm", [(70294, 56513, 102464), (57855, 45112, 12288)]),
    ("mshrs16", "banded_fem", "hbm x8", [(66913, 53861, 102464), (57792, 45049, 12288)]),
    ("vlsu1", "banded_fem", "ideal", [(315224, 301520, 102464), (308093, 295330, 12288)]),
    ("vlsu1", "banded_fem", "hbm", [(322249, 308468, 102464), (309810, 297067, 12288)]),
    ("vlsu1", "banded_fem", "hbm x8", [(318922, 305870, 102464), (309801, 297058, 12288)]),
    ("gii1", "banded_fem", "ideal", [(58568, 44864, 102464), (51437, 38674, 12288)]),
    ("gii1", "banded_fem", "hbm", [(64081, 50300, 102464), (51642, 38899, 12288)]),
    ("gii1", "banded_fem", "hbm x8", [(60618, 47566, 102464), (51497, 38754, 12288)]),
    ("llc8k", "banded_fem", "ideal", [(64925, 51221, 102464), (64925, 51221, 102464)]),
    ("llc8k", "banded_fem", "hbm", [(70294, 56513, 102464), (70294, 56513, 102464)]),
    ("llc8k", "banded_fem", "hbm x8", [(66913, 53861, 102464), (66913, 53861, 102464)]),
    ("default", "circuit", "ideal", [(49576, 36335, 76928), (44497, 31867, 12288)]),
    ("default", "circuit", "hbm", [(53412, 40132, 76928), (44622, 32012, 12288)]),
    ("default", "circuit", "hbm x8", [(51070, 38245, 76928), (44534, 31924, 12288)]),
    ("chunk8", "circuit", "ideal", [(75740, 55635, 76928), (61541, 48591, 12288)]),
    ("chunk8", "circuit", "hbm", [(88225, 62212, 76928), (61732, 48802, 12288)]),
    ("chunk8", "circuit", "hbm x8", [(86692, 61799, 76928), (61602, 48672, 12288)]),
    ("chunk64", "circuit", "ideal", [(45668, 32827, 76928), (41709, 29079, 12288)]),
    ("chunk64", "circuit", "hbm", [(51096, 37674, 76928), (41784, 29174, 12288)]),
    ("chunk64", "circuit", "hbm x8", [(48187, 35432, 76928), (41736, 29126, 12288)]),
    ("mshrs2", "circuit", "ideal", [(55898, 40753, 76928), (44563, 31933, 12288)]),
    ("mshrs2", "circuit", "hbm", [(67691, 49909, 76928), (44844, 32234, 12288)]),
    ("mshrs2", "circuit", "hbm x8", [(65366, 48227, 76928), (44752, 32142, 12288)]),
    ("mshrs16", "circuit", "ideal", [(49576, 36335, 76928), (44497, 31867, 12288)]),
    ("mshrs16", "circuit", "hbm", [(53412, 40132, 76928), (44622, 32012, 12288)]),
    ("mshrs16", "circuit", "hbm x8", [(51070, 38245, 76928), (44534, 31924, 12288)]),
    ("vlsu1", "circuit", "ideal", [(225791, 212550, 76928), (220712, 208082, 12288)]),
    ("vlsu1", "circuit", "hbm", [(231234, 217954, 76928), (222444, 209834, 12288)]),
    ("vlsu1", "circuit", "hbm x8", [(228977, 216152, 76928), (222426, 209816, 12288)]),
    ("gii1", "circuit", "ideal", [(45050, 31809, 76928), (39971, 27341, 12288)]),
    ("gii1", "circuit", "hbm", [(48982, 35702, 76928), (40192, 27582, 12288)]),
    ("gii1", "circuit", "hbm x8", [(46624, 33799, 76928), (40170, 27560, 12288)]),
    ("llc8k", "circuit", "ideal", [(49476, 36235, 101056), (49476, 36235, 101056)]),
    ("llc8k", "circuit", "hbm", [(53688, 40408, 101056), (53688, 40408, 101056)]),
    ("llc8k", "circuit", "hbm x8", [(51162, 38337, 101056), (51162, 38337, 101056)]),
    ("default", "random_uniform", "ideal", [(45744, 32619, 70656), (41184, 28587, 12288)]),
    ("default", "random_uniform", "hbm", [(49362, 36193, 70656), (41412, 28835, 12288)]),
    ("default", "random_uniform", "hbm x8", [(47167, 34398, 70656), (41353, 28776, 12288)]),
    ("chunk8", "random_uniform", "ideal", [(69214, 49513, 70656), (56446, 43561, 12288)]),
    ("chunk8", "random_uniform", "hbm", [(80865, 55480, 70656), (56825, 43960, 12288)]),
    ("chunk8", "random_uniform", "hbm x8", [(79322, 54889, 70656), (56765, 43900, 12288)]),
    ("chunk64", "random_uniform", "ideal", [(42235, 29468, 70656), (38683, 26084, 12288)]),
    ("chunk64", "random_uniform", "hbm", [(47930, 34550, 70656), (38903, 26325, 12288)]),
    ("chunk64", "random_uniform", "hbm x8", [(44645, 31971, 70656), (38853, 26275, 12288)]),
    ("mshrs2", "random_uniform", "ideal", [(51703, 36946, 70656), (41431, 28834, 12288)]),
    ("mshrs2", "random_uniform", "hbm", [(63011, 46050, 70656), (42232, 29655, 12288)]),
    ("mshrs2", "random_uniform", "hbm x8", [(60865, 44400, 70656), (42097, 29520, 12288)]),
    ("mshrs16", "random_uniform", "ideal", [(45744, 32619, 70656), (41184, 28587, 12288)]),
    ("mshrs16", "random_uniform", "hbm", [(49362, 36193, 70656), (41412, 28835, 12288)]),
    ("mshrs16", "random_uniform", "hbm x8", [(47167, 34398, 70656), (41353, 28776, 12288)]),
    ("vlsu1", "random_uniform", "ideal", [(203919, 190794, 70656), (199359, 186762, 12288)]),
    ("vlsu1", "random_uniform", "hbm", [(209062, 195893, 70656), (201112, 188535, 12288)]),
    ("vlsu1", "random_uniform", "hbm x8", [(206893, 194124, 70656), (201079, 188502, 12288)]),
    ("gii1", "random_uniform", "ideal", [(41635, 28510, 70656), (37077, 24480, 12288)]),
    ("gii1", "random_uniform", "hbm", [(45439, 32270, 70656), (37489, 24912, 12288)]),
    ("gii1", "random_uniform", "hbm x8", [(43233, 30464, 70656), (37419, 24842, 12288)]),
    ("llc8k", "random_uniform", "ideal", [(45679, 32554, 98432), (45679, 32554, 98432)]),
    ("llc8k", "random_uniform", "hbm", [(49528, 36359, 97792), (49528, 36359, 97792)]),
    ("llc8k", "random_uniform", "hbm x8", [(47223, 34454, 97856), (47223, 34454, 97856)]),
];

/// The same grid under `ExecMode::Analytic`: the model's replay of the
/// per-chunk LLC access order, recorded before that replay walked lines
/// instead of elements. The `llc8k` rows evict, so they pin the LRU
/// order the replay leaves behind, not only hit and miss counts.
#[rustfmt::skip]
const ANALYTIC: &[Row] = &[
    ("default", "banded_fem", "ideal", [(65450, 51974, 102464), (58092, 45330, 12288)]),
    ("default", "banded_fem", "hbm", [(72083, 58402, 102464), (58118, 45330, 12288)]),
    ("default", "banded_fem", "hbm x8", [(70321, 57087, 102464), (58118, 45330, 12288)]),
    ("chunk8", "banded_fem", "ideal", [(106703, 83210, 102464), (85745, 72530, 12288)]),
    ("chunk8", "banded_fem", "hbm", [(131988, 96912, 102464), (86744, 73503, 12288)]),
    ("chunk8", "banded_fem", "hbm x8", [(130142, 96139, 102464), (86658, 73417, 12288)]),
    ("chunk64", "banded_fem", "ideal", [(58670, 45646, 102464), (53572, 40810, 12288)]),
    ("chunk64", "banded_fem", "hbm", [(62365, 49249, 102464), (53598, 40810, 12288)]),
    ("chunk64", "banded_fem", "hbm x8", [(60603, 47652, 102464), (53598, 40810, 12288)]),
    ("mshrs2", "banded_fem", "ideal", [(65450, 51974, 102464), (58092, 45330, 12288)]),
    ("mshrs2", "banded_fem", "hbm", [(72083, 58402, 102464), (58118, 45330, 12288)]),
    ("mshrs2", "banded_fem", "hbm x8", [(70321, 57087, 102464), (58118, 45330, 12288)]),
    ("mshrs16", "banded_fem", "ideal", [(65450, 51974, 102464), (58092, 45330, 12288)]),
    ("mshrs16", "banded_fem", "hbm", [(72083, 58402, 102464), (58118, 45330, 12288)]),
    ("mshrs16", "banded_fem", "hbm x8", [(70321, 57087, 102464), (58118, 45330, 12288)]),
    ("vlsu1", "banded_fem", "ideal", [(65450, 51974, 102464), (58092, 45330, 12288)]),
    ("vlsu1", "banded_fem", "hbm", [(72083, 58402, 102464), (58118, 45330, 12288)]),
    ("vlsu1", "banded_fem", "hbm x8", [(70321, 57087, 102464), (58118, 45330, 12288)]),
    ("gii1", "banded_fem", "ideal", [(36450, 22974, 102464), (29092, 16330, 12288)]),
    ("gii1", "banded_fem", "hbm", [(44685, 31005, 102464), (30721, 17933, 12288)]),
    ("gii1", "banded_fem", "hbm x8", [(42839, 29604, 102464), (30635, 17847, 12288)]),
    ("llc8k", "banded_fem", "ideal", [(65450, 51974, 102464), (65450, 51974, 102464)]),
    ("llc8k", "banded_fem", "hbm", [(72083, 58402, 102464), (72083, 58402, 102464)]),
    ("llc8k", "banded_fem", "hbm x8", [(70321, 57087, 102464), (70321, 57087, 102464)]),
    ("default", "circuit", "ideal", [(49919, 36840, 76928), (44679, 32050, 12288)]),
    ("default", "circuit", "hbm", [(54636, 41419, 76928), (44705, 32050, 12288)]),
    ("default", "circuit", "hbm x8", [(53374, 40437, 76928), (44705, 32050, 12288)]),
    ("chunk8", "circuit", "ideal", [(79039, 58984, 76928), (64199, 51250, 12288)]),
    ("chunk8", "circuit", "hbm", [(97071, 68997, 76928), (65060, 52085, 12288)]),
    ("chunk8", "circuit", "hbm x8", [(95723, 68391, 76928), (64974, 51999, 12288)]),
    ("chunk64", "circuit", "ideal", [(45119, 32360, 76928), (41479, 28850, 12288)]),
    ("chunk64", "circuit", "hbm", [(47756, 34939, 76928), (41505, 28850, 12288)]),
    ("chunk64", "circuit", "hbm x8", [(46494, 33757, 76928), (41505, 28850, 12288)]),
    ("mshrs2", "circuit", "ideal", [(49919, 36840, 76928), (44679, 32050, 12288)]),
    ("mshrs2", "circuit", "hbm", [(54636, 41419, 76928), (44705, 32050, 12288)]),
    ("mshrs2", "circuit", "hbm x8", [(53374, 40437, 76928), (44705, 32050, 12288)]),
    ("mshrs16", "circuit", "ideal", [(49919, 36840, 76928), (44679, 32050, 12288)]),
    ("mshrs16", "circuit", "hbm", [(54636, 41419, 76928), (44705, 32050, 12288)]),
    ("mshrs16", "circuit", "hbm x8", [(53374, 40437, 76928), (44705, 32050, 12288)]),
    ("vlsu1", "circuit", "ideal", [(49919, 36840, 76928), (44679, 32050, 12288)]),
    ("vlsu1", "circuit", "hbm", [(54636, 41419, 76928), (44705, 32050, 12288)]),
    ("vlsu1", "circuit", "hbm x8", [(53374, 40437, 76928), (44705, 32050, 12288)]),
    ("gii1", "circuit", "ideal", [(29443, 16364, 76928), (24203, 11574, 12288)]),
    ("gii1", "circuit", "hbm", [(35107, 21889, 76928), (25176, 12521, 12288)]),
    ("gii1", "circuit", "hbm x8", [(33759, 20823, 76928), (25090, 12435, 12288)]),
    ("llc8k", "circuit", "ideal", [(49919, 36840, 100928), (49919, 36840, 100928)]),
    ("llc8k", "circuit", "hbm", [(54636, 41419, 100928), (54636, 41419, 100928)]),
    ("llc8k", "circuit", "hbm x8", [(53374, 40437, 100928), (53374, 40437, 100928)]),
    ("default", "random_uniform", "ideal", [(46070, 33090, 70656), (41366, 28770, 12288)]),
    ("default", "random_uniform", "hbm", [(50311, 37209, 70656), (41407, 28785, 12288)]),
    ("default", "random_uniform", "hbm x8", [(49156, 36294, 70656), (41392, 28770, 12288)]),
    ("chunk8", "random_uniform", "ideal", [(72278, 52578, 70656), (58934, 46050, 12288)]),
    ("chunk8", "random_uniform", "hbm", [(88349, 60871, 70656), (59573, 46663, 12288)]),
    ("chunk8", "random_uniform", "hbm x8", [(87123, 60305, 70656), (59487, 46577, 12288)]),
    ("chunk64", "random_uniform", "ideal", [(41750, 29058, 70656), (38486, 25890, 12288)]),
    ("chunk64", "random_uniform", "hbm", [(44104, 31362, 70656), (38512, 25890, 12288)]),
    ("chunk64", "random_uniform", "hbm x8", [(42964, 30282, 70656), (38512, 25890, 12288)]),
    ("mshrs2", "random_uniform", "ideal", [(46070, 33090, 70656), (41366, 28770, 12288)]),
    ("mshrs2", "random_uniform", "hbm", [(50311, 37209, 70656), (41407, 28785, 12288)]),
    ("mshrs2", "random_uniform", "hbm x8", [(49156, 36294, 70656), (41392, 28770, 12288)]),
    ("mshrs16", "random_uniform", "ideal", [(46070, 33090, 70656), (41366, 28770, 12288)]),
    ("mshrs16", "random_uniform", "hbm", [(50311, 37209, 70656), (41407, 28785, 12288)]),
    ("mshrs16", "random_uniform", "hbm x8", [(49156, 36294, 70656), (41392, 28770, 12288)]),
    ("vlsu1", "random_uniform", "ideal", [(46070, 33090, 70656), (41366, 28770, 12288)]),
    ("vlsu1", "random_uniform", "hbm", [(50311, 37209, 70656), (41407, 28785, 12288)]),
    ("vlsu1", "random_uniform", "hbm x8", [(49156, 36294, 70656), (41392, 28770, 12288)]),
    ("gii1", "random_uniform", "ideal", [(27762, 14782, 70656), (23058, 10462, 12288)]),
    ("gii1", "random_uniform", "hbm", [(32483, 19381, 70656), (23579, 10957, 12288)]),
    ("gii1", "random_uniform", "hbm x8", [(31257, 18395, 70656), (23493, 10871, 12288)]),
    ("llc8k", "random_uniform", "ideal", [(46070, 33090, 97344), (46070, 33090, 97344)]),
    ("llc8k", "random_uniform", "hbm", [(50311, 37209, 97344), (50311, 37209, 97344)]),
    ("llc8k", "random_uniform", "hbm x8", [(49156, 36294, 97344), (49156, 36294, 97344)]),
];

const CONFIGS: [&str; 8] = [
    "default", "chunk8", "chunk64", "mshrs2", "mshrs16", "vlsu1", "gii1", "llc8k",
];
const MATRICES: [&str; 3] = ["banded_fem", "circuit", "random_uniform"];
const BACKENDS: [&str; 3] = ["ideal", "hbm", "hbm x8"];

fn config(name: &str) -> BaseConfig {
    let d = BaseConfig::default();
    match name {
        "default" => d,
        "chunk8" => BaseConfig { chunk: 8, ..d },
        "chunk64" => BaseConfig { chunk: 64, ..d },
        "mshrs2" => BaseConfig { mshrs: 2, ..d },
        "mshrs16" => BaseConfig { mshrs: 16, ..d },
        "vlsu1" => BaseConfig {
            vlsu_outstanding: 1,
            ..d
        },
        "gii1" => BaseConfig {
            gather_issue_interval: 1,
            ..d
        },
        "llc8k" => BaseConfig {
            llc: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            ..d
        },
        other => panic!("unknown config '{other}'"),
    }
}

fn matrix(name: &str) -> Csr {
    match name {
        "banded_fem" => banded_fem(768, 8, 48, 5),
        "circuit" => circuit(768, 6, 16, 0.2, 4, 6),
        "random_uniform" => random_uniform(768, 768, 6, 7),
        other => panic!("unknown matrix '{other}'"),
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

fn of_iter(r: &IterReport) -> Counts {
    (r.cycles, r.indir_cycles, r.offchip_bytes)
}

fn measure(mode: ExecMode, cfg: &str, csr: &Csr, backend_name: &str) -> [Counts; 2] {
    let engine = SpmvEngine::builder()
        .backend(backend(backend_name))
        .system(SystemKind::Base)
        .exec_mode(mode)
        .base_config(config(cfg))
        .build();
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let x2: Vec<f64> = (0..csr.cols()).map(|i| 2.0 - golden_x(i)).collect();
    let run = engine.prepare(csr).run(&x);
    assert!(run.verified, "golden mismatch");
    let mut plan = engine.prepare(csr);
    let mut y = vec![0.0; csr.rows()];
    plan.run_into(&x, &mut y);
    let warm = plan.run_into(&x2, &mut y);
    [
        (run.cycles, run.indir_cycles, run.offchip_bytes),
        of_iter(&warm),
    ]
}

/// Measures the whole grid in `mode` and compares it with `table`.
fn check_grid(mode: ExecMode, table: &[Row]) {
    let mut drifted = Vec::new();
    let mut measured = Vec::new();
    for m in MATRICES {
        let csr = matrix(m);
        for cfg in CONFIGS {
            for b in BACKENDS {
                let got = measure(mode, cfg, &csr, b);
                let row = format!("    ({cfg:?}, {m:?}, {b:?}, {got:?}),");
                let want = table
                    .iter()
                    .find(|r| (r.0, r.1, r.2) == (cfg, m, b))
                    .map(|r| r.3);
                if want != Some(got) {
                    drifted.push(row.clone());
                }
                measured.push(row);
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{mode} baseline counts drifted; drifted rows:\n{}\nall measured rows:\n{}",
        drifted.join("\n"),
        measured.join("\n")
    );
    assert_eq!(
        table.len(),
        measured.len(),
        "8 configs x 3 matrices x 3 backends"
    );
}

#[test]
fn baseline_counts_match_the_pinned_table() {
    check_grid(ExecMode::CycleAccurate, PINNED);
}

#[test]
fn analytic_baseline_counts_match_the_pinned_table() {
    check_grid(ExecMode::Analytic, ANALYTIC);
}
