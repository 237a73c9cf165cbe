//! Liveness fixtures for every rule: each one must trip on a minimal
//! violating source, stay quiet on the compliant variant, be
//! suppressible by a well-formed allow-marker, and ignore trigger text
//! hidden in strings or comments. A rule without a must-trip fixture
//! could silently die in a refactor and nobody would notice — these
//! tests are the linter's own regression net.

use nmpic_lint::{lint_source, FileReport, Rule};

const LIB: &str = "crates/foo/src/algo.rs";
const ROOT: &str = "crates/foo/src/lib.rs";
const BIN: &str = "crates/foo/src/bin/tool.rs";
const TEST: &str = "crates/foo/tests/check.rs";
const MEM: &str = "crates/mem/src/cache.rs";
const CLOCK_OK: &str = "crates/bench/src/timing.rs";

fn rules(r: &FileReport) -> Vec<Rule> {
    r.violations.iter().map(|v| v.rule).collect()
}

fn assert_clean(r: &FileReport) {
    assert!(
        r.violations.is_empty(),
        "expected clean, got: {:?}",
        r.violations
    );
}

// --- L1: narrowing casts -------------------------------------------------

#[test]
fn l1_trips_on_narrowing_casts_in_lib_code() {
    for ty in ["u32", "u16", "u8"] {
        let src = format!("pub fn f(x: u64) -> {ty} {{\n    x as {ty}\n}}\n");
        let r = lint_source(LIB, &src);
        assert_eq!(rules(&r), [Rule::NarrowingCast], "as {ty}");
        assert_eq!(r.violations[0].line, 2);
    }
}

#[test]
fn l1_passes_on_widening_and_checked_conversions() {
    let src = "pub fn f(x: u32) -> u64 {\n    let _ = u32::try_from(9u64);\n    x as u64\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l1_usize_subrule_applies_only_inside_crates_mem() {
    let src = "pub fn f(addr: u64) -> usize {\n    addr as usize\n}\n";
    let r = lint_source(MEM, src);
    assert_eq!(rules(&r), [Rule::NarrowingCast], "mem path must trip");
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l1_is_relaxed_in_bins_and_tests() {
    let src = "fn main() {\n    let _ = 9u64 as u32;\n}\n";
    assert_clean(&lint_source(BIN, src));
    assert_clean(&lint_source(TEST, src));
}

// --- L2: panic paths -----------------------------------------------------

#[test]
fn l2_trips_on_unwrap_expect_and_panic() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::PanicPath]);
    let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.expect(\"set\")\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::PanicPath]);
    let src = "pub fn f() {\n    panic!(\"boom\");\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::PanicPath]);
}

#[test]
fn l2_passes_on_typed_error_flow() {
    let src = "pub fn f(o: Option<u32>) -> Result<u32, String> {\n    o.ok_or_else(|| \"missing\".to_string())\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l2_is_relaxed_in_bins_tests_and_cfg_test_modules() {
    let src = "fn main() {\n    std::env::args().next().unwrap();\n}\n";
    assert_clean(&lint_source(BIN, src));
    assert_clean(&lint_source(TEST, src));
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u32>.unwrap();\n    }\n}\n";
    assert_clean(&lint_source(LIB, src));
}

// --- L3: float accumulation over unordered iteration ---------------------

#[test]
fn l3_trips_on_accumulating_over_a_hashmap() {
    let src = "use std::collections::HashMap;\npub fn total(m: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_, v) in m.iter() {\n        acc += v;\n    }\n    acc\n}\n";
    let r = lint_source(LIB, src);
    assert_eq!(rules(&r), [Rule::UnorderedFloat]);
    assert_eq!(r.violations[0].line, 4, "flags the `for`, not the `+=`");
}

#[test]
fn l3_trips_on_same_line_sum_over_a_hash_container() {
    let src = "use std::collections::HashMap;\npub fn total(m: &HashMap<u32, f64>) -> f64 {\n    m.values().sum::<f64>()\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::UnorderedFloat]);
}

#[test]
fn l3_passes_when_keys_are_sorted_first() {
    let src = "use std::collections::HashMap;\npub fn total(m: &HashMap<u32, f64>) -> f64 {\n    let mut keys: Vec<u32> = m.keys().copied().collect();\n    keys.sort_unstable();\n    let mut acc = 0.0;\n    for k in keys {\n        acc += m[&k];\n    }\n    acc\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l3_passes_on_ordered_containers() {
    let src = "pub fn total(v: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in v {\n        acc += x;\n    }\n    acc\n}\n";
    assert_clean(&lint_source(LIB, src));
}

// --- L4: forbid(unsafe_code) in crate roots ------------------------------

#[test]
fn l4_trips_on_a_crate_root_without_forbid_unsafe() {
    let r = lint_source(ROOT, "pub fn f() {}\n");
    assert_eq!(rules(&r), [Rule::ForbidUnsafe]);
    assert_eq!(r.violations[0].line, 1);
}

#[test]
fn l4_passes_with_the_attribute_and_ignores_non_roots() {
    let src = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert_clean(&lint_source(ROOT, src));
    assert_clean(&lint_source(LIB, "pub fn f() {}\n"));
}

// --- L5: Relaxed ordering justification ----------------------------------

#[test]
fn l5_trips_on_unjustified_relaxed() {
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\npub fn f(n: &AtomicUsize) -> usize {\n    n.fetch_add(1, Ordering::Relaxed)\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::RelaxedOrdering]);
}

#[test]
fn l5_passes_with_a_nearby_justification_comment() {
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\npub fn f(n: &AtomicUsize) -> usize {\n    // Relaxed suffices: the counter is only a statistic.\n    n.fetch_add(1, Ordering::Relaxed)\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l5_justification_window_is_three_lines() {
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n// Relaxed suffices: ticket counter.\npub fn f(n: &AtomicUsize) -> usize {\n    let x = 1;\n    let y = x;\n    let z = y;\n    n.fetch_add(z, Ordering::Relaxed)\n}\n";
    assert_eq!(
        rules(&lint_source(LIB, src)),
        [Rule::RelaxedOrdering],
        "a comment four lines up must not count"
    );
}

// --- L6: wall-clock reads ------------------------------------------------

#[test]
fn l6_trips_everywhere_except_the_timing_module() {
    let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::WallClock]);
    assert_eq!(
        rules(&lint_source(BIN, src)),
        [Rule::WallClock],
        "bins measure through timing::Stopwatch too"
    );
    assert_clean(&lint_source(CLOCK_OK, src));
    let sys = "pub fn f() -> u64 {\n    let _ = std::time::SystemTime::now();\n    0\n}\n";
    assert_eq!(rules(&lint_source(LIB, sys)), [Rule::WallClock]);
}

// --- L7: audited locks in the serving front-end ---------------------------

const SERVICE: &str = "crates/system/src/service/mod.rs";

#[test]
fn l7_trips_on_unaudited_mutex_and_rwlock_in_the_service() {
    let src = "use std::sync::Mutex;\npub struct S {\n    state: Mutex<u32>,\n}\n";
    let r = lint_source(SERVICE, src);
    assert_eq!(rules(&r), [Rule::ServiceLock, Rule::ServiceLock]);
    let src = "pub struct S {\n    plans: std::sync::RwLock<u32>,\n}\n";
    assert_eq!(rules(&lint_source(SERVICE, src)), [Rule::ServiceLock]);
}

#[test]
fn l7_applies_only_to_the_service_module() {
    let src = "use std::sync::Mutex;\npub struct S {\n    state: Mutex<u32>,\n}\n";
    assert_clean(&lint_source(LIB, src));
    assert_clean(&lint_source(BIN, src));
    // Every file of the split service module is in scope...
    assert_eq!(
        rules(&lint_source("crates/system/src/service/drain.rs", src)),
        [Rule::ServiceLock, Rule::ServiceLock]
    );
    // ...but its siblings in the same crate are not.
    assert_clean(&lint_source("crates/system/src/solve.rs", src));
}

#[test]
fn l7_guard_types_and_test_code_stay_legal_unmarked() {
    // `MutexGuard`/`RwLockReadGuard` are distinct identifier tokens.
    let src = "use std::sync::MutexGuard;\npub fn f(g: MutexGuard<'_, u32>) -> u32 {\n    *g\n}\n";
    assert_clean(&lint_source(SERVICE, src));
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    #[test]\n    fn t() {\n        let _ = Mutex::new(0u32);\n    }\n}\n";
    assert_clean(&lint_source(SERVICE, src));
}

#[test]
fn l7_is_suppressible_by_an_audited_marker() {
    let src = "pub struct S {\n    // nmpic-lint: allow(L7) — held briefly: push/pop only, never across run_batch\n    state: std::sync::Mutex<u32>,\n}\n";
    let r = lint_source(SERVICE, src);
    assert_clean(&r);
    assert_eq!(r.suppressed, 1);
    assert!(Rule::from_name("service-lock").is_some());
}

// --- L8: hand-rolled tick loops --------------------------------------------

const SIM: &str = "crates/sim/src/lib.rs";
const TICK_LOOP: &str = "pub fn run(mut busy: u32) -> u64 {\n    let mut now = 0u64;\n    while busy > 0 {\n        busy -= 1;\n        now += 1;\n    }\n    now\n}\n";

#[test]
fn l8_trips_on_a_hand_rolled_tick_in_lib_code() {
    let r = lint_source(LIB, TICK_LOOP);
    assert_eq!(rules(&r), [Rule::TickLoop]);
    assert_eq!(r.violations[0].line, 5);
    let field = "pub fn step(s: &mut S) {\n    s.now+=1;\n}\n";
    assert_eq!(rules(&lint_source(LIB, field)), [Rule::TickLoop]);
}

#[test]
fn l8_passes_on_the_clock_and_on_other_increments() {
    let src = "pub fn run(mut busy: u32) -> u64 {\n    let mut clk = nmpic_sim::SimClock::new(\"run\", 100);\n    while busy > 0 {\n        busy -= 1;\n        clk.tick();\n    }\n    clk.now()\n}\n";
    assert_clean(&lint_source(LIB, src));
    // Only the exact tick is the rule's business.
    let src = "pub fn f(mut now: u64, mut known: u64) -> u64 {\n    now += 10;\n    known += 1;\n    now + known\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn l8_exempts_the_sim_crate_bins_tests_and_cfg_test_modules() {
    let src = format!("#![forbid(unsafe_code)]\n{TICK_LOOP}");
    assert_clean(&lint_source(SIM, &src));
    assert_clean(&lint_source(BIN, TICK_LOOP));
    assert_clean(&lint_source(TEST, TICK_LOOP));
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut now = 0;\n        now += 1;\n        assert_eq!(now, 1);\n    }\n}\n";
    assert_clean(&lint_source(LIB, src));
}

// --- Allow-marker protocol -----------------------------------------------

#[test]
fn markers_suppress_on_the_same_line() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap() // nmpic-lint: allow(L2) — invariant: caller checked is_some\n}\n";
    let r = lint_source(LIB, src);
    assert_clean(&r);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn markers_on_their_own_line_cover_the_next_code_line() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n    // nmpic-lint: allow(L2) — invariant: caller checked is_some\n    o.unwrap()\n}\n";
    let r = lint_source(LIB, src);
    assert_clean(&r);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn markers_do_not_bleed_past_the_next_code_line() {
    let src = "pub fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n    // nmpic-lint: allow(L2) — invariant: caller checked is_some\n    let x = a.unwrap();\n    x + b.unwrap()\n}\n";
    let r = lint_source(LIB, src);
    assert_eq!(rules(&r), [Rule::PanicPath], "second unwrap stays flagged");
    assert_eq!(r.violations[0].line, 4);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn markers_accept_slugs_and_only_suppress_the_named_rule() {
    let src = "pub fn f(o: Option<u64>) -> u32 {\n    // nmpic-lint: allow(panic-path) — invariant: caller checked is_some\n    o.unwrap() as u32\n}\n";
    let r = lint_source(LIB, src);
    assert_eq!(
        rules(&r),
        [Rule::NarrowingCast],
        "the cast is not covered by a panic-path marker"
    );
    assert_eq!(r.suppressed, 1);
}

#[test]
fn malformed_markers_are_their_own_violation() {
    // Unknown rule name; the hint spans the whole rule list.
    let src = "pub fn f() {} // nmpic-lint: allow(L9) — no such rule\n";
    let r = lint_source(LIB, src);
    assert_eq!(rules(&r), [Rule::Marker]);
    assert!(
        r.violations[0].message.contains("want L1-L8"),
        "{}",
        r.violations[0].message
    );
    // Missing mandatory reason.
    let src = "pub fn f() {} // nmpic-lint: allow(L1)\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::Marker]);
    // Reason that is only separator punctuation.
    let src = "pub fn f() {} // nmpic-lint: allow(L1) —\n";
    assert_eq!(rules(&lint_source(LIB, src)), [Rule::Marker]);
    // Marker hygiene holds even in test files.
    let src = "fn t() {} // nmpic-lint: allow(L1)\n";
    assert_eq!(rules(&lint_source(TEST, src)), [Rule::Marker]);
}

#[test]
fn m0_cannot_be_allowed_away() {
    assert!(Rule::from_name("M0").is_none());
    assert!(Rule::from_name("marker").is_none());
    assert!(Rule::from_name("L2").is_some());
    assert!(Rule::from_name("wall-clock").is_some());
}

// --- False-positive guards: strings and comments are invisible -----------

#[test]
fn trigger_text_inside_string_literals_does_not_trip() {
    let src = "pub fn f() -> String {\n    \"x as u32 .unwrap() panic! Instant::now Ordering::Relaxed\".to_string()\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn trigger_text_inside_raw_strings_and_comments_does_not_trip() {
    let src = "pub fn f() -> &'static str {\n    // mentions as u32 and .unwrap() and panic! in prose\n    /* Instant::now() in a block comment */\n    r#\"SystemTime inside a raw string\"#\n}\n";
    assert_clean(&lint_source(LIB, src));
}

#[test]
fn prose_mentioning_the_marker_syntax_is_not_a_marker() {
    // A doc comment *explaining* the protocol mid-sentence must neither
    // suppress anything nor count as malformed.
    let src = "/// Write `nmpic-lint: allow(L2) — why` to suppress.\npub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    let r = lint_source(LIB, src);
    assert_eq!(rules(&r), [Rule::PanicPath], "the unwrap stays flagged");
    assert_eq!(r.suppressed, 0);
}
