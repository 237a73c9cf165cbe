//! # nmpic-lint — workspace invariant checker
//!
//! A dependency-free static-analysis pass over every `.rs` file in the
//! workspace, enforcing the domain invariants behind the repo's core
//! contract — bit-identical SpMV results across backends, worker counts,
//! and execution modes — that no generic tool flags:
//!
//! | rule | slug | invariant |
//! |------|------|-----------|
//! | `L1` | `narrowing-cast` | no narrowing `as` casts in library code (`as u32/u16/u8`; `as usize` inside `crates/mem`, whose cast sources are u64 addresses) |
//! | `L2` | `panic-path` | no `unwrap()`/`expect()`/`panic!` in library code outside tests |
//! | `L3` | `unordered-float` | no f64 accumulation driven by `HashMap`/`HashSet` iteration order |
//! | `L4` | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `L5` | `relaxed-ordering` | every `Ordering::Relaxed` carries a justification comment |
//! | `L6` | `wall-clock` | no `Instant::now`/`SystemTime` outside `nmpic_bench::timing` |
//! | `L7` | `service-lock` | no unaudited `std::sync::Mutex`/`RwLock` in the serving front-end (every file under `crates/system/src/service/`) |
//! | `L8` | `tick-loop` | no hand-rolled `now += 1` in library code outside `crates/sim`: simulated time advances through `nmpic_sim::SimClock` |
//!
//! Violations are suppressed only by an explicit, audited marker:
//!
//! ```text
//! // nmpic-lint: allow(L1) — row < rows <= u32::MAX: checked at construction
//! ```
//!
//! on the offending line or alone on the line directly above it. The
//! reason is mandatory — a marker without one is itself a violation
//! (`M0`). Run the checker with `cargo run -p nmpic-lint --release`; it
//! exits non-zero on any unsuppressed violation, which is what the CI
//! `invariants` job gates on.
//!
//! The scanner is hand-rolled (same precedent as the vendored PRNG in
//! `nmpic_sim::rng`): no syn/proc-macro dependency, so the linter builds
//! in well under a second on a cold runner and can never be broken by an
//! upstream parser release. See [`scan`] for exactly what it understands
//! and the accepted false-negative surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;
pub mod scan;

pub use rules::{FileReport, Rule, Violation};

use std::path::{Path, PathBuf};

/// How a file's path classifies it for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies.
    Lib,
    /// Executable source (`src/bin/`, `examples/`, `benches/`): panic
    /// and narrowing-cast rules are relaxed (a CLI aborting on error is
    /// its contract), determinism rules (L3, L5, L6) still apply.
    Bin,
    /// Test source (`tests/` trees and out-of-line `tests.rs` modules):
    /// only marker hygiene applies.
    Test,
}

/// Workspace-level lint policy: which paths the `as usize` subrule and
/// the wall-clock exemption apply to.
#[derive(Debug, Clone, Default)]
pub struct Workspace;

impl Workspace {
    /// Classifies a workspace-relative path.
    pub fn classify(&self, path: &str) -> FileKind {
        let p = path.replace('\\', "/");
        if p.starts_with("tests/") || p.contains("/tests/") || p.ends_with("/tests.rs") {
            FileKind::Test
        } else if p.starts_with("examples/")
            || p.contains("/examples/")
            || p.contains("/src/bin/")
            || p.contains("/benches/")
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }

    /// L4 applies to crate roots (every `src/lib.rs`).
    pub fn is_crate_root(&self, path: &str) -> bool {
        let p = path.replace('\\', "/");
        p == "src/lib.rs" || p.ends_with("/src/lib.rs")
    }

    /// L1's `as usize` subrule: only inside `crates/mem`, where the
    /// cast sources are u64 byte addresses and line numbers that would
    /// silently truncate on a 32-bit target.
    pub fn usize_cast_applies(&self, path: &str) -> bool {
        path.replace('\\', "/").contains("crates/mem/src/")
    }

    /// L6 exemption: the one module allowed to read the wall clock.
    pub fn clock_exempt(&self, path: &str) -> bool {
        path.replace('\\', "/").ends_with("bench/src/timing.rs")
    }

    /// L7 scope: the serving front-end (every file under
    /// `system/src/service/`), whose concurrency contract is
    /// atomics-first — every blocking `Mutex`/`RwLock` there must be
    /// individually audited.
    pub fn service_lock_applies(&self, path: &str) -> bool {
        path.replace('\\', "/").contains("system/src/service/")
    }

    /// L8 scope: everywhere but `crates/sim`, the crate that owns
    /// simulated time.
    pub fn tick_loop_applies(&self, path: &str) -> bool {
        !path.replace('\\', "/").contains("crates/sim/src/")
    }
}

/// Lints one source text under its workspace-relative `path` (the path
/// drives classification and the path-scoped rules).
pub fn lint_source(path: &str, source: &str) -> FileReport {
    let ws = Workspace;
    let lines = scan::scan(source);
    let ctx = rules::FileContext {
        path,
        kind: ws.classify(path),
        lines: &lines,
        ws: &ws,
    };
    rules::lint_file(&ctx)
}

/// Whole-workspace lint result.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Files scanned.
    pub files: usize,
    /// Unsuppressed violations across all files, sorted by path and line.
    pub violations: Vec<Violation>,
    /// Violations silenced by well-formed allow-markers.
    pub suppressed: usize,
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "results", "related", "node_modules"];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks every `.rs` file under `root` (skipping `target/`, `results/`,
/// VCS and hidden directories) and lints each one.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut report = WorkspaceReport::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let fr = lint_source(&rel, &source);
        report.files += 1;
        report.suppressed += fr.suppressed;
        report.violations.extend(fr.violations);
    }
    report
        .violations
        .sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(report)
}
