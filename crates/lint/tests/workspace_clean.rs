//! The workspace gates on itself: linting the whole repo from the test
//! suite must find zero unsuppressed violations, so `cargo test` fails
//! the moment a new cast/panic/clock read lands without either a fix or
//! an audited allow-marker. This is the same check CI's `invariants`
//! job runs via the CLI.

use std::path::Path;

#[test]
fn workspace_has_zero_unsuppressed_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = nmpic_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        report.files > 50,
        "walk looks truncated: only {} files scanned",
        report.files
    );
    assert!(
        report.violations.is_empty(),
        "{} unsuppressed violation(s):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.suppressed > 0,
        "no marker suppressed anything — the allow-marker path looks dead"
    );
}

/// Allow-markers in the workspace's `.rs` files. The count may only
/// fall: a change that removes markers lowers this literal to the new
/// count in the same commit.
const MARKER_CEILING: usize = 65;

/// Directories the marker count skips, as `lint_workspace` does.
const SKIP_DIRS: [&str; 4] = ["target", "results", "related", "node_modules"];

#[test]
fn allow_markers_only_ever_decrease() {
    // Spelled in two pieces so this file does not count itself.
    let marker = concat!("nmpic-lint", ": allow");
    let mut dirs = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")];
    let (mut files, mut markers) = (0, 0);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let source = std::fs::read_to_string(&path).expect("readable source");
                markers += source.lines().filter(|l| l.contains(marker)).count();
                files += 1;
            }
        }
    }
    assert!(files > 50, "walk looks truncated: only {files} files read");
    assert!(
        markers <= MARKER_CEILING,
        "{markers} allow-markers, above the ceiling of {MARKER_CEILING}: replace the new \
         marker with a checked conversion or a typed error instead"
    );
    assert!(
        markers == MARKER_CEILING,
        "{markers} allow-markers, below the ceiling of {MARKER_CEILING}: lower \
         MARKER_CEILING in {} to {markers} so the count cannot grow back",
        file!()
    );
}
