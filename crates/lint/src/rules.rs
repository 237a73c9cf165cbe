//! The domain rules and the allow-marker protocol.
//!
//! Every rule matches on the scanner's *code* channel only
//! ([`crate::scan::Line::code`]), so trigger tokens inside strings, doc
//! examples, and comments are invisible. Suppression is explicit and
//! audited: `// nmpic-lint: allow(<rule>) — <reason>` on the offending
//! line (or alone on the line directly above it); a marker without a
//! readable reason is itself a violation (`M0`).

use crate::scan::Line;
use crate::{FileKind, Workspace};

/// The rules enforced by `nmpic-lint`. Display ids (`L1` onwards, in the
/// order of [`Rule::ALL`]) match the issue/README nomenclature; slugs are
/// accepted interchangeably in allow-markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1 — no narrowing `as` casts (`as u32`/`u16`/`u8` everywhere;
    /// `as usize` additionally inside `crates/mem`, where the cast
    /// source is u64 address/line math that would truncate on a 32-bit
    /// target). Use `try_into` + a typed error, or cite the bound.
    NarrowingCast,
    /// L2 — no `unwrap()`/`expect()`/`panic!` in library code outside
    /// tests: fallible paths carry typed errors; true invariants get an
    /// invariant-named `expect` behind an allow-marker.
    PanicPath,
    /// L3 — no float accumulation driven by unordered (`HashMap`/
    /// `HashSet`) iteration: iteration order would change the f64
    /// rounding sequence and break the byte-identity contract.
    UnorderedFloat,
    /// L4 — every crate root carries `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// L5 — every `Ordering::Relaxed` carries a justification comment
    /// mentioning `Relaxed` on the same or one of the three preceding
    /// lines.
    RelaxedOrdering,
    /// L6 — no `Instant::now`/`SystemTime` outside `nmpic_bench::timing`:
    /// wall-clock reads anywhere else would leak nondeterminism into
    /// simulated results.
    WallClock,
    /// L7 — every `std::sync::Mutex`/`RwLock` in the serving front-end
    /// (`crates/system/src/service/`) carries an audited allow-marker:
    /// the service's hot paths are atomics-first, so each blocking lock
    /// must name the reason it is held briefly and never nested.
    ServiceLock,
    /// L8 — no hand-rolled `now += 1` in library code outside
    /// `crates/sim`: simulated time advances through
    /// `nmpic_sim::SimClock`, so the cycle budget and the deadlock
    /// watchdog exist once.
    TickLoop,
    /// M0 — a malformed `nmpic-lint:` marker: unparseable, naming an
    /// unknown rule, or missing the mandatory reason text.
    Marker,
}

impl Rule {
    /// All suppressible rules, for marker validation.
    pub const ALL: [Rule; 8] = [
        Rule::NarrowingCast,
        Rule::PanicPath,
        Rule::UnorderedFloat,
        Rule::ForbidUnsafe,
        Rule::RelaxedOrdering,
        Rule::WallClock,
        Rule::ServiceLock,
        Rule::TickLoop,
    ];

    /// Short display id (`L1`.., `M0`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::NarrowingCast => "L1",
            Rule::PanicPath => "L2",
            Rule::UnorderedFloat => "L3",
            Rule::ForbidUnsafe => "L4",
            Rule::RelaxedOrdering => "L5",
            Rule::WallClock => "L6",
            Rule::ServiceLock => "L7",
            Rule::TickLoop => "L8",
            Rule::Marker => "M0",
        }
    }

    /// Human-readable slug, accepted in allow-markers next to the id.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NarrowingCast => "narrowing-cast",
            Rule::PanicPath => "panic-path",
            Rule::UnorderedFloat => "unordered-float",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::WallClock => "wall-clock",
            Rule::ServiceLock => "service-lock",
            Rule::TickLoop => "tick-loop",
            Rule::Marker => "marker",
        }
    }

    /// Parses an id or slug (case-insensitive). `M0` is not allowable:
    /// a marker cannot suppress marker hygiene.
    pub fn from_name(name: &str) -> Option<Rule> {
        let n = name.trim().to_ascii_lowercase();
        Rule::ALL
            .into_iter()
            .find(|r| n == r.id().to_ascii_lowercase() || n == r.slug())
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.id(), self.slug())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What happened and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lint result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed violations, in line order.
    pub violations: Vec<Violation>,
    /// Violations silenced by a well-formed allow-marker.
    pub suppressed: usize,
}

/// A parsed `nmpic-lint:` marker.
enum ParsedMarker {
    Allow(Vec<Rule>),
    Malformed(String),
}

/// Parses the marker protocol out of a line's comment text. `None` when
/// the comment does not *lead* with `nmpic-lint` (after doc-comment
/// sigils): prose that merely mentions the marker syntax mid-sentence —
/// this module's own documentation, say — is not a marker.
fn parse_marker(comment: &str) -> Option<ParsedMarker> {
    let lead = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
    if !lead.starts_with("nmpic-lint") {
        return None;
    }
    let rest = lead["nmpic-lint".len()..].trim_start();
    let rest = match rest.strip_prefix(':') {
        Some(r) => r.trim_start(),
        None => {
            return Some(ParsedMarker::Malformed(
                "expected `nmpic-lint: allow(...)`".into(),
            ))
        }
    };
    let rest = match rest.strip_prefix("allow") {
        Some(r) => r.trim_start(),
        None => {
            return Some(ParsedMarker::Malformed(
                "expected `allow(<rule>)` after `nmpic-lint:`".into(),
            ))
        }
    };
    let rest = match rest.strip_prefix('(') {
        Some(r) => r,
        None => return Some(ParsedMarker::Malformed("expected `(` after `allow`".into())),
    };
    let close = match rest.find(')') {
        Some(c) => c,
        None => return Some(ParsedMarker::Malformed("unclosed `allow(`".into())),
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        match Rule::from_name(name) {
            Some(r) => rules.push(r),
            None => {
                return Some(ParsedMarker::Malformed(format!(
                    "unknown rule `{}` (want {}-{} or a slug like {})",
                    name.trim(),
                    Rule::ALL[0].id(),
                    Rule::ALL[Rule::ALL.len() - 1].id(),
                    Rule::ALL[0].slug()
                )))
            }
        }
    }
    if rules.is_empty() {
        return Some(ParsedMarker::Malformed("empty allow() list".into()));
    }
    // Mandatory reason: whatever follows the `)` minus leading
    // separator punctuation must be readable text.
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':', ' '])
        .trim();
    if reason.len() < 3 {
        return Some(ParsedMarker::Malformed(
            "missing reason: write `allow(<rule>) — <why this is sound>`".into(),
        ));
    }
    Some(ParsedMarker::Allow(rules))
}

fn stripped(code: &str) -> String {
    code.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Identifier tokens of a code line with their char start positions.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = code.char_indices().collect::<Vec<_>>();
    let mut i = 0;
    while i < bytes.len() {
        let (start, c) = bytes[i];
        if c.is_alphanumeric() || c == '_' {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].1.is_alphanumeric() || bytes[j].1 == '_') {
                j += 1;
            }
            let end = if j < bytes.len() {
                bytes[j].0
            } else {
                code.len()
            };
            out.push((start, &code[start..end]));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// `true` when only whitespace separates byte positions `a..b`.
fn gap_is_space(code: &str, a: usize, b: usize) -> bool {
    code.get(a..b)
        .is_some_and(|g| g.chars().all(char::is_whitespace))
}

/// Context shared by the per-line matchers.
pub struct FileContext<'a> {
    /// Workspace-relative path (drives classification and reporting).
    pub path: &'a str,
    /// Rule applicability class derived from the path.
    pub kind: FileKind,
    /// Scanned lines of the file.
    pub lines: &'a [Line],
    /// Workspace-level policy knobs (paths where the `as usize` subrule
    /// of L1 applies, clock-exempt files).
    pub ws: &'a Workspace,
}

/// Runs every applicable rule over one scanned file.
pub fn lint_file(ctx: &FileContext<'_>) -> FileReport {
    let mut report = FileReport::default();
    let mut raw: Vec<Violation> = Vec::new();

    // --- Marker collection -------------------------------------------------
    // allowed[i] = rules suppressible on line i (0-based).
    let mut allowed: Vec<Vec<Rule>> = vec![Vec::new(); ctx.lines.len()];
    for (i, line) in ctx.lines.iter().enumerate() {
        match parse_marker(&line.comment) {
            None => {}
            Some(ParsedMarker::Malformed(msg)) => {
                // Marker hygiene is enforced everywhere, including test
                // code: a bad marker anywhere rots the audit trail.
                raw.push(Violation {
                    path: ctx.path.to_string(),
                    line: i + 1,
                    rule: Rule::Marker,
                    message: msg,
                });
            }
            Some(ParsedMarker::Allow(rules)) => {
                // A marker on a code-free line covers the next line that
                // carries code; on a code-carrying line it covers that
                // line itself.
                let target = if line.code.trim().is_empty() {
                    ctx.lines
                        .iter()
                        .enumerate()
                        .skip(i + 1)
                        .find(|(_, l)| !l.code.trim().is_empty())
                        .map(|(j, _)| j)
                } else {
                    Some(i)
                };
                if let Some(t) = target {
                    allowed[t].extend(rules);
                }
            }
        }
    }

    let lib = ctx.kind == FileKind::Lib;
    let lib_or_bin = matches!(ctx.kind, FileKind::Lib | FileKind::Bin);
    let mem_usize = ctx.ws.usize_cast_applies(ctx.path);
    let clock_exempt = ctx.ws.clock_exempt(ctx.path);
    let service_lock = ctx.ws.service_lock_applies(ctx.path);
    let tick_loop = lib && ctx.ws.tick_loop_applies(ctx.path);

    // --- L1 / L2 / L5 / L6 / L7 / L8: per-line token matchers --------------
    for (i, line) in ctx.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = line.code.as_str();
        let toks = tokens(code);
        if lib {
            for w in 0..toks.len().saturating_sub(1) {
                let (apos, a) = toks[w];
                let (bpos, b) = toks[w + 1];
                if a != "as" || !gap_is_space(code, apos + a.len(), bpos) {
                    continue;
                }
                let narrow = matches!(b, "u32" | "u16" | "u8") || (mem_usize && b == "usize");
                if narrow {
                    raw.push(Violation {
                        path: ctx.path.to_string(),
                        line: i + 1,
                        rule: Rule::NarrowingCast,
                        message: format!(
                            "narrowing `as {b}` cast in library code — use `try_into` with a \
                             typed error, or add `// nmpic-lint: allow(L1) — <bound>`"
                        ),
                    });
                }
            }
            for &(pos, t) in &toks {
                let before = code[..pos].trim_end().chars().last();
                let after = code[pos + t.len()..].trim_start().chars().next();
                let hit = match t {
                    "unwrap" | "expect" => before == Some('.') && after == Some('('),
                    "panic" => after == Some('!'),
                    _ => false,
                };
                if hit {
                    raw.push(Violation {
                        path: ctx.path.to_string(),
                        line: i + 1,
                        rule: Rule::PanicPath,
                        message: format!(
                            "`{t}` in library code — return a typed error, or name the invariant \
                             behind `// nmpic-lint: allow(L2) — <invariant>`"
                        ),
                    });
                }
            }
        }
        let ticks_by_hand = |w: &[(usize, &str)]| {
            let ((apos, a), (bpos, b)) = (w[0], w[1]);
            a == "now" && b == "1" && code[apos + a.len()..bpos].trim() == "+="
        };
        if tick_loop && toks.windows(2).any(ticks_by_hand) {
            raw.push(Violation {
                path: ctx.path.to_string(),
                line: i + 1,
                rule: Rule::TickLoop,
                message: "hand-rolled `now += 1` tick loop — advance simulated time through \
                          `nmpic_sim::SimClock` so the cycle budget and deadlock watchdog \
                          exist once"
                    .to_string(),
            });
        }
        if lib_or_bin {
            let s = stripped(code);
            if s.contains("Ordering::Relaxed") {
                let justified =
                    (i.saturating_sub(3)..=i).any(|j| ctx.lines[j].comment.contains("Relaxed"));
                if !justified {
                    raw.push(Violation {
                        path: ctx.path.to_string(),
                        line: i + 1,
                        rule: Rule::RelaxedOrdering,
                        message: "`Ordering::Relaxed` without a justification comment mentioning \
                                  `Relaxed` on this or the three preceding lines"
                            .to_string(),
                    });
                }
            }
            if service_lock {
                // Exact-token match: `MutexGuard`/`RwLockReadGuard` are
                // distinct identifiers and stay legal unmarked.
                for &(_, t) in &toks {
                    if t == "Mutex" || t == "RwLock" {
                        raw.push(Violation {
                            path: ctx.path.to_string(),
                            line: i + 1,
                            rule: Rule::ServiceLock,
                            message: format!(
                                "blocking `{t}` in the serving front-end — prefer atomics, or \
                                 audit the lock with `// nmpic-lint: allow(L7) — <held briefly \
                                 because ...>`"
                            ),
                        });
                    }
                }
            }
            if !clock_exempt && (s.contains("Instant::now") || s.contains("SystemTime")) {
                raw.push(Violation {
                    path: ctx.path.to_string(),
                    line: i + 1,
                    rule: Rule::WallClock,
                    message: "wall-clock read outside `nmpic_bench::timing` — route timing \
                              through `timing::Stopwatch` so simulated results \
                              stay deterministic"
                        .to_string(),
                });
            }
        }
    }

    // --- L3: unordered iteration feeding accumulation ----------------------
    if lib_or_bin {
        unordered_float(ctx, &mut raw);
    }

    // --- L4: crate roots forbid unsafe -------------------------------------
    if ctx.ws.is_crate_root(ctx.path) {
        let has = ctx
            .lines
            .iter()
            .any(|l| stripped(&l.code).contains("#![forbid(unsafe_code)]"));
        if !has {
            raw.push(Violation {
                path: ctx.path.to_string(),
                line: 1,
                rule: Rule::ForbidUnsafe,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    // --- Apply suppression -------------------------------------------------
    for v in raw {
        let idx = v.line - 1;
        let is_allowed =
            v.rule != Rule::Marker && allowed.get(idx).is_some_and(|rs| rs.contains(&v.rule));
        if is_allowed {
            report.suppressed += 1;
        } else {
            report.violations.push(v);
        }
    }
    report.violations.sort_by_key(|v| (v.line, v.rule.id()));
    report
}

/// L3: a `for` loop iterating a `HashMap`/`HashSet` (directly or via an
/// identifier bound to one in this file) whose body accumulates with
/// `+=`, or a same-line `.sum(...)` over such an identifier. Iteration
/// order of the std hash containers is unspecified, so any float
/// accumulation they drive is a byte-identity hazard.
fn unordered_float(ctx: &FileContext<'_>, raw: &mut Vec<Violation>) {
    // Pass 1: identifiers bound to hash containers anywhere in the file
    // (let bindings, fn params, struct fields — anything shaped
    // `name: [&]HashMap<..>` or `name = HashMap::new()`).
    let mut tracked: Vec<String> = Vec::new();
    for line in ctx.lines {
        let code = line.code.as_str();
        let toks = tokens(code);
        for &(pos, t) in &toks {
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            if let Some(name) = binding_before(code, pos) {
                if !tracked.contains(&name) {
                    tracked.push(name);
                }
            }
        }
    }

    for (i, line) in ctx.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = line.code.as_str();
        let toks = tokens(code);
        // Same-line reduction: `tracked.values().sum::<f64>()` etc.
        let s = stripped(code);
        if (s.contains(".sum(") || s.contains(".sum::<"))
            && toks
                .iter()
                .any(|(_, t)| *t == "HashMap" || *t == "HashSet" || tracked.iter().any(|n| n == t))
        {
            raw.push(Violation {
                path: ctx.path.to_string(),
                line: i + 1,
                rule: Rule::UnorderedFloat,
                message: "`.sum()` over an unordered hash container — collect and sort keys \
                          first so the f64 rounding sequence is deterministic"
                    .to_string(),
            });
            continue;
        }
        // `for <pat> in <expr-with-hash-container> { ... += ... }`
        let for_pos = toks.iter().position(|(_, t)| *t == "for");
        let Some(fp) = for_pos else { continue };
        let Some(in_tok) = toks.iter().skip(fp + 1).find(|(_, t)| *t == "in") else {
            continue;
        };
        let expr = &code[in_tok.0 + 2..];
        let expr_toks = tokens(expr);
        let hashy = expr_toks
            .iter()
            .any(|(_, t)| *t == "HashMap" || *t == "HashSet" || tracked.iter().any(|n| n == t));
        if !hashy {
            continue;
        }
        if body_accumulates(ctx.lines, i, in_tok.0 + 2) {
            raw.push(Violation {
                path: ctx.path.to_string(),
                line: i + 1,
                rule: Rule::UnorderedFloat,
                message: "`for` over an unordered hash container accumulates with `+=` — \
                          iterate in a sorted/first-appearance order instead (byte-identity \
                          contract)"
                    .to_string(),
            });
        }
    }
}

/// Walks the brace-matched body of a `for` whose header starts on
/// `lines[start]` at char `from`, returning `true` when the body
/// contains a `+=` in code.
fn body_accumulates(lines: &[Line], start: usize, from: usize) -> bool {
    let mut depth = 0usize;
    let mut opened = false;
    let mut prev_plus = false;
    for (li, line) in lines.iter().enumerate().skip(start) {
        let code = line.code.as_str();
        let skip = if li == start { from } else { 0 };
        for c in code.chars().skip(skip) {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return false;
                    }
                }
                '=' if prev_plus && opened && depth >= 1 => return true,
                _ => {}
            }
            prev_plus = c == '+';
        }
        // Safety valve: an unclosed body (scan artifact) stops the walk.
        if li > start + 400 {
            return false;
        }
    }
    false
}

/// For a hash-container type token at `pos`, finds the identifier it is
/// bound to: handles `name: [&mut] HashMap<..>`, paths like
/// `std::collections::HashMap`, and `let name = HashMap::new()`.
fn binding_before(code: &str, pos: usize) -> Option<String> {
    let before: Vec<char> = code[..pos].chars().collect();
    let mut i = before.len();
    // Skip backwards over type-position chars: whitespace, `&`, `<`,
    // `mut`, and `path::` segments.
    loop {
        while i > 0
            && (before[i - 1].is_whitespace() || before[i - 1] == '&' || before[i - 1] == '<')
        {
            i -= 1;
        }
        if i >= 2 && before[i - 1] == ':' && before[i - 2] == ':' {
            i -= 2;
            // Skip the path segment ident.
            while i > 0 && (before[i - 1].is_alphanumeric() || before[i - 1] == '_') {
                i -= 1;
            }
            continue;
        }
        break;
    }
    if i == 0 {
        return None;
    }
    if before[i - 1] == ':' {
        // `name : HashMap<..>`
        i -= 1;
        while i > 0 && before[i - 1].is_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && (before[i - 1].is_alphanumeric() || before[i - 1] == '_') {
            i -= 1;
        }
        let name: String = before[i..end].iter().collect();
        return non_keyword(name);
    }
    if before[i - 1] == '=' {
        // `let [mut] name = HashMap::new()`
        i -= 1;
        while i > 0 && before[i - 1].is_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && (before[i - 1].is_alphanumeric() || before[i - 1] == '_') {
            i -= 1;
        }
        let name: String = before[i..end].iter().collect();
        return non_keyword(name);
    }
    None
}

fn non_keyword(name: String) -> Option<String> {
    let kw = ["let", "mut", "pub", "use", "in", "ref", "move"];
    if name.is_empty()
        || kw.contains(&name.as_str())
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        None
    } else {
        Some(name)
    }
}
