//! `nmpic-benchmark compare A.json B.json`: one row per workload and
//! gated metric, B measured against A. Each file holds the records that
//! `run --out FILE` appended, any number per workload.
//!
//! A metric with a positive bound compares medians, direction-aware. A
//! metric with bound 0 is a simulated quantity or count: runs of the same
//! workload and seed must agree exactly, within a file and across files.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Better by more than the bound, or every B run beats every A run.
    Better,
    /// The inter-quartile spread of either side exceeds the bound, so a
    /// change of the bound's size cannot be told from noise.
    Unresolved,
    /// Worse than the bound allows.
    Worse,
    /// An exact metric repeated exactly.
    Identical,
    /// An exact metric differs between two runs of one seed.
    Differs,
    /// B has no run of a workload or metric that A has.
    Missing,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs | Verdict::Missing)
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "WORSE",
            Verdict::Identical => "identical",
            Verdict::Differs => "DIFFERS",
            Verdict::Missing => "MISSING",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict on a metric with a positive bound.
pub fn bounded_verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse_by = worsening(better, median(a), median(b));
    if worse_by > bound {
        return Verdict::Worse;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread(a) > bound || spread(b) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The verdict on an exact metric: `(seed, value)` pairs of both sides.
pub fn exact_verdict(a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    let mut by_seed: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shared = false;
    for (side, runs) in [a, b].into_iter().enumerate() {
        for &(seed, value) in runs {
            let first = *by_seed.entry(seed).or_insert(value.to_bits());
            if first != value.to_bits() {
                return Verdict::Differs;
            }
            shared |= side == 1 && a.iter().any(|&(s, _)| s == seed);
        }
    }
    if shared {
        Verdict::Identical
    } else {
        // No seed in common: nothing to hold B to.
        Verdict::Missing
    }
}

struct Series {
    unit: String,
    better: Better,
    bound: f64,
    /// `(seed, value)` per run.
    runs: Vec<(u64, f64)>,
}

/// (workload, trace flag, metric) → series; only gated metrics.
type Set = BTreeMap<(String, u64, String), Series>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = Json::parse_stream(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    let mut set = Set::new();
    for rec in &records {
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}: record without {k}"))
        };
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{path}: {k} is not a number"))
        };
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("{path}: workload is not a string"))?;
        let (seed, trace) = (num("seed")? as u64, num("trace")? as u64);
        let mut add = |name: &str, unit: &str, better: Better, bound: f64, value: f64| {
            set.entry((workload.to_string(), trace, name.to_string()))
                .or_insert_with(|| Series {
                    unit: unit.to_string(),
                    better,
                    bound,
                    runs: Vec::new(),
                })
                .runs
                .push((seed, value));
        };
        let fail_ratio = num("failed")? / num("attempted")?.max(1.0);
        add("fail_ratio", "ratio", Better::Lower, 0.0, fail_ratio);
        let metrics = field("metrics")?
            .as_obj()
            .ok_or_else(|| format!("{path}: metrics is not an object"))?;
        for (name, m) in metrics {
            let Some(bound) = m.get("bound").and_then(Json::as_f64) else {
                continue; // ungated layer metric
            };
            let parts = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
                m.get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse),
            );
            let (Some(value), Some(unit), Some(better)) = parts else {
                return Err(format!("{path}: metric {name} is malformed"));
            };
            add(name, unit, better, bound, value);
        }
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when no row fails.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<15} {:<34} {:<7} {:>16} {:>16} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "unit", "A median", "B median", "worse%", "bound%", "iqrA%", "iqrB%"
    );
    let mut ok = true;
    for ((workload, trace, name), sa) in &a {
        let va: Vec<f64> = sa.runs.iter().map(|r| r.1).collect();
        let label = if *trace == 1 {
            format!("{workload}+trace")
        } else {
            workload.clone()
        };
        let Some(sb) = b.get(&(workload.clone(), *trace, name.clone())) else {
            println!(
                "{label:<15} {name:<34} {:<7} {:>16.6}  {}",
                sa.unit,
                median(&va),
                Verdict::Missing.as_str()
            );
            ok = false;
            continue;
        };
        let vb: Vec<f64> = sb.runs.iter().map(|r| r.1).collect();
        let verdict = if sa.bound == 0.0 {
            exact_verdict(&sa.runs, &sb.runs)
        } else {
            bounded_verdict(sa.better, sa.bound, &va, &vb)
        };
        ok &= !verdict.fails();
        println!(
            "{label:<15} {name:<34} {:<7} {:>16.6} {:>16.6} {:>8.2} {:>6.1} {:>7.2} {:>7.2}  {}",
            sa.unit,
            median(&va),
            median(&vb),
            100.0 * worsening(sa.better, median(&va), median(&vb)),
            100.0 * sa.bound,
            100.0 * spread(&va),
            100.0 * spread(&vb),
            verdict.as_str()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn worsening_is_direction_aware() {
        assert!((worsening(Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Higher, 100.0, 112.0) + 0.12).abs() < 1e-12);
        assert!((worsening(Higher, 100.0, 80.0) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn bounded_metrics_fail_only_past_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |f: f64| a.map(|v| v * f);
        assert_eq!(
            bounded_verdict(Lower, 0.10, &a, &shift(1.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            bounded_verdict(Lower, 0.10, &a, &shift(1.12)),
            Verdict::Worse
        );
        assert_eq!(
            bounded_verdict(Lower, 0.10, &a, &shift(0.85)),
            Verdict::Better
        );
        assert_eq!(
            bounded_verdict(Higher, 0.10, &a, &shift(0.85)),
            Verdict::Worse
        );
        assert_eq!(
            bounded_verdict(Higher, 0.10, &a, &shift(1.12)),
            Verdict::Better
        );
        assert!(Verdict::Worse.fails() && !Verdict::Unresolved.fails());
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let same = [81.0, 91.0, 101.0, 111.0, 121.0];
        assert_eq!(
            bounded_verdict(Lower, 0.10, &noisy, &same),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        let clear = [60.0, 65.0, 70.0, 75.0, 79.0];
        assert_eq!(
            bounded_verdict(Lower, 0.10, &noisy, &clear),
            Verdict::Better
        );
        // A median past the bound is worse however wide the spread.
        let bad = noisy.map(|v| v * 1.3);
        assert_eq!(bounded_verdict(Lower, 0.10, &noisy, &bad), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_must_repeat_per_seed() {
        let a = [(1, 5000.0), (2, 5100.0)];
        assert_eq!(
            exact_verdict(&a, &[(1, 5000.0), (2, 5100.0)]),
            Verdict::Identical
        );
        assert_eq!(exact_verdict(&a, &[(2, 5100.0)]), Verdict::Identical);
        assert_eq!(
            exact_verdict(&a, &[(1, 5000.0), (2, 5101.0)]),
            Verdict::Differs
        );
        // Two runs of one seed inside one file must agree too.
        assert_eq!(
            exact_verdict(&[(1, 5.0), (1, 6.0)], &[(1, 5.0)]),
            Verdict::Differs
        );
        assert_eq!(exact_verdict(&a, &[(3, 1.0)]), Verdict::Missing);
    }
}
