//! Order statistics for timing samples: medians, quartiles (the same rule
//! as Python's `statistics.quantiles(values, n=4)`, so the spread printed
//! here is the spread the driver computes), and the tail-percentile
//! picker.

/// Sorted copy of `v`. Samples are finite by construction (wall-clock
/// differences and counts).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `(q1, median, q3)` by the exclusive method; a single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty sample: every caller measured at least once.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    assert!(!s.is_empty(), "quartiles of an empty sample");
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let len = s.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// Inter-quartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Nearest-rank position (1-based) of a percentile given in hundredths
/// of a percent, in whole numbers: `99.9 / 100.0 * 10_000.0` is not 9990
/// in floating point, and one rank decides whether ten samples lie beyond.
fn rank(n: usize, centi_pct: usize) -> usize {
    (n * centi_pct).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample; `centi_pct` is in
/// hundredths of a percent (p99.9 is 9990).
pub fn percentile(sorted: &[f64], centi_pct: usize) -> f64 {
    sorted[rank(sorted.len(), centi_pct) - 1]
}

/// Percentiles a tail is reported at, lowest first, in hundredths of a
/// percent: p50, p90, p99, p99.9, p99.99.
pub const TAIL_LADDER: [usize; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, as `(percent, value)`: a p99.9 read off 1 000 samples is
/// one sample's luck, not a tail. Falls back to the median for tiny
/// samples.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let centi_pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n - rank(n, p) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    (centi_pct as f64 / 100.0, percentile(sorted, centi_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|k| k as f64).collect::<Vec<_>>();
        // 19 samples: only the median has >= 10 beyond (9 beyond p50 → fallback).
        assert_eq!(tail(&sample(19)).0, 50.0);
        assert_eq!(tail(&sample(20)), (50.0, 10.0));
        // 100 samples: p90 leaves exactly 10 beyond; p99 leaves 1.
        assert_eq!(tail(&sample(100)), (90.0, 90.0));
        // 1 000 samples: p99 leaves 10.
        assert_eq!(tail(&sample(1000)), (99.0, 990.0));
        assert_eq!(tail(&sample(9_999)).0, 99.0);
        // 10 000 samples: p99.9 leaves 10; p99.99 leaves 1.
        assert_eq!(tail(&sample(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&sample(100_000)), (99.99, 99_990.0));
        assert_eq!(tail(&sample(3)).0, 50.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
