//! Summary statistics: load imbalance across shards ([`Extrema`]),
//! geometric means of speedups ([`GeoMean`]) and latency quantiles
//! ([`Histogram`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Min/max/mean accumulator for cross-shard load-imbalance reporting.
///
/// Multi-unit sweeps report how evenly work spread across units as
/// `max / mean` of a per-shard quantity (nonzeros, cycles, bus busy
/// cycles): 1.0 is perfect balance, 2.0 means the slowest unit did twice
/// the average work.
///
/// # Example
///
/// ```
/// use nmpic_sim::stats::Extrema;
/// let mut e = Extrema::new();
/// e.add(10.0);
/// e.add(30.0);
/// assert_eq!(e.max(), 30.0);
/// assert_eq!(e.mean(), 20.0);
/// assert!((e.imbalance() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Extrema {
    min: f64,
    max: f64,
    sum: f64,
    count: u64,
}

impl Extrema {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.sum += sample;
        self.count += 1;
    }

    /// Smallest sample, or 0.0 with no samples.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or 0.0 with no samples.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean of all samples, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples added.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Load imbalance `max / mean`, ≥ 1.0 for nonnegative samples.
    /// Returns 1.0 when no samples were added or the mean is zero (an
    /// all-idle set of shards is perfectly, if trivially, balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            1.0
        } else {
            self.max / mean
        }
    }
}

/// Geometric mean accumulator, used for speedup summaries across matrices
/// (the conventional aggregate for ratio metrics).
///
/// # Example
///
/// ```
/// use nmpic_sim::stats::GeoMean;
/// let mut g = GeoMean::new();
/// g.add(2.0);
/// g.add(8.0);
/// assert!((g.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeoMean {
    log_sum: f64,
    count: u64,
}

impl GeoMean {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one strictly positive sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is not strictly positive — a non-positive ratio is
    /// always an upstream measurement bug.
    pub fn add(&mut self, sample: f64) {
        assert!(sample > 0.0, "geometric mean requires positive samples");
        self.log_sum += sample.ln();
        self.count += 1;
    }

    /// The geometric mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.log_sum / self.count as f64).exp()
        }
    }

    /// Number of samples added.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Values below this are counted in exact one-per-value linear buckets.
const HIST_LINEAR_CUTOFF: u64 = 64;
/// Sub-bucket resolution above the linear range: 2^5 = 32 sub-buckets per
/// power of two, bounding relative quantile error at 1/32 ≈ 3.1%.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUBS: usize = 1 << HIST_SUB_BITS;
/// Power-of-two groups covering bit positions 6..=63 of a `u64` sample.
const HIST_GROUPS: usize = 58;
const HIST_BUCKETS: usize = HIST_LINEAR_CUTOFF as usize + HIST_GROUPS * HIST_SUBS;

/// Streaming log-linear histogram for latency quantiles (p50/p99/p999)
/// with wait-free concurrent recording.
///
/// Samples are `u64` (typically nanoseconds or logical ticks). Values
/// below 64 land in exact linear buckets; above that, each power of two
/// is split into 32 sub-buckets, so any reported quantile is within
/// ~3.1% of the true sample value while the whole histogram is a fixed
/// ~1.9k `AtomicU64` slots — no per-sample allocation, no lock.
/// [`Histogram::record`] is safe to call from any number of threads
/// simultaneously; readers see a monotonically growing approximation.
///
/// # Example
///
/// ```
/// use nmpic_sim::stats::Histogram;
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.50);
/// // Within the 1/32 bucket resolution of the true median (500).
/// assert!(p50 >= 484 && p50 <= 516, "p50 = {p50}");
/// assert_eq!(h.quantile(1.0), 1000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample value.
    fn bucket_index(v: u64) -> usize {
        if v < HIST_LINEAR_CUTOFF {
            return v as usize;
        }
        // v >= 64, so the most significant set bit is at position >= 6.
        let msb = 63 - v.leading_zeros();
        let group = (msb - 6) as usize;
        let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUBS as u64 - 1)) as usize;
        HIST_LINEAR_CUTOFF as usize + group * HIST_SUBS + sub
    }

    /// Inclusive upper bound of the value range a bucket covers — the
    /// representative value quantiles report, so quantiles never
    /// under-report a latency.
    fn bucket_bound(idx: usize) -> u64 {
        if idx < HIST_LINEAR_CUTOFF as usize {
            return idx as u64;
        }
        let group = (idx - HIST_LINEAR_CUTOFF as usize) / HIST_SUBS;
        let sub = ((idx - HIST_LINEAR_CUTOFF as usize) % HIST_SUBS) as u64;
        // group 0 starts at bit position 6 (value 64).
        // nmpic-lint: allow(L1) — in range on every target: HIST_GROUPS keeps group <= 57, well inside u32
        let msb = group as u32 + 6;
        let step = 1u64 << (msb - HIST_SUB_BITS);
        // Written as (base - 1) + span so the top bucket (msb = 63,
        // sub = 31) lands exactly on u64::MAX without overflowing.
        ((1u64 << msb) - 1) + (sub + 1) * step
    }

    /// Records one sample. Wait-free; callable from any thread.
    pub fn record(&self, v: u64) {
        // Relaxed everywhere below: each slot is an independent monotone
        // counter and readers only need an approximate snapshot — no
        // reader infers cross-slot ordering from these counters.
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // Relaxed: as above.
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        // Relaxed: monotone counter, approximate reads are fine.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating only in the astronomically
    /// unlikely case of 2^64 total; callers treat it as exact).
    pub fn sum(&self) -> u64 {
        // Relaxed: monotone counter, approximate reads are fine.
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest sample, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            return 0;
        }
        // Relaxed: monotone (decreasing) watermark, approximate is fine.
        self.min.load(Ordering::Relaxed)
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        // Relaxed: monotone watermark, approximate reads are fine.
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of all recorded samples, or 0
    /// with none. `quantile(0.5)` is the median, `quantile(0.99)` p99.
    ///
    /// Reported values are bucket upper bounds clamped to the observed
    /// maximum: exact below 64, within ~3.1% above.
    pub fn quantile(&self, q: f64) -> u64 {
        // Relaxed: the walk reads a racy snapshot of monotone counters;
        // concurrent recording can only shift a quantile by in-flight
        // samples, which is the accepted contract for streaming stats.
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // Relaxed: racy snapshot (above).
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_bound(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Resets every counter to the empty state.
    ///
    /// Intended for quiescent moments only (e.g. discarding warmup
    /// samples before a timed run); concurrent `record` calls during a
    /// reset may be partially lost.
    pub fn reset(&self) {
        // Relaxed: quiescent-only by contract (see doc), so there is no
        // concurrent reader to order against.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed); // Relaxed: as above.
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrema_tracks_min_max_mean() {
        let mut e = Extrema::new();
        for v in [4.0, 1.0, 7.0] {
            e.add(v);
        }
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 7.0);
        assert_eq!(e.mean(), 4.0);
        assert_eq!(e.count(), 3);
        assert!((e.imbalance() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn extrema_empty_and_all_zero_are_balanced() {
        assert_eq!(Extrema::new().imbalance(), 1.0);
        let mut e = Extrema::new();
        e.add(0.0);
        e.add(0.0);
        assert_eq!(e.imbalance(), 1.0);
    }

    #[test]
    fn geo_mean_of_identical_values() {
        let mut g = GeoMean::new();
        for _ in 0..5 {
            g.add(3.0);
        }
        assert!((g.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn geo_mean_rejects_zero() {
        GeoMean::new().add(0.0);
    }

    #[test]
    fn histogram_is_exact_below_the_linear_cutoff() {
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(0.0), 0);
        // 64 samples: the k-th quantile lands exactly on value ceil(q*64)-1.
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert!((h.mean() - 31.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_relative_error_is_bounded_above_the_cutoff() {
        for v in [64u64, 65, 100, 1_000, 123_456, 10_u64.pow(9), u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            let got = h.quantile(1.0);
            assert!(got >= v, "quantile must not under-report: {got} < {v}");
            // Clamping to the observed max makes a single sample exact.
            assert_eq!(got, v);
            // The raw bucket bound is within 1/32 relative error.
            let bound = Histogram::bucket_bound(Histogram::bucket_index(v));
            assert!(bound >= v);
            assert!(
                (bound - v) as f64 <= v as f64 / 32.0 + 1.0,
                "bucket bound {bound} too far above {v}"
            );
        }
    }

    #[test]
    fn histogram_empty_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_tail_quantiles_order() {
        let h = Histogram::new();
        // 990 fast samples, 10 slow outliers.
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let (p50, p99, p999) = (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p50 <= 104, "p50 should sit on the fast mode: {p50}");
        assert!(p999 >= 100_000, "p999 must surface the outliers: {p999}");
    }

    #[test]
    fn histogram_concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i + 1);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 4000);
    }

    #[test]
    fn histogram_reset_clears_all_state() {
        let h = Histogram::new();
        h.record(7);
        h.record(70_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(1.0), 0);
        h.record(5);
        assert_eq!(h.quantile(1.0), 5);
    }
}
