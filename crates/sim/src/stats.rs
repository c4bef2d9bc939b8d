//! Statistics: counters and latency histograms.
//!
//! These are the measurement instruments behind the latency tables:
//! [`Histogram`] backs paper Table 5 and Figure 11. Bandwidth is counted
//! where the traffic is consumed: the AI engine's byte counters back
//! Table 7 and the Figure 14 equilibrium windows.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use noc_sim::Counter;
/// let mut injected = Counter::new("injected");
/// injected.add(3);
/// injected.inc();
/// assert_eq!(injected.get(), 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Create a named counter starting at zero.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reset to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A histogram of `u64` samples with exact mean and approximate
/// percentiles (power-of-two bucketing plus within-bucket interpolation).
///
/// Designed for latency distributions: cheap to record (O(1)), compact,
/// and accurate enough for percentile reporting.
///
/// # Example
///
/// ```
/// use noc_sim::Histogram;
/// let mut h = Histogram::new("noc-latency");
/// for v in [10, 12, 14, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100);
/// assert!((h.mean() - 34.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    name: String,
    // bucket i holds samples in [2^(i-1), 2^i) with bucket 0 = {0}
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

const HIST_BUCKETS: usize = 65;

impl Histogram {
    /// Create a named, empty histogram.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Approximate percentile `q` in `[0, 1]` via bucket interpolation.
    /// Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                let frac = (target - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(self.min(), self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clear all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.2} p50={} p99={} max={}",
            self.name,
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new("x");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.name(), "x");
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(format!("{c}"), "x=0");
    }

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new("h");
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_is_sane() {
        let h = Histogram::new("h");
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = Histogram::new("h");
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn histogram_percentile_within_factor_two() {
        let mut h = Histogram::new("h");
        for _ in 0..100 {
            h.record(40);
        }
        let p = h.percentile(0.5);
        assert!((32..=63).contains(&p), "p50 {p}");
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new("a");
        let mut b = Histogram::new("b");
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 30);
        assert!((a.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_reset_clears() {
        let mut h = Histogram::new("h");
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }
}
