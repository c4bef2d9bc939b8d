//! The benchmark's arithmetic: the per-slice-minimum host-time
//! estimator, quartiles, and exact latency percentiles.
//!
//! Every workload does bit-identical simulated work in every run, so a
//! timed section can be cut into fixed-work slices and each slice's
//! *fastest* sample across the runs taken as its cost. The shared host
//! this was written on slows down for seconds at a time (one-sided
//! noise, longer than a slice), which makes the median of whole runs
//! wander while the sum of per-slice minima repeats within a few
//! percent. What no estimator inside one command can remove is the
//! host's slower drift, ten percent and more over minutes: that is what
//! the bounds in `BENCHMARK.json` are sized for (README, *Noise*).

/// Samples slower than this multiple of their slice's minimum count as
/// "slow" in [`SliceEstimate::slow_samples`].
pub const SLOW_FACTOR: f64 = 1.15;

/// The per-slice-minimum estimate over the runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceEstimate {
    /// Σ over slices of the fastest sample (ns).
    pub min_sum_ns: u64,
    /// Σ over slices of the second-fastest sample (ns); equals
    /// `min_sum_ns` when there is only one run.
    pub second_sum_ns: u64,
    /// Samples slower than [`SLOW_FACTOR`] × their slice's minimum.
    pub slow_samples: usize,
    /// Samples in total (runs × slices).
    pub samples: usize,
    /// The fastest sample of each slice (ns).
    pub per_slice_min: Vec<u64>,
}

impl SliceEstimate {
    /// Σ second-fastest ÷ Σ fastest − 1, in percent: how far the
    /// estimate would move if the single best sample of every slice
    /// were lost. A wide gap means too few runs met the fast state.
    pub fn gap_pct(&self) -> f64 {
        pct_over(self.second_sum_ns as f64, self.min_sum_ns as f64)
    }

    /// Share of samples that were slow, in percent.
    pub fn slow_pct(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            100.0 * self.slow_samples as f64 / self.samples as f64
        }
    }
}

/// `100 × (a ÷ b − 1)`, or 0 when `b` is 0.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (a / b - 1.0)
    }
}

/// Combine the slice times of several runs of identical work.
///
/// # Errors
///
/// No runs, an empty run, or runs that disagree on the slice count —
/// the work was not identical, so no minimum across them means
/// anything.
pub fn slice_estimate(runs: &[&[u64]]) -> Result<SliceEstimate, String> {
    let first = runs.first().ok_or("no runs to estimate from")?;
    if first.is_empty() {
        return Err("a run recorded no slices".into());
    }
    if let Some(bad) = runs.iter().find(|r| r.len() != first.len()) {
        return Err(format!(
            "runs disagree on the slice count ({} vs {}): the work was not identical",
            first.len(),
            bad.len()
        ));
    }
    let mut est = SliceEstimate {
        min_sum_ns: 0,
        second_sum_ns: 0,
        slow_samples: 0,
        samples: runs.len() * first.len(),
        per_slice_min: Vec::with_capacity(first.len()),
    };
    for i in 0..first.len() {
        let (mut lo, mut second) = (u64::MAX, u64::MAX);
        for run in runs {
            let v = run[i];
            if v < lo {
                second = lo;
                lo = v;
            } else if v < second {
                second = v;
            }
        }
        est.min_sum_ns += lo;
        est.second_sum_ns += if second == u64::MAX { lo } else { second };
        est.slow_samples += runs
            .iter()
            .filter(|r| r[i] as f64 > SLOW_FACTOR * lo as f64)
            .count();
        est.per_slice_min.push(lo);
    }
    Ok(est)
}

/// Index of the first slice whose *every* sample is slower per
/// simulated cycle than [`SLOW_FACTOR`] × the fastest per-cycle cost of
/// its two neighbours — a slice no run caught in the host's fast state.
/// `cycles[i]` is the simulated cycles slice `i` covers (identical in
/// every run).
pub fn unlucky_slice(runs: &[&[u64]], cycles: &[u64]) -> Option<usize> {
    let n = cycles.len();
    let per_cycle = |ns: u64, i: usize| ns as f64 / cycles[i].max(1) as f64;
    let best: Vec<f64> = (0..n)
        .map(|i| {
            runs.iter()
                .map(|r| per_cycle(r[i], i))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    (0..n).find(|&i| {
        let neighbours = [i.checked_sub(1), (i + 1 < n).then_some(i + 1)];
        let floor = neighbours
            .iter()
            .flatten()
            .map(|&j| best[j])
            .fold(f64::INFINITY, f64::min);
        floor.is_finite() && best[i] > SLOW_FACTOR * floor
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method). One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |k: usize| {
                // Position k(n+1)/4, 1-based, clamped to the data.
                let pos = (k * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + frac * (v[j] - v[j - 1])
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Exact latency distribution: one counter per cycle value.
#[derive(Debug, Clone, Default)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
}

/// What a [`LatencyHist`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Samples.
    pub count: u64,
    /// Median (cycles).
    pub p50: u64,
    /// 99th percentile (cycles).
    pub p99: u64,
    /// The highest of p90 / p99 / p99.9 / p99.99 with at least ten
    /// samples beyond it (0 when even p90 has fewer).
    pub tail_q: f64,
    /// Its value (cycles).
    pub tail: u64,
}

impl LatencyHist {
    /// Record one latency.
    #[inline]
    pub fn record(&mut self, cycles: u64) {
        let i = cycles as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest value with at least `q` of the samples at or below it.
    pub fn quantile(&self, q: f64) -> u64 {
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return v as u64;
            }
        }
        0
    }

    /// Median, p99 and the highest supported tail percentile.
    pub fn summary(&self) -> LatencySummary {
        let tail_q = supported_tail(self.n);
        LatencySummary {
            count: self.n,
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            tail_q,
            tail: if tail_q > 0.0 {
                self.quantile(tail_q)
            } else {
                0
            },
        }
    }
}

/// The highest of p90 / p99 / p99.9 / p99.99 that leaves at least ten
/// of `n` samples beyond it; 0.0 when none does.
pub fn supported_tail(n: u64) -> f64 {
    // Integer arithmetic: 100 × (1 − 0.9) is 9.999… in floating point.
    [(1u64, 10_000u64), (1, 1_000), (1, 100), (1, 10)]
        .into_iter()
        .find(|(beyond, of)| n / of * beyond + n % of * beyond / of >= 10)
        .map_or(0.0, |(beyond, of)| 1.0 - beyond as f64 / of as f64)
}

/// [`LatencySummary`] of a log-bucket [`noc_sim::Histogram`] set (the
/// only latency the AI engine exposes): same rule, bucket-interpolated
/// values.
pub fn summary_of_merged(hists: &[noc_sim::Histogram]) -> LatencySummary {
    let mut all = noc_sim::Histogram::new("merged");
    for h in hists {
        all.merge(h);
    }
    let tail_q = supported_tail(all.count());
    LatencySummary {
        count: all.count(),
        p50: all.percentile(0.5),
        p99: all.percentile(0.99),
        tail_q,
        tail: if tail_q > 0.0 {
            all.percentile(tail_q)
        } else {
            0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_slice_minimum_beats_every_whole_run() {
        // Each run is slow on a different slice; no run is fast
        // everywhere, the per-slice minimum is.
        let a = [10, 30, 10];
        let b = [30, 10, 10];
        let c = [10, 10, 30];
        let est = slice_estimate(&[&a, &b, &c]).unwrap();
        assert_eq!(est.min_sum_ns, 30);
        assert_eq!(est.second_sum_ns, 30);
        assert_eq!(est.slow_samples, 3);
        assert_eq!(est.samples, 9);
        assert_eq!(est.per_slice_min, vec![10, 10, 10]);
        assert_eq!(est.gap_pct(), 0.0);
        assert!((est.slow_pct() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn second_fastest_tracks_the_gap() {
        let a = [100, 100];
        let b = [110, 120];
        let est = slice_estimate(&[&a, &b]).unwrap();
        assert_eq!(est.min_sum_ns, 200);
        assert_eq!(est.second_sum_ns, 230);
        assert!((est.gap_pct() - 15.0).abs() < 1e-9);
        let single = slice_estimate(&[&a]).unwrap();
        assert_eq!(single.second_sum_ns, single.min_sum_ns);
    }

    #[test]
    fn unequal_slice_counts_are_an_error() {
        let a = [1, 2, 3];
        let b = [1, 2];
        let err = slice_estimate(&[&a, &b]).unwrap_err();
        assert!(err.contains("slice count"), "{err}");
        assert!(slice_estimate(&[]).is_err());
        assert!(slice_estimate(&[&[]]).is_err());
    }

    #[test]
    fn unlucky_slice_needs_every_sample_slow() {
        let cycles = [100, 100, 100, 100];
        let fast = [1000, 1000, 1000, 1000];
        let one_slow = [1000, 2000, 1000, 1000];
        assert_eq!(unlucky_slice(&[&fast, &one_slow], &cycles), None);
        assert_eq!(unlucky_slice(&[&one_slow, &one_slow], &cycles), Some(1));
        // A slice that simply covers more cycles is not unlucky.
        let cycles = [100, 200, 100];
        let run = [1000, 2000, 1000];
        assert_eq!(unlucky_slice(&[&run], &cycles), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q2 - 1.5).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(99), 0.0);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(999), 0.9);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(1_000_000), 0.9999);
    }

    #[test]
    fn exact_quantiles() {
        let mut h = LatencyHist::default();
        for v in 1..=1000 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 990);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(LatencyHist::default().summary().p50, 0);
    }
}
