//! Statistics helpers for experiment reporting.
//!
//! [`Ecdf`] reproduces the empirical CDFs of Figure 7 (workload with and
//! without tree trimming); [`OnlineStats`] and [`Histogram`] back the summary
//! numbers quoted in the paper's evaluation text.

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every observation in the slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Empirical cumulative distribution function over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "ECDF requires a non-empty sample");
        assert!(sample.iter().all(|x| !x.is_nan()), "ECDF rejects NaN");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self { sorted: sample }
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
        if q <= 0.0 {
            return self.sorted[0];
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank.min(self.sorted.len()) - 1]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Evaluates the CDF on an evenly spaced grid of `points` x-values from
    /// min to max; returns `(x, P(X<=x))` pairs. This is the series plotted
    /// in Figure 7.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "series needs at least 2 points");
        let (lo, hi) = (self.min(), self.max());
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram requires lo < hi");
        Self {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation; values outside the range are clamped to the
    /// first/last bin.
    pub fn push(&mut self, x: f64) {
        let raw = ((x - self.lo) / self.width).floor();
        let idx = (raw.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of mass in bin `i`.
    pub fn frac(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

/// Mean of a slice (0 if empty). Convenience for reporting code.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Relative change `(new - old) / old` in percent, the form the paper uses
/// for statements like "39.48% accuracy increase".
pub fn relative_change_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        s.extend(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn ecdf_eval_is_monotone_and_bounded() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(5.0), 1.0);
        assert!((e.eval(2.0) - 0.6).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 0..60 {
            let x = i as f64 * 0.1;
            let v = e.eval(x);
            assert!(v >= prev, "CDF must be monotone");
            prev = v;
        }
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    fn ecdf_series_spans_range() {
        let e = Ecdf::new(vec![0.0, 10.0, 20.0]);
        let s = e.series(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[4].0, 20.0);
        assert_eq!(s[4].1, 1.0);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 9.9, 100.0, -3.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 3); // 0.5, 1.5, clamped -3.0
        assert_eq!(h.counts()[4], 2); // 9.9, clamped 100.0
        assert!((h.frac(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn relative_change_matches_paper_convention() {
        assert!((relative_change_pct(50.0, 69.74) - 39.48).abs() < 1e-9);
    }
}
