//! The empirical CDF behind Figure 7.
//!
//! [`Ecdf`] holds the per-device workloads with and without tree trimming;
//! the balancer reads its p95 off the same type.

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
