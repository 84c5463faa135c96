//! Probability distributions used across the workspace.
//!
//! The paper's setting hinges on *degree heterogeneity* (Definition 3): the
//! heavy-tailed degree distribution of real social graphs. [`PowerLaw`]
//! provides the discrete power-law sampler behind the synthetic Facebook-like
//! and LastFM-like graphs; [`Normal`] supplies feature noise and the Gaussian
//! mechanism; [`Categorical`] drives label assignment.

use crate::rng::Xoshiro256pp;

/// Normal distribution sampled via the Box–Muller transform.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    /// Panics if `std` is negative or non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be finite and >= 0");
        Self { mean, std }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        // Box–Muller; u1 is kept away from zero so ln(u1) is finite.
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std * r * theta.cos()
    }
}

/// Discrete bounded power law on `{min, .., max}` with `P(k) ∝ k^{-alpha}`.
///
/// This is the degree model for the synthetic social graphs: real-world
/// degree distributions follow power laws (Clauset et al., cited as \[32\] in
/// the paper), which is exactly what creates the straggler problem the tree
/// trimmer solves.
#[derive(Debug, Clone)]
pub struct PowerLaw {
    min: u64,
    /// Cumulative distribution table over `min..=max` for inverse sampling.
    cdf: Vec<f64>,
}

impl PowerLaw {
    /// Creates a bounded discrete power law.
    ///
    /// # Panics
    /// Panics if `min == 0`, `min > max`, or `alpha` is non-finite.
    pub fn new(min: u64, max: u64, alpha: f64) -> Self {
        assert!(min > 0, "power law support must start at k >= 1");
        assert!(min <= max, "min must be <= max");
        assert!(alpha.is_finite(), "alpha must be finite");
        let n = (max - min + 1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in min..=max {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against floating-point rounding at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { min, cdf }
    }

    /// Draws one sample by inverse-CDF binary search.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u64 {
        let u = rng.next_f64();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.min + idx.min(self.cdf.len() - 1) as u64
    }
}

/// Categorical distribution over `0..weights.len()`.
#[derive(Debug, Clone)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Builds from non-negative weights (not necessarily normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite value, or
    /// sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Draws one category index.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(12345)
    }

    /// Expected value of the distribution, read off its CDF.
    fn analytic_mean(d: &PowerLaw) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (i, &c) in d.cdf.iter().enumerate() {
            let p = c - prev;
            prev = c;
            mean += p * (d.min + i as u64) as f64;
        }
        mean
    }

    #[test]
    fn normal_moments_match() {
        let mut r = rng();
        let d = Normal::new(2.0, 3.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut r = rng();
        let d = Normal::new(5.0, 0.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn power_law_respects_bounds() {
        let mut r = rng();
        let d = PowerLaw::new(2, 150, 2.5);
        for _ in 0..10_000 {
            let k = d.sample(&mut r);
            assert!((2..=150).contains(&k));
        }
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        // A power law with alpha=2.2 should put far more mass on small
        // degrees than large ones, but the tail should still be populated.
        let mut r = rng();
        let d = PowerLaw::new(1, 200, 2.2);
        let n = 100_000;
        let mut small = 0usize;
        let mut large = 0usize;
        for _ in 0..n {
            let k = d.sample(&mut r);
            if k <= 3 {
                small += 1;
            }
            if k >= 50 {
                large += 1;
            }
        }
        assert!(small > n / 2, "most mass at the head: {small}");
        assert!(large > 0, "tail should be reachable");
        assert!(small > large * 20, "head must dominate tail");
    }

    #[test]
    fn power_law_mean_matches_empirical() {
        let mut r = rng();
        let d = PowerLaw::new(1, 100, 2.0);
        let n = 200_000;
        let emp: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!(
            (emp - analytic_mean(&d)).abs() < 0.05,
            "emp {emp} vs analytic {}",
            analytic_mean(&d)
        );
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut r = rng();
        let d = Categorical::new(&[1.0, 2.0, 7.0]);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        let p2 = counts[2] as f64 / n as f64;
        assert!((p2 - 0.7).abs() < 0.01, "p2 {p2}");
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - 0.1).abs() < 0.01, "p0 {p0}");
    }

    #[test]
    #[should_panic]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn power_law_rejects_zero_min() {
        PowerLaw::new(0, 10, 2.0);
    }
}
