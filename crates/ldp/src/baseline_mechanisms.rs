//! Mechanisms used by the comparison systems (§VIII-C).
//!
//! * [`MultiBitMechanism`] — LPGNN's feature encoder: sample `m` of `d`
//!   dimensions, one-bit encode each with budget `ε/m`, rescale for
//!   unbiasedness.
//! * [`GaussianMechanism`] — naive FedGNN's feature noise.
//! * [`RandomizedResponse`] — k-ary randomized response for labels and
//!   binary randomized response for adjacency bits.

use lumos_common::dist::Normal;
use lumos_common::rng::Xoshiro256pp;

use crate::onebit::OneBitMechanism;

/// LPGNN-style multi-bit mechanism over `[a, b]^d`.
#[derive(Debug, Clone)]
pub struct MultiBitMechanism {
    mech: OneBitMechanism,
    dim: usize,
    sampled: usize,
    a: f64,
    b: f64,
}

impl MultiBitMechanism {
    /// Creates the mechanism: `sampled` dimensions are released per user at
    /// per-element budget `epsilon / sampled`.
    ///
    /// # Panics
    /// Panics if `sampled` is 0 or exceeds `dim`.
    pub fn new(epsilon: f64, dim: usize, sampled: usize, a: f64, b: f64) -> Self {
        assert!(sampled >= 1 && sampled <= dim, "need 1 <= sampled <= dim");
        Self {
            mech: OneBitMechanism::new(epsilon / sampled as f64, a, b),
            dim,
            sampled,
            a,
            b,
        }
    }

    /// Encodes a feature vector: the unsampled positions carry no
    /// information; sampled positions are one-bit encoded. The decoded
    /// estimate is rescaled by `d/m` around the midpoint so the full-vector
    /// estimate stays unbiased.
    pub fn privatize(&self, feature: &[f32], rng: &mut Xoshiro256pp) -> Vec<f32> {
        assert_eq!(feature.len(), self.dim, "feature dimension mismatch");
        let chosen = rng.sample_indices(self.dim, self.sampled);
        let mut mask = vec![false; self.dim];
        for &i in &chosen {
            mask[i] = true;
        }
        let mid = (self.a + self.b) / 2.0;
        let scale = self.dim as f64 / self.sampled as f64;
        feature
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if mask[i] {
                    let v = self.mech.decode(self.mech.encode(x as f64, rng));
                    (mid + scale * (v - mid)) as f32
                } else {
                    mid as f32
                }
            })
            .collect()
    }
}

/// The Gaussian mechanism for bounded vectors.
#[derive(Debug, Clone, Copy)]
pub struct GaussianMechanism {
    sigma: f64,
}

impl GaussianMechanism {
    /// Creates the mechanism with explicit noise scale.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        Self { sigma }
    }

    /// Calibrates σ for (ε, δ)-DP with L2 sensitivity `delta_f`:
    /// `σ = sqrt(2 ln(1.25/δ)) · Δf / ε` (Dwork & Roth, the paper's \[45\]).
    pub fn calibrated(epsilon: f64, delta: f64, delta_f: f64) -> Self {
        assert!(
            epsilon > 0.0 && delta > 0.0 && delta < 1.0,
            "bad (eps, delta)"
        );
        Self::with_sigma((2.0 * (1.25 / delta).ln()).sqrt() * delta_f / epsilon)
    }

    /// Adds i.i.d. Gaussian noise to each element.
    pub fn privatize(&self, feature: &[f32], rng: &mut Xoshiro256pp) -> Vec<f32> {
        let dist = Normal::new(0.0, self.sigma);
        feature
            .iter()
            .map(|&x| x + dist.sample(rng) as f32)
            .collect()
    }
}

/// k-ary randomized response (Warner, the paper's \[46\]).
#[derive(Debug, Clone, Copy)]
pub struct RandomizedResponse {
    keep_prob: f64,
    k: usize,
}

impl RandomizedResponse {
    /// Creates k-ary RR with budget ε: the true value is kept with
    /// probability `e^ε / (e^ε + k − 1)`, otherwise a uniformly random
    /// *other* value is reported.
    ///
    /// # Panics
    /// Panics if `k < 2` or ε is not positive.
    pub fn new(epsilon: f64, k: usize) -> Self {
        assert!(k >= 2, "randomized response needs k >= 2");
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        let e = epsilon.exp();
        Self {
            keep_prob: e / (e + (k as f64) - 1.0),
            k,
        }
    }

    /// Probability of reporting the true value.
    pub fn keep_prob(&self) -> f64 {
        self.keep_prob
    }

    /// Privatizes one categorical value in `0..k`.
    pub fn privatize(&self, value: u32, rng: &mut Xoshiro256pp) -> u32 {
        assert!((value as usize) < self.k, "value out of range");
        if rng.bernoulli(self.keep_prob) {
            value
        } else {
            // Uniform over the k-1 other values.
            let other = rng.next_below((self.k - 1) as u64) as u32;
            if other >= value {
                other + 1
            } else {
                other
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(606)
    }

    #[test]
    fn multibit_is_unbiased_over_repetitions() {
        let m = MultiBitMechanism::new(4.0, 16, 4, 0.0, 1.0);
        let feature: Vec<f32> = (0..16).map(|i| i as f32 / 15.0).collect();
        let mut r = rng();
        let n = 40_000;
        let mut sums = [0.0f64; 16];
        for _ in 0..n {
            for (s, v) in sums.iter_mut().zip(m.privatize(&feature, &mut r)) {
                *s += v as f64;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let mean = s / n as f64;
            assert!(
                (mean - feature[i] as f64).abs() < 0.05,
                "dim {i}: {mean} vs {}",
                feature[i]
            );
        }
    }

    #[test]
    fn gaussian_noise_moments() {
        let g = GaussianMechanism::with_sigma(0.5);
        let mut r = rng();
        let x = vec![0.3f32; 50_000];
        let y = g.privatize(&x, &mut r);
        let mean: f64 = y.iter().map(|&v| v as f64).sum::<f64>() / y.len() as f64;
        let var: f64 = y.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / y.len() as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gaussian_calibration_formula() {
        let g = GaussianMechanism::calibrated(1.0, 1e-5, 1.0);
        let expected = (2.0f64 * (1.25f64 / 1e-5).ln()).sqrt();
        assert!((g.sigma - expected).abs() < 1e-12);
    }

    #[test]
    fn rr_keep_probability_matches_theory() {
        let rr = RandomizedResponse::new(1.0, 4);
        let e = 1.0f64.exp();
        assert!((rr.keep_prob() - e / (e + 3.0)).abs() < 1e-12);
        let mut r = rng();
        let n = 100_000;
        let kept = (0..n).filter(|_| rr.privatize(2, &mut r) == 2).count();
        // Observed "2" includes both kept and randomly-flipped-to-2; the
        // flip contributes (1-p)/3.
        let p = rr.keep_prob();
        let expected = p;
        let frac = kept as f64 / n as f64;
        assert!((frac - expected).abs() < 0.02, "frac {frac} vs {expected}");
    }

    #[test]
    fn rr_outputs_in_range_and_bits_flip() {
        let rr = RandomizedResponse::new(0.5, 2);
        let mut r = rng();
        let flips = (0..50_000).filter(|_| rr.privatize(0, &mut r) == 1).count();
        let frac = flips as f64 / 50_000.0;
        let expected = 1.0 - rr.keep_prob();
        assert!((frac - expected).abs() < 0.02, "flip rate {frac}");
        let rr9 = RandomizedResponse::new(2.0, 9);
        for v in 0..9u32 {
            for _ in 0..100 {
                assert!(rr9.privatize(v, &mut r) < 9);
            }
        }
    }

    #[test]
    fn rr_satisfies_ldp_ratio() {
        // P[out=y | in=x] / P[out=y | in=x'] <= e^eps for all x, x', y.
        let eps = 1.2f64;
        let rr = RandomizedResponse::new(eps, 5);
        let p_keep = rr.keep_prob();
        let p_other = (1.0 - p_keep) / 4.0;
        let ratio = p_keep / p_other;
        assert!(ratio <= eps.exp() + 1e-9, "ratio {ratio}");
    }
}
