//! The one-bit mechanism (Ding et al., the paper's ref \[38\]).
//!
//! Encodes a bounded value `x ∈ [0, 1]` as a single bit whose probability of
//! being 1 grows linearly with `x` (Eq. 26), and recovers an *unbiased*
//! estimate from the bit (Eq. 27, Theorem 3). The per-element privacy budget
//! is `ε' = ε·wl(u)/d` in Lumos's feature encoder.

use lumos_common::rng::Xoshiro256pp;

/// One symbol of an encoded feature: a privatized bit or "not sent".
///
/// The paper fills missing elements with the constant 0.5, "implying no
/// deviation towards the maximum or minimum value".
// `Debug` is a named exception in `tests/source_contract.rs`: a post-randomization ε-LDP symbol, safe to reveal by Theorem 1; Debug needed by reproducibility asserts
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedValue {
    /// The mechanism output bit 0.
    Zero,
    /// The mechanism output bit 1.
    One,
    /// Element not included in this message (transmitted as the constant ½).
    Missing,
}

impl EncodedValue {
    /// Wire representation in `{0, 0.5, 1}` as in the paper's `x' ∈
    /// {0, 0.5, 1}^d`.
    pub fn wire_value(self) -> f32 {
        match self {
            EncodedValue::Zero => 0.0,
            EncodedValue::One => 1.0,
            EncodedValue::Missing => 0.5,
        }
    }

    /// The symbol's 2-bit code, as [`crate::EncodedFeature`] packs it.
    /// `Missing` is `0`, so zeroed storage reads as "nothing sent".
    pub fn code(self) -> u8 {
        match self {
            EncodedValue::Missing => 0,
            EncodedValue::Zero => 1,
            EncodedValue::One => 2,
        }
    }

    /// The symbol of a 2-bit code (the inverse of [`EncodedValue::code`]).
    ///
    /// # Panics
    /// Panics on the unused code `3`.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => EncodedValue::Missing,
            1 => EncodedValue::Zero,
            2 => EncodedValue::One,
            _ => panic!("{code} is not an encoded-value code"),
        }
    }
}

/// Lower end of the input range (features live in `[0, 1]`).
const A: f64 = 0.0;
/// Upper end of the input range.
const B: f64 = 1.0;

/// One-bit mechanism with per-element budget `eps` on the range `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct OneBitMechanism {
    eps: f64,
}

impl OneBitMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    /// Panics if `eps` is not finite and positive.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "epsilon must be positive");
        Self { eps }
    }

    /// Per-element privacy budget ε'.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Probability that the mechanism outputs 1 for input `x` (Eq. 26).
    pub fn prob_one(&self, x: f64) -> f64 {
        let e = self.eps.exp();
        let x = x.clamp(A, B);
        1.0 / (e + 1.0) + (x - A) / (B - A) * (e - 1.0) / (e + 1.0)
    }

    /// Encodes one element (Eq. 26).
    pub fn encode(&self, x: f64, rng: &mut Xoshiro256pp) -> EncodedValue {
        if rng.bernoulli(self.prob_one(x)) {
            EncodedValue::One
        } else {
            EncodedValue::Zero
        }
    }

    /// Recovers an unbiased estimate from an encoded element (Eq. 27).
    ///
    /// For `Missing`, returns the midpoint ½, which carries no directional
    /// information.
    pub fn decode(&self, v: EncodedValue) -> f64 {
        let e = self.eps.exp();
        let half_span = (B - A) / 2.0;
        let mid = (A + B) / 2.0;
        match v {
            EncodedValue::One => half_span * (e + 1.0) / (e - 1.0) + mid,
            EncodedValue::Zero => -half_span * (e + 1.0) / (e - 1.0) + mid,
            EncodedValue::Missing => mid,
        }
    }

    /// Variance of the recovered estimate for input `x` — used by the
    /// paper's argument that partial (binned) encoding has lower variance
    /// than full encoding under the same total budget.
    pub fn variance(&self, x: f64) -> f64 {
        let p = self.prob_one(x);
        let hi = self.decode(EncodedValue::One);
        let lo = self.decode(EncodedValue::Zero);
        let mean = p * hi + (1.0 - p) * lo;
        p * (hi - mean).powi(2) + (1.0 - p) * (lo - mean).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(31337)
    }

    #[test]
    fn prob_one_is_monotone_and_spans_the_ldp_ratio() {
        let m = OneBitMechanism::new(2.0);
        let p_lo = m.prob_one(0.0);
        let p_mid = m.prob_one(0.5);
        let p_hi = m.prob_one(1.0);
        assert!(p_lo < p_mid && p_mid < p_hi);
        // Definition 1: sup-ratio equals e^ε exactly at the extremes,
        // for both outputs.
        assert!((p_hi / p_lo - 2.0f64.exp()).abs() < 1e-9);
        let q_lo = 1.0 - p_hi;
        let q_hi = 1.0 - p_lo;
        assert!((q_hi / q_lo - 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn epsilon_ldp_bound_holds_on_a_grid() {
        let eps = 1.5;
        let m = OneBitMechanism::new(eps);
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        for &x in &grid {
            for &y in &grid {
                let r1 = m.prob_one(x) / m.prob_one(y);
                let r0 = (1.0 - m.prob_one(x)) / (1.0 - m.prob_one(y));
                assert!(r1 <= eps.exp() + 1e-9, "ratio {r1} at ({x},{y})");
                assert!(r0 <= eps.exp() + 1e-9, "ratio {r0} at ({x},{y})");
            }
        }
    }

    #[test]
    fn recovery_is_unbiased_theorem_3() {
        // E[x''] must equal x for several inputs (Theorem 3).
        let m = OneBitMechanism::new(1.0);
        let mut r = rng();
        for &x in &[0.0, 0.2, 0.5, 0.77, 1.0] {
            let n = 200_000;
            let mean: f64 = (0..n).map(|_| m.decode(m.encode(x, &mut r))).sum::<f64>() / n as f64;
            assert!((mean - x).abs() < 0.02, "x={x}: mean {mean}");
        }
    }

    #[test]
    fn unbiasedness_closed_form() {
        // p·decode(1) + (1-p)·decode(0) == x exactly.
        let m = OneBitMechanism::new(0.7);
        for &x in &[0.0, 0.15, 0.6, 1.0] {
            let p = m.prob_one(x);
            let mean = p * m.decode(EncodedValue::One) + (1.0 - p) * m.decode(EncodedValue::Zero);
            assert!((mean - x).abs() < 1e-9, "x={x}: {mean}");
        }
    }

    #[test]
    fn missing_decodes_to_midpoint() {
        let m = OneBitMechanism::new(2.0);
        assert!((m.decode(EncodedValue::Missing) - 0.5).abs() < 1e-12);
        assert_eq!(EncodedValue::Missing.wire_value(), 0.5);
    }

    #[test]
    fn variance_decreases_with_budget() {
        let lo = OneBitMechanism::new(0.5);
        let hi = OneBitMechanism::new(4.0);
        assert!(hi.variance(0.5) < lo.variance(0.5));
    }

    #[test]
    #[should_panic]
    fn zero_epsilon_rejected() {
        OneBitMechanism::new(0.0);
    }
}
