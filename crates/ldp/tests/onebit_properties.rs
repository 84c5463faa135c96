//! Fixed-seed Monte Carlo checks of the one-bit mechanism (Theorems 3–4).
//!
//! The in-module unit tests pin the closed forms; these tests verify that
//! the *sampled* mechanism actually realizes them: the empirical mean of
//! decoded bits converges to the true input (unbiasedness, Theorem 3), the
//! empirical bit frequencies respect the e^ε randomization bound of
//! Definition 1, and the empirical variance matches the closed form. All
//! runs are seeded, so tolerances can be tight without flakiness.

use lumos_common::rng::Xoshiro256pp;
use lumos_ldp::{EncodedValue, OneBitMechanism};

/// Empirical P(bit = 1) over `n` fixed-seed draws.
fn empirical_p1(m: &OneBitMechanism, x: f64, n: usize, rng: &mut Xoshiro256pp) -> f64 {
    let ones = (0..n)
        .filter(|_| m.encode(x, rng) == EncodedValue::One)
        .count();
    ones as f64 / n as f64
}

#[test]
fn monte_carlo_mean_is_unbiased() {
    // Theorem 3: E[decode(encode(x))] = x. With n = 400k draws the standard
    // error of the mean is sigma/sqrt(n); for every (eps, x) below,
    // 5 standard errors stay under the asserted tolerance, so the fixed
    // seed makes this deterministic and still tight.
    let n = 400_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x0B17_0001);
    for &eps in &[0.5, 2.0, 6.0] {
        let m = OneBitMechanism::new(eps);
        for &x in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let mean: f64 = (0..n).map(|_| m.decode(m.encode(x, &mut rng))).sum::<f64>() / n as f64;
            let tol = 5.0 * (m.variance(x) / n as f64).sqrt();
            assert!(
                (mean - x).abs() < tol,
                "eps={eps} x={x}: empirical mean {mean} off by {} (tol {tol})",
                (mean - x).abs()
            );
        }
    }
}

#[test]
fn empirical_frequencies_match_eq_26() {
    // The sampler must realize exactly the probability prob_one claims —
    // this is what makes the analytic ε bound transfer to the sampled bits.
    let n = 500_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x0B17_0003);
    for &eps in &[0.25, 1.0, 4.0] {
        let m = OneBitMechanism::new(eps);
        for &x in &[0.0, 0.3, 0.7, 1.0] {
            let p_hat = empirical_p1(&m, x, n, &mut rng);
            let p = m.prob_one(x);
            let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt() + 1e-9;
            assert!(
                (p_hat - p).abs() < tol,
                "eps={eps} x={x}: empirical {p_hat} vs analytic {p}"
            );
        }
    }
}

#[test]
fn epsilon_randomization_bound_holds_empirically() {
    // Definition 1 on the realized bits: for any two inputs x, y and either
    // output bit, the frequency ratio may exceed e^ε only by Monte Carlo
    // error. The worst-case pair is the range's two extremes, where the
    // analytic ratio equals e^ε exactly.
    let n = 500_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x0B17_0004);
    for &eps in &[0.5, 2.0] {
        let m = OneBitMechanism::new(eps);
        let inputs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let p_hat: Vec<f64> = inputs
            .iter()
            .map(|&x| empirical_p1(&m, x, n, &mut rng))
            .collect();
        // 4-sigma slack on each frequency, propagated into the ratio bound.
        let slack = 4.0 * (0.25 / n as f64).sqrt();
        let bound = eps.exp();
        for (i, &pi) in p_hat.iter().enumerate() {
            for (j, &pj) in p_hat.iter().enumerate() {
                let r1 = pi / pj;
                let r0 = (1.0 - pi) / (1.0 - pj);
                let tol = bound * (1.0 + 8.0 * slack);
                assert!(
                    r1 <= tol && r0 <= tol,
                    "eps={eps}: pair ({}, {}) ratios ({r1:.4}, {r0:.4}) exceed e^eps = {bound:.4}",
                    inputs[i],
                    inputs[j]
                );
            }
        }
        // And the analytic extreme-pair ratio is exactly e^ε — the budget
        // is fully spent, not just bounded.
        let exact = m.prob_one(1.0) / m.prob_one(0.0);
        assert!((exact - bound).abs() < 1e-9, "sup ratio {exact} != e^eps");
    }
}

#[test]
fn monte_carlo_variance_matches_closed_form() {
    let n = 400_000;
    let m = OneBitMechanism::new(2.0);
    let mut rng = Xoshiro256pp::seed_from_u64(0x0B17_0005);
    for &x in &[0.1, 0.5, 0.9] {
        let draws: Vec<f64> = (0..n).map(|_| m.decode(m.encode(x, &mut rng))).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let want = m.variance(x);
        assert!(
            (var - want).abs() / want < 0.02,
            "x={x}: empirical variance {var} vs closed form {want}"
        );
    }
}

#[test]
fn fixed_seed_encoding_is_reproducible() {
    // The whole point of the fixed-seed harness: identical seeds must give
    // identical encoded streams.
    let m = OneBitMechanism::new(2.0);
    let run = |seed: u64| -> Vec<EncodedValue> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..10_000)
            .map(|i| m.encode((i % 100) as f64 / 99.0, &mut rng))
            .collect()
    };
    assert_eq!(run(123), run(123));
    assert_ne!(
        run(123),
        run(124),
        "different seeds should differ somewhere"
    );
}
