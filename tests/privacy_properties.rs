//! Property-based tests of the privacy substrates, spanning crates:
//! Theorem 3 (unbiased recovery), Definition 1 (ε-LDP ratio), Definition 2
//! (comparison reveals only the ordering), and the Eq. 10 covering
//! constraint through greedy + MCMC.

use proptest::prelude::*;

use lumos::balance::{
    greedy_init, mcmc_balance, CompareBackend, CompareOracle, McmcConfig, SecurityMode,
};
use lumos::common::rng::Xoshiro256pp;
use lumos::crypto::{secure_compare, secure_difference, TwoParty};
use lumos::graph::Graph;
use lumos::ldp::{EncodedValue, OneBitMechanism};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Closed-form unbiasedness: p·decode(1) + (1−p)·decode(0) == x.
    #[test]
    fn onebit_recovery_is_unbiased(
        eps in 0.05f64..8.0,
        x in 0.0f64..1.0,
    ) {
        let m = OneBitMechanism::new(eps, 0.0, 1.0);
        let p = m.prob_one(x);
        let mean = p * m.decode(EncodedValue::One) + (1.0 - p) * m.decode(EncodedValue::Zero);
        prop_assert!((mean - x).abs() < 1e-6, "bias {} at x={x}", mean - x);
    }

    /// Definition 1: output-probability ratios bounded by e^ε for any pair
    /// of inputs.
    #[test]
    fn onebit_ldp_ratio_bounded(
        eps in 0.05f64..6.0,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let m = OneBitMechanism::new(eps, 0.0, 1.0);
        let bound = eps.exp() + 1e-9;
        prop_assert!(m.prob_one(x) / m.prob_one(y) <= bound);
        prop_assert!((1.0 - m.prob_one(x)) / (1.0 - m.prob_one(y)) <= bound);
    }

    /// The secure comparison computes exactly the plain ordering.
    #[test]
    fn secure_compare_equals_plain(
        a in 0u64..65_536,
        b in 0u64..65_536,
        seed in any::<u64>(),
    ) {
        let mut ctx = TwoParty::new(seed, 1);
        let out = secure_compare(&mut ctx, &[(a, b)], 16)[0];
        prop_assert_eq!(out.ordering(), a.cmp(&b));
    }

    /// The masked-difference protocol is exact over the full signed range
    /// used by workload objectives.
    #[test]
    fn secure_difference_is_exact(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut ctx = TwoParty::new(seed, 1);
        prop_assert_eq!(secure_difference(&mut ctx, a, b), a - b);
    }

    /// Communication pattern of the comparison is input-independent
    /// (a necessary condition for the zero-knowledge claim of Theorem 5).
    #[test]
    fn compare_transcript_shape_is_input_independent(
        a in 0u64..256,
        b in 0u64..256,
    ) {
        let run = |x: u64, y: u64| {
            let mut ctx = TwoParty::with_transcript(7, 1);
            let _ = secure_compare(&mut ctx, &[(x, y)], 8);
            (ctx.meter, ctx.transcript().len())
        };
        prop_assert_eq!(run(a, b), run(0, 255));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Greedy + MCMC always preserve the covering constraint (Eq. 10) on
    /// random graphs, and never exceed the untrimmed maximum.
    #[test]
    fn balancer_preserves_edge_coverage(
        seed in any::<u64>(),
        n in 20usize..80,
        p in 0.05f64..0.3,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = lumos::graph::generate::erdos_renyi(n, p, &mut rng);
        let mut oracle = CompareOracle::default();
        let init = greedy_init(&g, &mut oracle);
        prop_assert!(init.check_feasible(&g).is_ok());
        let out = mcmc_balance(
            &g,
            init,
            &McmcConfig { iterations: 25, seed },
            &mut oracle,
        );
        prop_assert!(out.assignment.check_feasible(&g).is_ok());
        prop_assert!(out.assignment.objective() <= g.max_degree().max(1));
    }
}

/// The secure and cost-model oracles agree on decisions *and* communication
/// for a realistic greedy run.
#[test]
fn oracle_equivalence_on_a_real_graph() {
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let g = lumos::graph::generate::erdos_renyi(60, 0.15, &mut rng);
    let mut secure = CompareOracle::new(SecurityMode::Simulated, CompareBackend::Scalar, 3);
    let mut plain = CompareOracle::default();
    let a = greedy_init(&g, &mut secure);
    let b = greedy_init(&g, &mut plain);
    assert_eq!(a, b);
    assert_eq!(secure.meter(), plain.meter());
}

/// Isolated vertices never break the pipeline.
#[test]
fn isolated_vertices_survive_the_constructor() {
    let mut g = Graph::new(10);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    // Vertices 4..9 isolated.
    let mut oracle = CompareOracle::default();
    let init = greedy_init(&g, &mut oracle);
    init.check_feasible(&g).unwrap();
    let out = mcmc_balance(
        &g,
        init,
        &McmcConfig {
            iterations: 10,
            seed: 1,
        },
        &mut oracle,
    );
    out.assignment.check_feasible(&g).unwrap();
    for v in 4..10u32 {
        assert_eq!(out.assignment.workload(v), 0);
    }
}
