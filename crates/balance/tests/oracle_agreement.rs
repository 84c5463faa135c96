//! Cross-oracle agreement on Algorithm 3 (secure max-workload location).
//!
//! The cost-model oracle is the stand-in used at paper scale; the simulated
//! one runs the real OT-based comparison circuits. The two must
//! be observationally identical: same orderings, hence the same candidate
//! vertex sets, the same selected max-workload device (given the same
//! server tie-break stream), and the same charged communication.

use lumos_balance::{
    find_max_workload_device, greedy_init, mcmc_balance, Assignment, CompareBackend, CompareOracle,
    McmcConfig, SecurityMode,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_graph::generate::{barabasi_albert, erdos_renyi};
use lumos_graph::Graph;

/// Runs Algorithm 3 under both oracles on the same assignment with the same
/// server randomness and asserts identical outcomes.
fn assert_maxfind_agreement(g: &Graph, assignment: &Assignment, label: &str) {
    let mut secure =
        CompareOracle::new(SecurityMode::Simulated, CompareBackend::Scalar, 0x00A1_1CE5);
    let mut plain = CompareOracle::default();
    let mut rng_secure = Xoshiro256pp::seed_from_u64(2024);
    let mut rng_plain = Xoshiro256pp::seed_from_u64(2024);
    let a = find_max_workload_device(g, assignment, &mut secure, &mut rng_secure);
    let b = find_max_workload_device(g, assignment, &mut plain, &mut rng_plain);
    assert_eq!(
        a.device, b.device,
        "{label}: oracles located different devices"
    );
    assert_eq!(a.cvs_size, b.cvs_size, "{label}: candidate sets differ");
    assert_eq!(a.server, b.server, "{label}: server traffic differs");
    assert_eq!(secure.meter(), plain.meter(), "{label}: cost model drifted");
    assert_eq!(
        secure.comparisons(),
        plain.comparisons(),
        "{label}: comparison counts differ"
    );
    // Sanity: the located device really is a maximum.
    let max_wl = assignment.workloads().into_iter().max().unwrap();
    assert_eq!(
        assignment.workload(a.device),
        max_wl,
        "{label}: not a max-workload device"
    );
}

#[test]
fn oracles_agree_on_seeded_erdos_renyi_graphs() {
    for seed in [1u64, 7, 42] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = erdos_renyi(40, 0.12, &mut rng);
        if g.num_edges() == 0 {
            continue;
        }
        assert_maxfind_agreement(&g, &Assignment::full(&g), &format!("er-full seed {seed}"));
    }
}

#[test]
fn oracles_agree_on_heavy_tailed_graphs() {
    // Barabási–Albert graphs have the hub-dominated degree profile that
    // makes Algorithm 3's phase 1 actually prune; agreement must survive it.
    for seed in [3u64, 11] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = barabasi_albert(50, 2, &mut rng);
        assert_maxfind_agreement(&g, &Assignment::full(&g), &format!("ba-full seed {seed}"));
    }
}

#[test]
fn oracles_agree_after_greedy_trimming() {
    // Agreement must also hold on the trimmed assignments Algorithm 3 sees
    // in production (inside the MCMC loop), not just the untrimmed ones.
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let g = erdos_renyi(35, 0.18, &mut rng);
    let mut oracle = CompareOracle::default();
    let trimmed = greedy_init(&g, &mut oracle);
    trimmed.check_feasible(&g).unwrap();
    assert_maxfind_agreement(&g, &trimmed, "greedy-trimmed");
}

#[test]
fn full_balancing_pipeline_is_oracle_invariant() {
    // Greedy + MCMC driven end-to-end under each oracle: identical final
    // assignments and identical objective traces.
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let g = erdos_renyi(30, 0.2, &mut rng);
    let cfg = McmcConfig {
        iterations: 15,
        seed: 99,
    };

    let mut secure = CompareOracle::new(SecurityMode::Simulated, CompareBackend::Scalar, 5);
    let init_secure = greedy_init(&g, &mut secure);
    let out_secure = mcmc_balance(&g, init_secure, &cfg, &mut secure);

    let mut plain = CompareOracle::default();
    let init_plain = greedy_init(&g, &mut plain);
    let out_plain = mcmc_balance(&g, init_plain, &cfg, &mut plain);

    assert_eq!(out_secure.assignment, out_plain.assignment);
    assert_eq!(
        out_secure.assignment.objective(),
        out_plain.assignment.objective()
    );
    assert_eq!(secure.meter(), plain.meter());
}
