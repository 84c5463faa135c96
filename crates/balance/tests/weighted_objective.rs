//! Property tests for the cost-weighted balance objective.
//!
//! Three contracts keep the heterogeneity-aware objective honest:
//!
//! 1. **Degeneracy** — the all-ones cost vector is the paper's node-count
//!    objective, bit for bit: same retained sets, same MCMC trace, same
//!    number of secure comparisons.
//! 2. **Dominance** — the weighted objective is the weighted makespan: it
//!    equals the busiest device's `c_u · |N_u|` and therefore dominates
//!    every device's weighted busy time and the fleet mean.
//! 3. **Oracle invariance** — the real OT-based comparison circuits and
//!    their metered cost model drive the weighted chain to identical
//!    states, exactly as they do for the unweighted one.

use proptest::prelude::*;

use lumos_balance::{
    greedy_init, greedy_init_weighted, mcmc_balance, CompareBackend, CompareOracle, McmcConfig,
    SecurityMode,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_graph::generate::erdos_renyi;
use lumos_graph::Graph;

/// A seeded graph plus a seeded cost vector in `[1, 1000]` µs.
fn graph_and_costs(seed: u64, n: usize, p: f64) -> (Graph, Vec<u64>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let g = erdos_renyi(n, p, &mut rng);
    let costs = (0..n).map(|_| rng.range_u64(1, 1000)).collect();
    (g, costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-ones costs reproduce the node-count balancing run bit for bit:
    /// retained sets, objective trace, comparison count, acceptance count.
    #[test]
    fn all_ones_costs_reproduce_node_count_balancing(seed in any::<u64>()) {
        let (g, _) = graph_and_costs(seed, 40, 0.12);
        let cfg = McmcConfig { iterations: 30, seed: seed ^ 0xF00D };
        let mut plain_oracle = CompareOracle::default();
        let plain_init = greedy_init(&g, &mut plain_oracle);
        let plain = mcmc_balance(&g, plain_init, &cfg, &mut plain_oracle);

        let ones = vec![1u64; g.num_nodes()];
        let mut ones_oracle = CompareOracle::default();
        let ones_init = greedy_init_weighted(&g, Some(&ones), &mut ones_oracle);
        let weighted = mcmc_balance(&g, ones_init, &cfg, &mut ones_oracle);

        for v in 0..g.num_nodes() as u32 {
            prop_assert_eq!(plain.assignment.kept(v), weighted.assignment.kept(v));
        }
        prop_assert_eq!(&plain.trace, &weighted.trace);
        // The all-ones weighted workload IS the node count, so the weighted
        // trace coincides with the node-count trace element-wise.
        prop_assert_eq!(
            weighted.weighted_trace,
            plain.trace.iter().map(|&x| x as u64).collect::<Vec<_>>()
        );
        prop_assert_eq!(plain_oracle.comparisons(), ones_oracle.comparisons(),
            "all-ones must not change the number of secure comparisons");
        prop_assert_eq!(plain.stats.accepted, weighted.stats.accepted);
    }

    /// The weighted objective is the weighted makespan: feasible, equal to
    /// the maximum per-device weighted busy time, and hence at least the
    /// fleet's mean weighted load.
    #[test]
    fn weighted_objective_dominates_busy_and_mean(seed in any::<u64>()) {
        let (g, costs) = graph_and_costs(seed, 48, 0.10);
        let cfg = McmcConfig { iterations: 40, seed: seed ^ 0xBEEF };
        let mut oracle = CompareOracle::default();
        let init = greedy_init_weighted(&g, Some(&costs), &mut oracle);
        let out = mcmc_balance(&g, init, &cfg, &mut oracle);
        out.assignment.check_feasible(&g).unwrap();

        let busy = out.assignment.weighted_workloads();
        let objective = out.assignment.weighted_objective();
        prop_assert_eq!(objective, busy.iter().copied().max().unwrap_or(0));
        for (d, &b) in busy.iter().enumerate() {
            prop_assert!(objective >= b, "device {} busy {} exceeds makespan {}", d, b, objective);
        }
        let total: u64 = busy.iter().sum();
        prop_assert!(
            objective as u128 * busy.len() as u128 >= total as u128,
            "weighted makespan {} below the fleet mean of {}", objective, total
        );
        // The trace and the returned assignment can never drift apart: the
        // final entry is exactly the final assignment's objective. (No
        // monotonicity claim — Metropolis–Hastings may legitimately end an
        // uphill move above where it started.)
        prop_assert_eq!(
            out.weighted_trace.last().copied(),
            Some(out.assignment.weighted_objective())
        );
    }
}

proptest! {
    // The real OT circuits run 48-bit comparisons per edge per sweep; keep
    // the instance count small so the suite stays sub-second.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Secure and metered-plain oracles drive the weighted chain through
    /// identical states and charge the identical comparison count.
    #[test]
    fn secure_and_plain_oracles_agree_on_weighted_workloads(seed in any::<u64>()) {
        let (g, costs) = graph_and_costs(seed, 14, 0.25);
        let cfg = McmcConfig { iterations: 6, seed: seed ^ 0x5AFE };

        let mut secure = CompareOracle::new(SecurityMode::Simulated, CompareBackend::Scalar, seed ^ 0xA11CE);
        let secure_init = greedy_init_weighted(&g, Some(&costs), &mut secure);
        let secure_out = mcmc_balance(&g, secure_init, &cfg, &mut secure);

        let mut plain = CompareOracle::default();
        let plain_init = greedy_init_weighted(&g, Some(&costs), &mut plain);
        let plain_out = mcmc_balance(&g, plain_init, &cfg, &mut plain);

        prop_assert_eq!(secure_out.assignment, plain_out.assignment);
        prop_assert_eq!(secure_out.weighted_trace, plain_out.weighted_trace);
        prop_assert_eq!(secure.comparisons(), plain.comparisons());
        prop_assert_eq!(secure.meter(), plain.meter(), "cost model drifted on weighted lane");
    }
}
