//! MCMC iteration (Algorithm 2) with Metropolis–Hastings acceptance.
//!
//! Starting from the greedy assignment, each iteration moves `k` branches
//! off the currently most-loaded device `u` (Eq. 17, with `k` sampled from
//! `1..=round(ln |N_u|)`), then accepts the move with probability
//! `min(1, e^{f(X_t) − f(X'_t)})` (Eq. 18). The most-loaded device is found
//! with Algorithm 3 and the objective difference with the secure-difference
//! protocol, so no workload is ever revealed in the clear. Theorem 2 bounds
//! the probability that the chain settles far from the optimum.
//!
//! When the assignment carries per-node costs ([`Assignment::with_costs`]),
//! every workload in the chain is the *weighted* workload `c_u · |N_u|`
//! (fixed-point virtual µs): Algorithm 3 locates the slowest-in-µs device
//! and Eq. 18's exponent is normalized by the fleet's mean per-node cost so
//! the acceptance temperature stays in tree-node units. With unit costs the
//! normalizer is exactly 1.0 and the chain is bit-identical to the paper's.
//!
//! The chain's dominant cost — `2 × iterations` Algorithm-3 sweeps, each
//! comparing every edge — goes to the [`CompareOracle`] as whole-sweep
//! batches, so a bit-sliced backend
//! ([`crate::oracle::CompareBackend::Bitsliced`]) evaluates 64 edges per
//! circuit while leaving every outcome, and hence the chain's trajectory,
//! untouched.

// Fixed-point cost module: a narrowing `as` cast here silently corrupts
// the µs encoding, so each one is an error unless audited with `#[expect]`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use lumos_common::rng::Xoshiro256pp;
use lumos_crypto::CommMeter;
use lumos_graph::Graph;

use crate::maxfind::{find_max_workload_device, ServerTraffic};
use crate::oracle::CompareOracle;
use crate::problem::Assignment;

/// Configuration for the MCMC balancer.
#[derive(Debug, Clone)]
pub struct McmcConfig {
    /// Number of iterations `T` (the paper uses 1,000 for Facebook and 300
    /// for LastFM).
    pub iterations: usize,
    /// Seed for proposal sampling and tie breaking.
    pub seed: u64,
}

/// Statistics of one MCMC run.
#[derive(Debug, Clone, Default)]
pub struct McmcStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Accepted transitions.
    pub accepted: usize,
    /// Device-to-device assignment update messages (Alg. 2 line 9).
    pub device_messages: u64,
    /// Server traffic from the embedded Algorithm 3 runs.
    pub server: ServerTraffic,
    /// Secure-protocol communication (comparisons + differences).
    pub secure: CommMeter,
    /// Number of secure comparisons.
    pub comparisons: u64,
}

/// Result of the MCMC balancer.
#[derive(Debug, Clone)]
pub struct McmcOutcome {
    /// Final assignment.
    pub assignment: Assignment,
    /// Objective value after each iteration (simulator-side trace for
    /// reporting; devices never see it in the clear).
    pub trace: Vec<usize>,
    /// Weighted objective (`max_u c_u · |N_u|`, virtual µs) after each
    /// iteration; equals `trace` element-wise under unit costs.
    pub weighted_trace: Vec<u64>,
    /// Run statistics.
    pub stats: McmcStats,
}

/// Runs Algorithm 2 for `cfg.iterations` iterations.
pub fn mcmc_balance(
    g: &Graph,
    mut assignment: Assignment,
    cfg: &McmcConfig,
    oracle: &mut CompareOracle,
) -> McmcOutcome {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut stats = McmcStats::default();
    let mut trace = Vec::with_capacity(cfg.iterations);
    let mut weighted_trace = Vec::with_capacity(cfg.iterations);
    let meter_base = oracle.meter();
    let comparisons_base = oracle.comparisons();
    // Acceptance temperature in tree-node units: 1.0 when unweighted, the
    // mean per-node cost when weighted (dividing by 1.0 is a bitwise no-op,
    // so the default objective's RNG stream is untouched).
    let scale = assignment.cost_scale();

    for _ in 0..cfg.iterations {
        stats.iterations += 1;

        // Line 2: locate the most-loaded device under X_t.
        let before = find_max_workload_device(g, &assignment, oracle, &mut rng);
        stats.server.messages += before.server.messages;
        let u = before.device;
        let wl_u = assignment.workload(u);
        if wl_u == 0 {
            // Perfectly empty maximum: nothing to balance.
            trace.push(assignment.objective());
            weighted_trace.push(assignment.weighted_objective());
            continue;
        }
        // `weighted_workload` guarantees ≤ i64::MAX (checked mul + bound),
        // so the conversion cannot fail; try_from documents the invariant.
        let f_old = i64::try_from(assignment.weighted_workload(u))
            .expect("weighted workload fits the i64 secure-difference lane");

        // Lines 3–4: sample the step size and the branches to move.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "k_max = round(ln(wl)) ≤ 45 for any u64 workload; truncation impossible"
        )]
        let k_max = ((wl_u as f64).ln().round() as usize).max(1).min(wl_u);
        let k = 1 + rng.index(k_max);
        let picks: Vec<u32> = rng
            .sample_indices(wl_u, k)
            .into_iter()
            .map(|i| assignment.kept(u)[i])
            .collect();

        // Line 5: form X'_t (remembering prior state for rollback).
        let prior: Vec<bool> = picks.iter().map(|&v| assignment.keeps(v, u)).collect();
        for &v in &picks {
            assignment.transfer(u, v);
        }

        // Line 6: most-loaded device under X'_t.
        let after = find_max_workload_device(g, &assignment, oracle, &mut rng);
        stats.server.messages += after.server.messages;
        let f_new = i64::try_from(assignment.weighted_workload(after.device))
            .expect("weighted workload fits the i64 secure-difference lane");

        // Line 7: devices {u, u'} compute f(X_t) − f(X'_t) securely.
        let delta = oracle.difference(f_old, f_new);

        // Line 8 (Eq. 18): Metropolis–Hastings acceptance, with the
        // exponent in mean-per-node-cost units so weighted runs keep the
        // paper's temperature instead of collapsing to pure descent.
        let accept = if delta >= 0 {
            true
        } else {
            rng.bernoulli((delta as f64 / scale).exp())
        };

        if accept {
            stats.accepted += 1;
            // Line 9: u broadcasts the accepted state to the k movers.
            stats.device_messages += k as u64;
        } else {
            for (&v, &was) in picks.iter().zip(&prior).rev() {
                assignment.untransfer(u, v, was);
            }
        }
        trace.push(assignment.objective());
        weighted_trace.push(assignment.weighted_objective());
    }

    stats.secure = oracle.meter().since(&meter_base);
    stats.comparisons = oracle.comparisons() - comparisons_base;
    McmcOutcome {
        assignment,
        trace,
        weighted_trace,
        stats,
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "fixture graphs and labels are a few dozen small ids"
)]
mod tests {
    use super::*;
    use crate::greedy::greedy_init;
    use crate::problem::objective_lower_bound;
    use lumos_graph::generate::{homophilous_powerlaw, PowerLawConfig};

    fn powerlaw_graph(n: usize, seed: u64) -> Graph {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let labels: Vec<u32> = (0..n).map(|_| rng.next_below(4) as u32).collect();
        homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng)
    }

    #[test]
    fn mcmc_keeps_feasibility_and_does_not_worsen_much() {
        let g = powerlaw_graph(400, 9);
        let mut oracle = CompareOracle::default();
        let init = greedy_init(&g, &mut oracle);
        let init_obj = init.objective();
        let cfg = McmcConfig {
            iterations: 150,
            seed: 4,
        };
        let out = mcmc_balance(&g, init, &cfg, &mut oracle);
        out.assignment.check_feasible(&g).unwrap();
        assert_eq!(out.trace.len(), 150);
        // MH can accept slightly worse states transiently, but the end state
        // should not be worse than the start (on this scale it improves or
        // ties with overwhelming probability).
        assert!(
            out.assignment.objective() <= init_obj,
            "final {} vs init {init_obj}",
            out.assignment.objective()
        );
        assert!(out.assignment.objective() >= objective_lower_bound(&g));
    }

    #[test]
    fn mcmc_improves_a_star_imbalance() {
        // Star + ring: greedy on a star leaves the hub empty, but starting
        // from the *full* assignment the hub has everything; MCMC must shed
        // hub branches.
        let mut edges: Vec<(u32, u32)> = (1..=12).map(|v| (0u32, v)).collect();
        edges.extend((1..12).map(|v| (v as u32, v as u32 + 1)));
        let g = Graph::from_edges(13, &edges);
        let full = Assignment::full(&g);
        assert_eq!(full.objective(), 12);
        let mut oracle = CompareOracle::default();
        let cfg = McmcConfig {
            iterations: 200,
            seed: 7,
        };
        let out = mcmc_balance(&g, full, &cfg, &mut oracle);
        out.assignment.check_feasible(&g).unwrap();
        assert!(
            out.assignment.objective() <= 6,
            "hub should shed load, got {}",
            out.assignment.objective()
        );
        assert!(out.stats.accepted > 0);
    }

    #[test]
    fn weighted_chain_strips_the_expensive_device() {
        // Ring of 12 devices with perfectly balanced node counts (2 each):
        // the unweighted chain has nothing to do, but device 0's per-node
        // cost is 1,000× its peers', so the weighted chain must shed its
        // branches onto the cheap neighbors.
        let edges: Vec<(u32, u32)> = (0..12u32).map(|v| (v, (v + 1) % 12)).collect();
        let g = Graph::from_edges(12, &edges);
        let mut costs = vec![10u64; 12];
        costs[0] = 10_000;
        let full = Assignment::full(&g).with_costs(costs);
        assert_eq!(full.weighted_objective(), 20_000);
        let mut oracle = CompareOracle::default();
        let cfg = McmcConfig {
            iterations: 60,
            seed: 12,
        };
        let out = mcmc_balance(&g, full, &cfg, &mut oracle);
        out.assignment.check_feasible(&g).unwrap();
        assert_eq!(
            out.assignment.workload(0),
            0,
            "the expensive device must end up empty"
        );
        assert!(
            out.assignment.weighted_objective() <= 40,
            "weighted objective must collapse to the cheap devices, got {}",
            out.assignment.weighted_objective()
        );
        assert_eq!(out.weighted_trace.len(), 60);
        assert!(out.weighted_trace.last().unwrap() < &20_000);
    }

    #[test]
    fn unit_cost_traces_coincide() {
        let g = powerlaw_graph(150, 5);
        let run = |costs: Option<Vec<u64>>| {
            let mut oracle = CompareOracle::default();
            let init = match costs {
                Some(c) => greedy_init(&g, &mut oracle).with_costs(c),
                None => greedy_init(&g, &mut oracle),
            };
            let cfg = McmcConfig {
                iterations: 40,
                seed: 77,
            };
            (mcmc_balance(&g, init, &cfg, &mut oracle), oracle)
        };
        let (plain, plain_oracle) = run(None);
        let (ones, ones_oracle) = run(Some(vec![1; g.num_nodes()]));
        // Same chain: identical retained sets, traces, and — because the
        // all-ones weighted workload *is* the node count — the weighted
        // trace equals the node-count trace.
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(plain.assignment.kept(v), ones.assignment.kept(v));
        }
        assert_eq!(plain.trace, ones.trace);
        assert_eq!(
            ones.weighted_trace,
            ones.trace.iter().map(|&x| x as u64).collect::<Vec<_>>()
        );
        assert_eq!(plain_oracle.comparisons(), ones_oracle.comparisons());
        assert_eq!(plain.stats.accepted, ones.stats.accepted);
    }

    #[test]
    fn bitsliced_backend_reproduces_the_scalar_chain() {
        // The MH chain consumes only comparison *outcomes* and its own RNG
        // stream, so swapping the comparison engine must reproduce the
        // trajectory exactly — while the wire meters collapse.
        use crate::oracle::{CompareBackend, SecurityMode};
        let g = powerlaw_graph(200, 21);
        let cfg = McmcConfig {
            iterations: 40,
            seed: 33,
        };
        let mut scalar = CompareOracle::default();
        let scalar_out = mcmc_balance(&g, greedy_init(&g, &mut scalar), &cfg, &mut scalar);
        let mut sliced = CompareOracle::new(SecurityMode::CostModel, CompareBackend::Bitsliced, 0);
        let sliced_out = mcmc_balance(&g, greedy_init(&g, &mut sliced), &cfg, &mut sliced);
        assert_eq!(scalar_out.assignment, sliced_out.assignment);
        assert_eq!(scalar_out.trace, sliced_out.trace);
        assert_eq!(scalar_out.stats.accepted, sliced_out.stats.accepted);
        assert_eq!(
            scalar_out.stats.comparisons, sliced_out.stats.comparisons,
            "logical comparison counts must not depend on the engine"
        );
        assert!(
            sliced_out.stats.secure.messages * 8 < scalar_out.stats.secure.messages,
            "bit-slicing must collapse the secure traffic: {} vs {}",
            sliced_out.stats.secure.messages,
            scalar_out.stats.secure.messages
        );
    }

    #[test]
    fn trace_is_recorded_and_stats_counted() {
        let g = powerlaw_graph(120, 11);
        let mut oracle = CompareOracle::default();
        let init = greedy_init(&g, &mut oracle);
        let cfg = McmcConfig {
            iterations: 25,
            seed: 1,
        };
        let out = mcmc_balance(&g, init, &cfg, &mut oracle);
        assert_eq!(out.stats.iterations, 25);
        assert!(out.stats.comparisons > 0);
        assert!(out.stats.secure.messages > 0);
        assert!(out.stats.server.messages > 0);
        // Two Alg-3 sweeps per iteration, each comparing every edge.
        assert!(out.stats.comparisons >= 2 * 25 * g.num_edges() as u64);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = powerlaw_graph(60, 2);
        let mut oracle = CompareOracle::default();
        let init = greedy_init(&g, &mut oracle);
        let snapshot = init.clone();
        let cfg = McmcConfig {
            iterations: 0,
            seed: 0,
        };
        let out = mcmc_balance(&g, init, &cfg, &mut oracle);
        assert_eq!(out.assignment, snapshot);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = powerlaw_graph(200, 3);
        let run = || {
            let mut oracle = CompareOracle::default();
            let init = greedy_init(&g, &mut oracle);
            let cfg = McmcConfig {
                iterations: 50,
                seed: 99,
            };
            mcmc_balance(&g, init, &cfg, &mut oracle)
        };
        let a = run();
        let b = run();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.trace, b.trace);
    }
}
