//! Exact solver for the workload-balancing problem, used as the reference
//! point when measuring how close greedy + MCMC land (Theorem 2's bound is
//! probabilistic; this gives the ground truth on real instances).
//!
//! Observation: an optimal solution never needs `x_(u,v) = x_(v,u) = 1` —
//! dropping one side keeps Eq. 10 feasible and cannot increase the max.
//! So the problem is: *orient* every edge so the maximum out-degree is
//! minimized. Feasibility of "max workload ≤ k" is a bipartite assignment
//! (edges → endpoints with vertex capacity k), decided by max-flow; binary
//! search on `k` yields the optimum in `O(E·√V · log Δ)`.
//!
//! (This also means the *centralized* problem is polynomial; the paper's
//! hardness argument applies to its decentralized, privacy-constrained
//! variant. The exact solver requires global knowledge and is therefore
//! only a simulator-side yardstick.)

use lumos_graph::Graph;

use crate::flow::FlowNetwork;
use crate::problem::Assignment;

/// Result of the exact solver.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// An optimal assignment (each edge kept by exactly one endpoint).
    pub assignment: Assignment,
    /// The optimal objective `f(X*)`.
    pub objective: usize,
}

/// Decides whether an orientation with maximum workload ≤ `k` exists and,
/// if so, returns the retained-neighbor sets realizing it.
fn orient_with_cap(g: &Graph, k: usize) -> Option<Vec<Vec<u32>>> {
    let n = g.num_nodes();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let m = edges.len();
    if m == 0 {
        return Some(vec![Vec::new(); n]);
    }
    // Nodes: 0 = source, 1..=m edge nodes, m+1..=m+n vertex nodes, m+n+1 = sink.
    let source = 0usize;
    let sink = m + n + 1;
    let mut net = FlowNetwork::new(m + n + 2);
    let mut choice_arcs = Vec::with_capacity(m);
    for (i, &(u, v)) in edges.iter().enumerate() {
        net.add_arc(source, 1 + i, 1);
        let a_u = net.add_arc(1 + i, 1 + m + u as usize, 1);
        let a_v = net.add_arc(1 + i, 1 + m + v as usize, 1);
        choice_arcs.push((a_u, a_v));
    }
    for v in 0..n {
        net.add_arc(1 + m + v, sink, k as i64);
    }
    if net.max_flow(source, sink) < m as i64 {
        return None;
    }
    let mut keep: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, &(u, v)) in edges.iter().enumerate() {
        let (a_u, a_v) = choice_arcs[i];
        if net.flow(a_u) > 0 {
            // Edge assigned to u: u keeps neighbor v.
            keep[u as usize].push(v);
        } else {
            debug_assert!(net.flow(a_v) > 0, "saturated edge must pick a side");
            keep[v as usize].push(u);
        }
    }
    Some(keep)
}

/// Solves the workload-balancing problem exactly.
pub fn solve_exact(g: &Graph) -> ExactSolution {
    if g.num_edges() == 0 {
        return ExactSolution {
            assignment: Assignment::from_sets(vec![Vec::new(); g.num_nodes()]),
            objective: 0,
        };
    }
    let mut lo = crate::problem::objective_lower_bound(g);
    let mut hi = g.max_degree();
    let mut best = orient_with_cap(g, hi).expect("max degree is always feasible");
    let mut best_k = hi;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match orient_with_cap(g, mid) {
            Some(keep) => {
                best = keep;
                best_k = mid;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    let assignment = Assignment::from_sets(best);
    debug_assert!(assignment.check_feasible(g).is_ok());
    // The realized objective can undershoot the capacity bound.
    let objective = assignment.objective().min(best_k);
    ExactSolution {
        assignment,
        objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_init;
    use crate::mcmc::{mcmc_balance, McmcConfig};
    use crate::oracle::CompareOracle;
    use lumos_common::rng::Xoshiro256pp;
    use lumos_graph::generate::{erdos_renyi, homophilous_powerlaw, PowerLawConfig};

    #[test]
    fn star_optimum_is_one() {
        // A star's edges can all be oriented leaf → hub: every leaf keeps
        // the hub, workload 1 everywhere.
        let edges: Vec<(u32, u32)> = (1..=8).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(9, &edges);
        let sol = solve_exact(&g);
        assert_eq!(sol.objective, 1);
        sol.assignment.check_feasible(&g).unwrap();
    }

    #[test]
    fn cycle_optimum_is_one() {
        // A cycle orients around: out-degree 1 for everyone.
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (i as u32, ((i + 1) % 6) as u32)).collect();
        let g = Graph::from_edges(6, &edges);
        assert_eq!(solve_exact(&g).objective, 1);
    }

    #[test]
    fn clique_optimum_matches_density_bound() {
        // K5: 10 edges over 5 vertices ⇒ some vertex keeps ≥ 2; and 2 is
        // achievable.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges);
        assert_eq!(solve_exact(&g).objective, 2);
    }

    #[test]
    fn exact_is_a_true_lower_bound_for_the_heuristics() {
        for seed in 0..5u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let g = erdos_renyi(60, 0.12, &mut rng);
            let exact = solve_exact(&g);
            let mut oracle = CompareOracle::default();
            let init = greedy_init(&g, &mut oracle);
            let out = mcmc_balance(
                &g,
                init,
                &McmcConfig {
                    iterations: 120,
                    seed,
                },
                &mut oracle,
            );
            assert!(
                out.assignment.objective() >= exact.objective,
                "heuristic {} below optimum {}?!",
                out.assignment.objective(),
                exact.objective
            );
        }
    }

    /// Empirical Theorem-2 check: on power-law graphs (the regime the paper
    /// targets) greedy + MCMC lands within a small factor of the optimum.
    #[test]
    fn heuristic_is_near_optimal_on_powerlaw_graphs() {
        let mut rng = Xoshiro256pp::seed_from_u64(2023);
        let labels: Vec<u32> = (0..300).map(|_| rng.next_below(4) as u32).collect();
        let g = homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng);
        let exact = solve_exact(&g);
        let mut oracle = CompareOracle::default();
        let init = greedy_init(&g, &mut oracle);
        let out = mcmc_balance(
            &g,
            init,
            &McmcConfig {
                iterations: 300,
                seed: 5,
            },
            &mut oracle,
        );
        let ratio = out.assignment.objective() as f64 / exact.objective.max(1) as f64;
        assert!(
            ratio <= 3.0,
            "approximation ratio {ratio} (heuristic {} vs optimal {})",
            out.assignment.objective(),
            exact.objective
        );
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = Graph::new(4);
        let sol = solve_exact(&g);
        assert_eq!(sol.objective, 0);
    }
}
