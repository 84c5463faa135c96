//! The heterogeneity-aware tree constructor (§V): greedy initialization
//! followed by MCMC trimming, or the untrimmed full assignment for the
//! "w.o. TT" ablation.

use lumos_balance::{
    greedy_init_weighted, make_oracle_backend, mcmc_balance, Assignment, CompareBackend,
    McmcConfig, SecurityMode,
};
use lumos_graph::Graph;
use lumos_topo::Topology;

use crate::report::ConstructorReport;

/// Runs the tree constructor over the (training) graph.
///
/// With `trimming` enabled this is Algorithm 1 + Algorithm 2 (both under
/// secure comparisons); otherwise every device keeps its full ego network.
///
/// `node_costs` switches the balancers to the capability-weighted
/// `VirtualSecs` objective: one fixed-point µs price per device-tree-node
/// (see `DeviceProfile::micros_per_tree_node`). `None` is the paper's
/// node-count objective, bit-identical to the historical behavior.
///
/// `backend` picks the secure-comparison engine behind the oracles:
/// [`CompareBackend::Scalar`] is the per-comparison circuit (and the
/// bit-identical default); [`CompareBackend::Bitsliced`] packs the
/// whole-sweep batches Algorithms 1 and 3 submit into 64-lane words,
/// cutting the constructor's OT traffic ~64× with identical outcomes.
pub fn construct_assignment(
    g: &Graph,
    trimming: bool,
    mcmc_iterations: usize,
    security: SecurityMode,
    backend: CompareBackend,
    seed: u64,
    node_costs: Option<&[u64]>,
) -> (Assignment, ConstructorReport) {
    let untrimmed_max = g.max_degree();
    if !trimming {
        let assignment = Assignment::full(g);
        let report = ConstructorReport {
            trimmed: false,
            weighted: false,
            workloads: assignment.workloads(),
            max_workload: assignment.objective(),
            max_weighted_workload: assignment.weighted_objective(),
            untrimmed_max,
            ..Default::default()
        };
        return (assignment, report);
    }

    let mut oracle = make_oracle_backend(security, backend, seed);
    let init = greedy_init_weighted(g, node_costs, oracle.as_mut());
    let mcmc_cfg = McmcConfig {
        iterations: mcmc_iterations,
        seed: seed ^ 0x5EED,
    };
    let outcome = mcmc_balance(g, init, &mcmc_cfg, oracle.as_mut());

    debug_assert!(outcome.assignment.check_feasible(g).is_ok());
    let report = ConstructorReport {
        trimmed: true,
        weighted: node_costs.is_some(),
        workloads: outcome.assignment.workloads(),
        max_workload: outcome.assignment.objective(),
        max_weighted_workload: outcome.assignment.weighted_objective(),
        untrimmed_max,
        secure_comm: oracle.meter(),
        comparisons: oracle.comparisons(),
        server_messages: outcome.stats.server.messages,
        mcmc_trace: outcome.trace,
    };
    (outcome.assignment, report)
}

/// Per-shard seed for the sharded constructor's secure lanes: distinct
/// and deterministic per `(run seed, shard)`.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the tree constructor partitioned by an aggregation topology:
/// each shard solves its own balance problem — greedy init + MCMC over
/// the shard's induced subgraph, with its own secure-comparison lanes
/// seeded per shard — and the per-shard assignments are merged.
///
/// Devices are only ever compared within their shard, which is the
/// hierarchical deployment's constraint (an aggregator can run Algorithm
/// 3 among its own members without a fleet-wide sweep) and what makes
/// construction at 10⁵+ devices tractable: K independent problems of
/// size n/K instead of one of size n.
///
/// Cross-shard edges are invisible to every shard's balancer, so
/// coverage is restored at merge time: each such edge is kept by the
/// endpoint with the currently smaller tree (ties to the smaller id) —
/// deterministic, and biased toward balance.
///
/// The report aggregates the shards: comparison counts, secure traffic,
/// and server messages are summed; the MCMC trace is the element-wise
/// maximum across shards (the global objective is the max over shard
/// objectives).
#[allow(clippy::too_many_arguments)]
pub fn construct_assignment_sharded(
    g: &Graph,
    trimming: bool,
    mcmc_iterations: usize,
    security: SecurityMode,
    backend: CompareBackend,
    seed: u64,
    node_costs: Option<&[u64]>,
    topo: &Topology,
) -> (Assignment, ConstructorReport) {
    assert_eq!(
        topo.num_devices(),
        g.num_nodes(),
        "topology and graph disagree on device count"
    );
    if !trimming || topo.num_aggregators() == 1 {
        // Untrimmed keeps full ego networks (nothing to shard), and one
        // shard is the flat problem.
        return construct_assignment(
            g,
            trimming,
            mcmc_iterations,
            security,
            backend,
            seed,
            node_costs,
        );
    }

    let untrimmed_max = g.max_degree();

    // Route every edge once: intra-shard edges go to their shard's
    // induced subgraph (re-indexed from the shard base), cross-shard
    // edges wait for the merge.
    let k = topo.num_aggregators();
    let mut local_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
    let mut cross: Vec<(u32, u32)> = Vec::new();
    for (u, v) in g.edges() {
        let (su, sv) = (topo.shard_of(u), topo.shard_of(v));
        if su == sv {
            let base = topo.members(su as usize).start;
            local_edges[su as usize].push((u - base, v - base));
        } else {
            cross.push((u, v));
        }
    }

    let mut keep: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes()];
    let mut report = ConstructorReport {
        trimmed: true,
        weighted: node_costs.is_some(),
        untrimmed_max,
        ..Default::default()
    };
    for (shard, range) in topo.ranges() {
        let base = range.start as usize;
        let size = range.len();
        let sub = Graph::from_edges(size, &local_edges[shard]);
        let local_costs: Option<Vec<u64>> = node_costs.map(|c| c[base..base + size].to_vec());
        let mut oracle = make_oracle_backend(security, backend, shard_seed(seed, shard));
        let init = greedy_init_weighted(&sub, local_costs.as_deref(), oracle.as_mut());
        let mcmc_cfg = McmcConfig {
            iterations: mcmc_iterations,
            seed: shard_seed(seed, shard) ^ 0x5EED,
        };
        let outcome = mcmc_balance(&sub, init, &mcmc_cfg, oracle.as_mut());
        debug_assert!(outcome.assignment.check_feasible(&sub).is_ok());
        for local in 0..size {
            keep[base + local] = outcome
                .assignment
                .kept(local as u32)
                .iter()
                .map(|&w| w + base as u32)
                .collect();
        }
        report.secure_comm.merge(&oracle.meter());
        report.comparisons += oracle.comparisons();
        report.server_messages += outcome.stats.server.messages;
        if report.mcmc_trace.len() < outcome.trace.len() {
            report.mcmc_trace.resize(outcome.trace.len(), 0);
        }
        for (global, &local) in report.mcmc_trace.iter_mut().zip(&outcome.trace) {
            *global = (*global).max(local);
        }
    }

    // Restore coverage of the edges no shard saw.
    for (u, v) in cross {
        let (u, v) = if (keep[u as usize].len(), u) <= (keep[v as usize].len(), v) {
            (u, v)
        } else {
            (v, u)
        };
        keep[u as usize].push(v);
    }

    let mut assignment = Assignment::from_sets(keep);
    if let Some(costs) = node_costs {
        assignment = assignment.with_costs(costs.to_vec());
    }
    debug_assert!(assignment.check_feasible(g).is_ok());
    report.workloads = assignment.workloads();
    report.max_workload = assignment.objective();
    report.max_weighted_workload = assignment.weighted_objective();
    (assignment, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_common::rng::Xoshiro256pp;
    use lumos_graph::generate::{homophilous_powerlaw, PowerLawConfig};

    fn graph() -> Graph {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let labels: Vec<u32> = (0..500).map(|_| rng.next_below(4) as u32).collect();
        homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng)
    }

    #[test]
    fn trimming_cuts_the_maximum_workload() {
        let g = graph();
        let (trimmed, rep) = construct_assignment(
            &g,
            true,
            150,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            None,
        );
        let (full, rep_full) = construct_assignment(
            &g,
            false,
            150,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            None,
        );
        trimmed.check_feasible(&g).unwrap();
        full.check_feasible(&g).unwrap();
        assert_eq!(rep_full.max_workload, g.max_degree());
        assert!(
            rep.max_workload * 2 <= rep_full.max_workload,
            "trimmed {} vs full {}",
            rep.max_workload,
            rep_full.max_workload
        );
        assert!(rep.trimmed);
        assert!(!rep_full.trimmed);
        assert!(rep.comparisons > 0);
        assert!(rep.secure_comm.messages > 0);
        assert_eq!(rep_full.comparisons, 0, "no crypto without trimming");
        assert_eq!(rep.mcmc_trace.len(), 150);
    }

    #[test]
    fn trimming_reduces_total_workload_towards_edge_count() {
        let g = graph();
        let (trimmed, _) = construct_assignment(
            &g,
            true,
            50,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            7,
            None,
        );
        let total = trimmed.total_workload();
        assert!(total >= g.num_edges(), "coverage requires ≥ |E|");
        assert!(
            total < 2 * g.num_edges(),
            "trimming must drop duplicated branches: {total} vs {}",
            2 * g.num_edges()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = graph();
        let (a1, _) = construct_assignment(
            &g,
            true,
            40,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            11,
            None,
        );
        let (a2, _) = construct_assignment(
            &g,
            true,
            40,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            11,
            None,
        );
        assert_eq!(a1, a2);
    }

    #[test]
    fn bitsliced_backend_builds_the_identical_assignment_cheaper() {
        let g = graph();
        let (scalar, rep_scalar) = construct_assignment(
            &g,
            true,
            60,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            5,
            None,
        );
        let (sliced, rep_sliced) = construct_assignment(
            &g,
            true,
            60,
            SecurityMode::CostModel,
            CompareBackend::Bitsliced,
            5,
            None,
        );
        assert_eq!(scalar, sliced, "outcome-identical engines, same trees");
        assert_eq!(rep_scalar.mcmc_trace, rep_sliced.mcmc_trace);
        assert_eq!(
            rep_scalar.comparisons, rep_sliced.comparisons,
            "logical comparison counts must match"
        );
        assert!(
            rep_sliced.secure_comm.messages * 8 < rep_scalar.secure_comm.messages,
            "bit-slicing must collapse constructor traffic: {} vs {}",
            rep_sliced.secure_comm.messages,
            rep_scalar.secure_comm.messages
        );
    }

    #[test]
    fn sharded_construction_is_feasible_and_deterministic() {
        let g = graph();
        let topo = Topology::seeded(g.num_nodes(), 4, 9);
        let build = || {
            construct_assignment_sharded(
                &g,
                true,
                60,
                SecurityMode::CostModel,
                CompareBackend::Scalar,
                11,
                None,
                &topo,
            )
        };
        let (a1, rep) = build();
        let (a2, _) = build();
        assert_eq!(a1, a2, "sharded construction must be deterministic");
        a1.check_feasible(&g)
            .expect("merged assignment must cover every edge");
        // Every device owns exactly one keep set (exact cover over
        // devices), and the report aggregates all four shards.
        assert_eq!(a1.num_devices(), g.num_nodes());
        assert_eq!(rep.workloads.len(), g.num_nodes());
        assert!(rep.trimmed);
        assert!(rep.comparisons > 0);
        assert_eq!(rep.mcmc_trace.len(), 60);
        // Sharding still trims: far below the untrimmed max degree.
        assert!(rep.max_workload * 2 <= rep.untrimmed_max);
    }

    #[test]
    fn sharded_secure_traffic_is_the_sum_over_the_shards() {
        // Regression: the merge summed messages and bytes and forgot the
        // rounds, so every hierarchical run reported zero secure-comparison
        // rounds. Each shard is the flat problem on its induced subgraph
        // under its own seed; the report is their sum, rounds included.
        let g = graph();
        let topo = Topology::contiguous(g.num_nodes(), 4);
        let (security, backend) = (SecurityMode::CostModel, CompareBackend::Scalar);
        let (_, sharded) =
            construct_assignment_sharded(&g, true, 30, security, backend, 11, None, &topo);
        let mut sum = lumos_crypto::CommMeter::default();
        for (shard, members) in topo.ranges() {
            let inside = |v: u32| members.contains(&v);
            let local: Vec<(u32, u32)> = g
                .edges()
                .filter(|&(u, v)| inside(u) && inside(v))
                .map(|(u, v)| (u - members.start, v - members.start))
                .collect();
            let sub = Graph::from_edges(members.len(), &local);
            let seed = shard_seed(11, shard);
            let (_, flat) = construct_assignment(&sub, true, 30, security, backend, seed, None);
            assert!(
                flat.secure_comm.rounds > 0,
                "shard {shard} compared nothing"
            );
            sum.merge(&flat.secure_comm);
        }
        assert!(sharded.secure_comm.rounds > 0);
        assert_eq!(sharded.secure_comm, sum);
    }

    #[test]
    fn sharded_construction_collapses_to_flat_at_one_shard() {
        let g = graph();
        let topo = Topology::contiguous(g.num_nodes(), 1);
        let (flat, flat_rep) = construct_assignment(
            &g,
            true,
            40,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            5,
            None,
        );
        let (sharded, sharded_rep) = construct_assignment_sharded(
            &g,
            true,
            40,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            5,
            None,
            &topo,
        );
        assert_eq!(flat, sharded, "one shard is the flat problem");
        assert_eq!(flat_rep.mcmc_trace, sharded_rep.mcmc_trace);
        assert_eq!(flat_rep.comparisons, sharded_rep.comparisons);
    }

    #[test]
    fn sharded_construction_compares_fewer_devices() {
        // K independent problems of size n/K need far fewer secure
        // comparisons than one problem of size n — that's the point.
        let g = graph();
        let topo = Topology::contiguous(g.num_nodes(), 8);
        let (_, flat) = construct_assignment(
            &g,
            true,
            60,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            None,
        );
        let (_, sharded) = construct_assignment_sharded(
            &g,
            true,
            60,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            None,
            &topo,
        );
        assert!(
            sharded.comparisons < flat.comparisons,
            "sharded {} vs flat {}",
            sharded.comparisons,
            flat.comparisons
        );
    }

    #[test]
    fn weighted_construction_shifts_load_off_expensive_devices() {
        let g = graph();
        // Price the top-degree device 500× its peers: the weighted
        // constructor must give it a materially smaller tree than the
        // node-count constructor does.
        let hub = (0..g.num_nodes() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let mut costs = vec![10u64; g.num_nodes()];
        costs[hub as usize] = 5_000;
        let (plain, rep_plain) = construct_assignment(
            &g,
            true,
            150,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            None,
        );
        let (weighted, rep) = construct_assignment(
            &g,
            true,
            150,
            SecurityMode::CostModel,
            CompareBackend::Scalar,
            3,
            Some(&costs),
        );
        weighted.check_feasible(&g).unwrap();
        // The report says which objective actually ran — the signal that a
        // VirtualSecs request degenerated (no costs ⇒ weighted = false).
        assert!(rep.weighted);
        assert!(!rep_plain.weighted);
        assert!(
            weighted.workload(hub) < plain.workload(hub),
            "weighted: hub kept {} nodes, node-count: {}",
            weighted.workload(hub),
            plain.workload(hub)
        );
        // The report's weighted objective is in µs, not node counts.
        assert_eq!(rep.max_weighted_workload, weighted.weighted_objective());
        assert!(rep.max_weighted_workload >= rep.max_workload as u64 * 10);
    }
}
