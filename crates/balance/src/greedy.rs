//! Greedy initialization (Algorithm 1, Eq. 15).
//!
//! For every edge `{u, v}`, each endpoint keeps the neighbor whose rounded
//! log-degree is at least its own: `N_u ∋ v ⇔ round(ln deg v) ≥
//! round(ln deg u)`. The effect is that the higher-degree endpoint of a
//! lopsided edge drops it, filling the workload gap between devices with a
//! significant degree difference. Taking logarithms both shrinks the
//! bit-width of the secure comparison (§V-C: `O(max_v deg(v) · L log L)`
//! per device) and avoids churn between near-equal degrees.

use lumos_graph::Graph;

use crate::oracle::CompareOracle;
use crate::problem::Assignment;

/// Bit width used for secure comparisons of rounded log-degrees. Degrees
/// below 2^32 have `round(ln d) ≤ 23`, so 6 bits suffice; we use 8 to match
/// a byte on the wire.
pub const LOG_DEGREE_BITS: u32 = 8;

/// `round(ln (deg · cost))`: the log of the device's *weighted* full-ego
/// workload in fixed-point µs, with isolated vertices mapped to 0. With
/// `cost = 1` this is `round(ln deg)` — the paper's unweighted comparison
/// key. The log of any `u64` product fits comfortably in
/// [`LOG_DEGREE_BITS`].
pub fn rounded_log_weighted(deg: usize, cost: u64) -> u64 {
    if deg == 0 {
        0
    } else {
        ((deg as u64 * cost) as f64).ln().round() as u64
    }
}

/// Runs Algorithm 1: one secure comparison per edge (the outcome is shared
/// by both endpoints), producing the initial retained-neighbor sets under
/// the unweighted (node-count) objective.
pub fn greedy_init(g: &Graph, oracle: &mut dyn CompareOracle) -> Assignment {
    greedy_init_weighted(g, None, oracle)
}

/// Cost-weighted Algorithm 1: each endpoint keeps the neighbor whose
/// rounded log *weighted* degree is at least its own, so an edge between a
/// throttled device and a fast one lands on the fast side even when their
/// degrees match. `costs = None` (or all ones) reproduces the paper's
/// comparison keys — and hence the assignment — bit for bit; the result
/// carries the cost vector so downstream balancers stay weighted.
pub fn greedy_init_weighted(
    g: &Graph,
    costs: Option<&[u64]>,
    oracle: &mut dyn CompareOracle,
) -> Assignment {
    if let Some(c) = costs {
        assert_eq!(c.len(), g.num_nodes(), "one cost per device");
    }
    let cost = |v: u32| costs.map_or(1, |c| c[v as usize]);
    let logs: Vec<u64> = (0..g.num_nodes() as u32)
        .map(|v| rounded_log_weighted(g.degree(v), cost(v)))
        .collect();
    let mut keep: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes()];
    // One protocol run per edge; both endpoints learn the ordering. Every
    // edge's `round(ln deg)` comparison is independent, so the sweep is
    // submitted as one batch: the bit-sliced backend evaluates 64 edges per
    // circuit, the scalar default reproduces the per-edge loop exactly.
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let pairs: Vec<(u64, u64)> = edges
        .iter()
        .map(|&(u, v)| (logs[u as usize], logs[v as usize]))
        .collect();
    for (&(u, v), ord) in edges
        .iter()
        .zip(oracle.compare_batch(&pairs, LOG_DEGREE_BITS))
    {
        // Line 4 of Alg. 1 for endpoint u: keep v iff log(v) >= log(u),
        // i.e. iff NOT (log(u) > log(v)).
        if ord != std::cmp::Ordering::Greater {
            keep[u as usize].push(v);
        }
        // Symmetric decision for endpoint v.
        if ord != std::cmp::Ordering::Less {
            keep[v as usize].push(u);
        }
    }
    let assignment = Assignment::from_sets(keep);
    match costs {
        Some(c) => assignment.with_costs(c.to_vec()),
        None => assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MeteredPlainOracle, SecureOracle};
    use lumos_common::rng::Xoshiro256pp;
    use lumos_graph::generate::{homophilous_powerlaw, PowerLawConfig};

    #[test]
    fn rounded_log_degree_values() {
        assert_eq!(rounded_log_weighted(0, 1), 0);
        assert_eq!(rounded_log_weighted(1, 1), 0);
        assert_eq!(rounded_log_weighted(3, 1), 1);
        assert_eq!(rounded_log_weighted(20, 1), 3);
        assert_eq!(rounded_log_weighted(150, 1), 5);
    }

    #[test]
    fn star_graph_center_sheds_leaves() {
        // Star: center 0 with 8 leaves. round(ln 8)=2 > round(ln 1)=0, so
        // the center keeps nothing and each leaf keeps the center.
        let edges: Vec<(u32, u32)> = (1..=8).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(9, &edges);
        let mut oracle = MeteredPlainOracle::new();
        let a = greedy_init(&g, &mut oracle);
        assert_eq!(a.workload(0), 0, "hub drops all branches");
        for v in 1..=8u32 {
            assert_eq!(a.kept(v), &[0]);
        }
        a.check_feasible(&g).unwrap();
        assert_eq!(oracle.comparisons(), 8, "one comparison per edge");
    }

    #[test]
    fn equal_degrees_keep_both_directions() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut oracle = MeteredPlainOracle::new();
        let a = greedy_init(&g, &mut oracle);
        assert!(a.keeps(0, 1) && a.keeps(1, 0));
    }

    #[test]
    fn greedy_is_feasible_and_reduces_max_on_powerlaw_graphs() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let labels: Vec<u32> = (0..800).map(|_| rng.next_below(4) as u32).collect();
        let g = homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng);
        let mut oracle = MeteredPlainOracle::new();
        let a = greedy_init(&g, &mut oracle);
        a.check_feasible(&g).unwrap();
        assert!(
            a.objective() < g.max_degree(),
            "greedy must cut the maximum: {} vs {}",
            a.objective(),
            g.max_degree()
        );
    }

    #[test]
    fn weighted_greedy_with_unit_costs_matches_unweighted() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let labels: Vec<u32> = (0..300).map(|_| rng.next_below(4) as u32).collect();
        let g = homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng);
        let ones = vec![1u64; g.num_nodes()];
        let mut oa = MeteredPlainOracle::new();
        let mut ob = MeteredPlainOracle::new();
        let plain = greedy_init(&g, &mut oa);
        let weighted = greedy_init_weighted(&g, Some(&ones), &mut ob);
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(plain.kept(v), weighted.kept(v));
        }
        assert_eq!(oa.comparisons(), ob.comparisons());
        assert_eq!(weighted.costs(), Some(&ones[..]));
    }

    #[test]
    fn expensive_endpoint_sheds_equal_degree_edges() {
        // Two degree-1 devices: unweighted greedy keeps both directions,
        // but a 100× cost gap moves the edge onto the cheap device alone.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut oracle = MeteredPlainOracle::new();
        let a = greedy_init_weighted(&g, Some(&[100, 1]), &mut oracle);
        assert!(!a.keeps(0, 1), "expensive device must shed the edge");
        assert!(a.keeps(1, 0), "cheap device must cover it");
        a.check_feasible(&g).unwrap();
    }

    #[test]
    fn bitsliced_backend_builds_the_identical_assignment() {
        use crate::oracle::{BitslicedSecureOracle, CompareOracle};
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let labels: Vec<u32> = (0..200).map(|_| rng.next_below(4) as u32).collect();
        let g = homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut rng);
        let mut scalar = MeteredPlainOracle::new();
        let mut sliced = BitslicedSecureOracle::new(3);
        let a = greedy_init(&g, &mut scalar);
        let b = greedy_init(&g, &mut sliced);
        assert_eq!(a, b, "lane packing must not change any keep decision");
        assert_eq!(scalar.comparisons(), sliced.comparisons());
        assert!(sliced.meter().messages < scalar.meter().messages / 8);
    }

    #[test]
    fn secure_and_plain_oracles_build_identical_assignments() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let labels: Vec<u32> = (0..120).map(|_| rng.next_below(3) as u32).collect();
        let cfg = PowerLawConfig {
            max_degree: 40,
            ..Default::default()
        };
        let g = homophilous_powerlaw(&labels, &cfg, &mut rng);
        let mut secure = SecureOracle::new(9);
        let mut plain = MeteredPlainOracle::new();
        let a = greedy_init(&g, &mut secure);
        let b = greedy_init(&g, &mut plain);
        assert_eq!(a, b);
        assert_eq!(secure.meter(), plain.meter(), "cost models must agree");
    }
}
