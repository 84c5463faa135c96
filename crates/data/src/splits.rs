//! Train/validation/test splits, at the paper's ratios (§VIII-B), which
//! are fixed: supervised learning samples vertices 50%/25%/25% uniformly;
//! unsupervised link prediction samples edges 80%/5%/15% and pairs each held
//! -out edge with a sampled non-edge (negative) for ROC-AUC evaluation.

use lumos_common::rng::Xoshiro256pp;
use lumos_graph::Graph;

/// Node-level split for supervised classification.
#[derive(Debug, Clone)]
pub struct NodeSplit {
    /// `mask[v]` tells which partition vertex `v` belongs to.
    pub train_mask: Vec<bool>,
    /// Validation membership.
    pub val_mask: Vec<bool>,
    /// Test membership.
    pub test_mask: Vec<bool>,
}

impl NodeSplit {
    /// Uniform 50/25/25 split over `n` vertices, as in the paper.
    pub fn uniform(n: usize, rng: &mut Xoshiro256pp) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let n_train = (n as f64 * 0.5).round() as usize;
        let n_val = (n as f64 * 0.25).round() as usize;
        let mut train_mask = vec![false; n];
        let mut val_mask = vec![false; n];
        let mut test_mask = vec![false; n];
        for (i, &v) in order.iter().enumerate() {
            if i < n_train {
                train_mask[v] = true;
            } else if i < n_train + n_val {
                val_mask[v] = true;
            } else {
                test_mask[v] = true;
            }
        }
        Self {
            train_mask,
            val_mask,
            test_mask,
        }
    }
}

/// Edge-level split for link prediction, with sampled negatives.
#[derive(Debug, Clone)]
pub struct EdgeSplit {
    /// Edges visible during training (message passing uses only these).
    pub train_edges: Vec<(u32, u32)>,
    /// Held-out validation edges (positives).
    pub val_edges: Vec<(u32, u32)>,
    /// Held-out test edges (positives).
    pub test_edges: Vec<(u32, u32)>,
    /// Non-edges paired with validation positives.
    pub val_negatives: Vec<(u32, u32)>,
    /// Non-edges paired with test positives.
    pub test_negatives: Vec<(u32, u32)>,
}

impl EdgeSplit {
    /// Uniform 80/5/15 split of the graph's edges plus one negative per
    /// held-out positive, as in the paper.
    pub fn uniform(g: &Graph, rng: &mut Xoshiro256pp) -> Self {
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        rng.shuffle(&mut edges);
        let m = edges.len();
        let n_train = (m as f64 * 0.8).round() as usize;
        let n_val = (m as f64 * 0.05).round() as usize;
        let train_edges = edges[..n_train].to_vec();
        let val_edges = edges[n_train..n_train + n_val].to_vec();
        let test_edges = edges[n_train + n_val..].to_vec();
        let val_negatives = sample_non_edges(g, val_edges.len(), rng);
        let test_negatives = sample_non_edges(g, test_edges.len(), rng);
        Self {
            train_edges,
            val_edges,
            test_edges,
            val_negatives,
            test_negatives,
        }
    }
}

/// Samples `k` distinct vertex pairs that are not edges of `g` (and not
/// self-pairs). Used for link-prediction negatives and for the unsupervised
/// loss's negative sampling (Eq. 33).
pub fn sample_non_edges(g: &Graph, k: usize, rng: &mut Xoshiro256pp) -> Vec<(u32, u32)> {
    let n = g.num_nodes() as u32;
    assert!(n >= 2, "need at least two vertices to sample non-edges");
    let mut out = Vec::with_capacity(k);
    // Membership-only; BTreeSet per the determinism contract (no HashSet in
    // non-test code — iteration order must never be able to matter).
    let mut seen = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    let max_guard = 100 * k.max(1) + 1000;
    while out.len() < k && guard < max_guard {
        guard += 1;
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_graph::generate::{erdos_renyi, PowerLawConfig};
    use lumos_graph::homophilous_powerlaw;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(77)
    }

    #[test]
    fn node_split_is_a_partition_with_paper_ratios() {
        let mut r = rng();
        let s = NodeSplit::uniform(1000, &mut r);
        for v in 0..1000 {
            let memberships = s.train_mask[v] as u8 + s.val_mask[v] as u8 + s.test_mask[v] as u8;
            assert_eq!(memberships, 1, "vertex {v} must be in exactly one split");
        }
        let count = |mask: &[bool]| mask.iter().filter(|&&b| b).count();
        assert_eq!(count(&s.train_mask), 500);
        assert_eq!(count(&s.val_mask), 250);
        assert_eq!(count(&s.test_mask), 250);
    }

    #[test]
    fn edge_split_partitions_edges() {
        let mut r = rng();
        let labels: Vec<u32> = (0..400).map(|v| v % 4).collect();
        let g = homophilous_powerlaw(&labels, &PowerLawConfig::default(), &mut r);
        let s = EdgeSplit::uniform(&g, &mut r);
        let total = s.train_edges.len() + s.val_edges.len() + s.test_edges.len();
        assert_eq!(total, g.num_edges());
        // Ratios approximately 80/5/15.
        let m = g.num_edges() as f64;
        assert!((s.train_edges.len() as f64 / m - 0.8).abs() < 0.01);
        assert!((s.test_edges.len() as f64 / m - 0.15).abs() < 0.01);
        // Negatives match positives in count and are true non-edges.
        assert_eq!(s.val_negatives.len(), s.val_edges.len());
        assert_eq!(s.test_negatives.len(), s.test_edges.len());
        for &(u, v) in s.test_negatives.iter().chain(&s.val_negatives) {
            assert!(!g.has_edge(u, v));
            assert_ne!(u, v);
        }
    }

    #[test]
    fn train_graph_contains_only_train_edges() {
        let mut r = rng();
        let g = erdos_renyi(100, 0.1, &mut r);
        let s = EdgeSplit::uniform(&g, &mut r);
        let tg = Graph::from_edges(100, &s.train_edges);
        assert_eq!(tg.num_edges(), s.train_edges.len());
        for &(u, v) in &s.test_edges {
            assert!(!tg.has_edge(u, v), "test edge must not leak into training");
        }
    }

    #[test]
    fn non_edges_are_distinct() {
        let mut r = rng();
        let g = erdos_renyi(60, 0.05, &mut r);
        let negs = sample_non_edges(&g, 200, &mut r);
        let set: std::collections::BTreeSet<_> = negs.iter().collect();
        assert_eq!(set.len(), negs.len());
    }
}
