//! Random graph generators.
//!
//! The synthetic datasets substitute the paper's Facebook/LastFM crawls
//! (§VIII-A; `crates/data/src/dataset.rs` documents the stand-ins). The key structural property the paper relies on is a
//! heavy-tailed degree distribution (Definition 3: degree heterogeneity) and
//! label homophily (the source of GNN signal), both provided by
//! [`homophilous_powerlaw`].

use lumos_common::dist::{Categorical, PowerLaw};
use lumos_common::rng::Xoshiro256pp;

use crate::graph::Graph;

/// Erdős–Rényi `G(n, p)` graph.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.bernoulli(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment with `m` edges per new vertex.
///
/// # Panics
/// Panics if `n <= m` or `m == 0`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Xoshiro256pp) -> Graph {
    assert!(m >= 1, "BA requires m >= 1");
    assert!(n > m, "BA requires n > m");
    let mut g = Graph::new(n);
    // Seed: a small clique over the first m+1 vertices.
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            g.add_edge(u, v);
        }
    }
    // Repeated endpoints implement degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    for (u, v) in g.edges().collect::<Vec<_>>() {
        endpoints.push(u);
        endpoints.push(v);
    }
    for v in (m as u32 + 1)..n as u32 {
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m && guard < 50 * m {
            guard += 1;
            let u = *rng.choose(&endpoints);
            if g.add_edge(u, v) {
                endpoints.push(u);
                endpoints.push(v);
                added += 1;
            }
        }
    }
    g
}

/// Parameters for [`homophilous_powerlaw`].
#[derive(Debug, Clone)]
pub struct PowerLawConfig {
    /// Power-law exponent of the expected-degree distribution (≈2–3 for
    /// social networks).
    pub alpha: f64,
    /// Minimum expected degree.
    pub min_degree: u64,
    /// Maximum expected degree (the heavy-tail cutoff; drives Figure 7's
    /// untrimmed maxima of >150 / >100).
    pub max_degree: u64,
    /// Probability that an edge endpoint is drawn from the same label class
    /// (label homophily).
    pub homophily: f64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        Self {
            alpha: 2.3,
            min_degree: 2,
            max_degree: 150,
            homophily: 0.8,
        }
    }
}

/// Chung–Lu-style power-law graph with label homophily.
///
/// Expected degrees are drawn from a bounded power law; each edge picks its
/// first endpoint proportional to weight and its second endpoint from the
/// same label class with probability `homophily` (otherwise globally), again
/// proportional to weight. Duplicate edges and self-loops are resampled.
///
/// # Panics
/// Panics if `labels` is empty or the config is degenerate.
pub fn homophilous_powerlaw(labels: &[u32], cfg: &PowerLawConfig, rng: &mut Xoshiro256pp) -> Graph {
    let n = labels.len();
    assert!(n >= 2, "need at least two vertices");
    assert!(
        (0.0..=1.0).contains(&cfg.homophily),
        "homophily must be a probability"
    );
    let deg_dist = PowerLaw::new(cfg.min_degree, cfg.max_degree, cfg.alpha);
    let weights: Vec<f64> = (0..n).map(|_| deg_dist.sample(rng) as f64).collect();
    let target_edges = (weights.iter().sum::<f64>() / 2.0).round() as usize;

    // Weight-proportional samplers: one global, one per label class.
    let global = Categorical::new(&weights);
    let num_classes = labels.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut class_members: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (v, &c) in labels.iter().enumerate() {
        class_members[c as usize].push(v);
    }
    let class_samplers: Vec<Option<Categorical>> = class_members
        .iter()
        .map(|members| {
            if members.len() < 2 {
                None
            } else {
                let w: Vec<f64> = members.iter().map(|&v| weights[v]).collect();
                Some(Categorical::new(&w))
            }
        })
        .collect();

    let mut g = Graph::new(n);
    let mut attempts = 0usize;
    let max_attempts = 30 * target_edges.max(1);
    while g.num_edges() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = global.sample(rng);
        let c = labels[u] as usize;
        let v = if rng.bernoulli(cfg.homophily) {
            match &class_samplers[c] {
                Some(sampler) => class_members[c][sampler.sample(rng)],
                None => global.sample(rng),
            }
        } else {
            global.sample(rng)
        };
        if u != v {
            g.add_edge(u as u32, v as u32);
        }
    }
    g
}

/// Fraction of edges whose endpoints share a label (homophily measurement).
pub fn edge_homophily(g: &Graph, labels: &[u32]) -> f64 {
    let mut same = 0usize;
    let mut total = 0usize;
    for (u, v) in g.edges() {
        total += 1;
        if labels[u as usize] == labels[v as usize] {
            same += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        same as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(2023)
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut r = rng();
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut r);
        g.check_invariants().unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "edges {actual} vs expected {expected}"
        );
    }

    #[test]
    fn barabasi_albert_structure() {
        let mut r = rng();
        let g = barabasi_albert(500, 3, &mut r);
        g.check_invariants().unwrap();
        assert_eq!(g.num_nodes(), 500);
        // Every non-seed vertex attaches with ~m edges.
        assert!(g.num_edges() >= 3 * (500 - 4) * 9 / 10);
        // Preferential attachment produces a hub much larger than m.
        assert!(g.max_degree() > 20, "max degree {}", g.max_degree());
    }

    #[test]
    fn homophilous_powerlaw_has_heavy_tail_and_homophily() {
        let mut r = rng();
        let num_classes = 4u32;
        let labels: Vec<u32> = (0..3000)
            .map(|_| r.next_below(num_classes as u64) as u32)
            .collect();
        let cfg = PowerLawConfig {
            alpha: 2.3,
            min_degree: 3,
            max_degree: 120,
            homophily: 0.8,
        };
        let g = homophilous_powerlaw(&labels, &cfg, &mut r);
        g.check_invariants().unwrap();
        // Heavy tail: maximum degree far above the average.
        assert!(g.avg_degree() > 3.0);
        assert!(
            g.max_degree() as f64 > 4.0 * g.avg_degree(),
            "max {} vs avg {}",
            g.max_degree(),
            g.avg_degree()
        );
        // Homophily: same-label edges dominate. The second endpoint is
        // class-constrained with probability 0.8, plus chance matches.
        let h = edge_homophily(&g, &labels);
        assert!(h > 0.6, "homophily {h}");
    }

    #[test]
    fn homophilous_powerlaw_zero_homophily_is_near_random_mixing() {
        let mut r = rng();
        let labels: Vec<u32> = (0..2000).map(|_| r.next_below(4) as u32).collect();
        let cfg = PowerLawConfig {
            homophily: 0.0,
            ..Default::default()
        };
        let g = homophilous_powerlaw(&labels, &cfg, &mut r);
        let h = edge_homophily(&g, &labels);
        // With 4 balanced classes, random mixing gives ~0.25.
        assert!((h - 0.25).abs() < 0.08, "homophily {h}");
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let labels: Vec<u32> = (0..500).map(|v| v % 3).collect();
        let cfg = PowerLawConfig::default();
        let g1 = homophilous_powerlaw(&labels, &cfg, &mut Xoshiro256pp::seed_from_u64(5));
        let g2 = homophilous_powerlaw(&labels, &cfg, &mut Xoshiro256pp::seed_from_u64(5));
        assert_eq!(g1, g2);
    }
}
