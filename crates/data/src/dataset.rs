//! Synthetic social-network datasets.
//!
//! The paper evaluates on the Facebook page-page graph (22,470 vertices,
//! 170,912 edges, 4,714 features, 4 classes) and the LastFM graph (7,624
//! vertices, 55,612 edges, 128 features, 18 classes) — §VIII-A. Those crawls
//! are external downloads, so this crate generates statistical stand-ins:
//! homophilous power-law graphs with
//! class-conditional features in `[0,1]^d`, matched to the paper's node,
//! edge, feature and class counts at [`Scale::Paper`].

use lumos_common::dist::Normal;
use lumos_common::rng::Xoshiro256pp;
use lumos_graph::generate::{homophilous_powerlaw, PowerLawConfig};
use lumos_graph::Graph;

/// Experiment scale presets.
///
/// `Paper` matches the dataset sizes in §VIII-A; `Small` is the default for
/// the experiment harness (same shapes, ~10x smaller); `Smoke` is for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny graphs for unit/integration tests (hundreds of nodes).
    Smoke,
    /// Default harness scale (thousands of nodes).
    Small,
    /// Full paper-scale datasets.
    Paper,
}

impl Scale {
    /// Parses `"smoke" | "small" | "paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Self::Smoke),
            "small" => Some(Self::Small),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Display name (the inverse of [`Scale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Small => "small",
            Self::Paper => "paper",
        }
    }
}

/// Generation parameters for a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Dataset name used in reports.
    pub name: String,
    /// Number of vertices (devices).
    pub num_nodes: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Feature dimensionality `d`.
    pub feature_dim: usize,
    /// Degree distribution and homophily of the graph.
    pub graph: PowerLawConfig,
    /// Fraction of feature dimensions that are informative for each class.
    pub active_dim_frac: f64,
    /// Feature value for inactive dimensions (class-independent baseline).
    pub base_level: f64,
    /// Feature value for a class's active dimensions.
    pub active_level: f64,
    /// Standard deviation of per-node feature noise.
    pub feature_noise: f64,
    /// Generation seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// Facebook-like configuration at the requested scale.
    ///
    /// Paper scale: 22,470 vertices / ~170,912 edges (avg degree ≈ 15.2) /
    /// 4,714 features / 4 classes, untrimmed maximum degree > 150 (Fig. 7a).
    pub fn facebook_like(scale: Scale) -> Self {
        let (num_nodes, feature_dim, max_degree) = match scale {
            Scale::Smoke => (300, 64, 60),
            Scale::Small => (1200, 192, 150),
            Scale::Paper => (22_470, 4_714, 320),
        };
        Self {
            name: "facebook".into(),
            num_nodes,
            num_classes: 4,
            feature_dim,
            graph: PowerLawConfig {
                alpha: 2.1,
                min_degree: 4,
                max_degree,
                homophily: 0.72,
            },
            active_dim_frac: 0.3,
            base_level: 0.2,
            active_level: 0.8,
            feature_noise: 0.25,
            seed: 0xFACE_B00C,
        }
    }

    /// LastFM-like configuration at the requested scale.
    ///
    /// Paper scale: 7,624 vertices / ~55,612 edges (avg degree ≈ 14.6) /
    /// 128 features / 18 classes, untrimmed maximum degree > 100 (Fig. 7b).
    pub fn lastfm_like(scale: Scale) -> Self {
        let (num_nodes, num_classes, max_degree) = match scale {
            Scale::Smoke => (260, 6, 50),
            Scale::Small => (1000, 18, 100),
            Scale::Paper => (7_624, 18, 216),
        };
        Self {
            name: "lastfm".into(),
            num_nodes,
            num_classes,
            feature_dim: 128,
            graph: PowerLawConfig {
                alpha: 2.2,
                min_degree: 4,
                max_degree,
                homophily: 0.72,
            },
            active_dim_frac: 0.3,
            base_level: 0.15,
            active_level: 0.85,
            feature_noise: 0.25,
            seed: 0x1A57_F00D,
        }
    }
}

/// A generated dataset: global graph + features + labels.
///
/// Features are stored flat and row-major (`num_nodes x feature_dim`) and
/// bounded in `[0, 1]` as the one-bit LDP mechanism requires (§VI-A).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// Global graph (never observed by devices directly).
    pub graph: Graph,
    /// Row-major `[num_nodes, feature_dim]` feature matrix in `[0,1]`.
    pub features: Vec<f32>,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// One label per vertex in `0..num_classes`.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Generates a dataset from a configuration.
    pub fn generate(cfg: &DatasetConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        // Balanced labels, then shuffled.
        let mut labels: Vec<u32> = (0..cfg.num_nodes)
            .map(|i| (i % cfg.num_classes) as u32)
            .collect();
        rng.shuffle(&mut labels);

        let graph = homophilous_powerlaw(&labels, &cfg.graph, &mut rng);

        // Class centers: each class activates a random subset of dimensions.
        // Classes share the baseline elsewhere, so noisy low-budget LDP
        // features still carry aggregate class signal across many dims.
        let active_per_class = ((cfg.feature_dim as f64) * cfg.active_dim_frac).round() as usize;
        let mut centers = vec![cfg.base_level as f32; cfg.num_classes * cfg.feature_dim];
        for c in 0..cfg.num_classes {
            let dims = rng.sample_indices(cfg.feature_dim, active_per_class.min(cfg.feature_dim));
            for d in dims {
                centers[c * cfg.feature_dim + d] = cfg.active_level as f32;
            }
        }

        let noise = Normal::new(0.0, cfg.feature_noise);
        let mut features = vec![0.0f32; cfg.num_nodes * cfg.feature_dim];
        for v in 0..cfg.num_nodes {
            let c = labels[v] as usize;
            let center = &centers[c * cfg.feature_dim..(c + 1) * cfg.feature_dim];
            let row = &mut features[v * cfg.feature_dim..(v + 1) * cfg.feature_dim];
            for (x, &m) in row.iter_mut().zip(center) {
                *x = (m + noise.sample(&mut rng) as f32).clamp(0.0, 1.0);
            }
        }

        Self {
            name: cfg.name.clone(),
            graph,
            features,
            feature_dim: cfg.feature_dim,
            labels,
            num_classes: cfg.num_classes,
        }
    }

    /// Convenience: Facebook-like dataset at a scale.
    pub fn facebook_like(scale: Scale) -> Self {
        Self::generate(&DatasetConfig::facebook_like(scale))
    }

    /// Convenience: LastFM-like dataset at a scale.
    pub fn lastfm_like(scale: Scale) -> Self {
        Self::generate(&DatasetConfig::lastfm_like(scale))
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_graph::generate::edge_homophily;

    #[test]
    fn smoke_dataset_shapes() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        assert_eq!(ds.num_nodes(), 300);
        assert_eq!(ds.feature_dim, 64);
        assert_eq!(ds.num_classes, 4);
        assert_eq!(ds.features.len(), 300 * 64);
        assert_eq!(ds.labels.len(), 300);
        assert!(ds.labels.iter().all(|&l| l < 4));
        ds.graph.check_invariants().unwrap();
    }

    #[test]
    fn features_bounded_in_unit_interval() {
        let ds = Dataset::lastfm_like(Scale::Smoke);
        assert!(ds.features.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn labels_balanced() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut counts = vec![0usize; ds.num_classes];
        for &l in &ds.labels {
            counts[l as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "balanced by construction: {counts:?}");
    }

    #[test]
    fn graph_is_homophilous_and_heavy_tailed() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let h = edge_homophily(&ds.graph, &ds.labels);
        assert!(h > 0.55, "homophily {h}");
        assert!(ds.graph.max_degree() as f64 > 3.0 * ds.graph.avg_degree());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::facebook_like(Scale::Smoke);
        let b = Dataset::facebook_like(Scale::Smoke);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn class_centers_separate_features() {
        // Mean feature distance between same-class nodes should be smaller
        // than between different-class nodes.
        let ds = Dataset::lastfm_like(Scale::Smoke);
        let row = |v: u32| &ds.features[v as usize * ds.feature_dim..][..ds.feature_dim];
        let dist = |a: u32, b: u32| -> f32 {
            row(a)
                .iter()
                .zip(row(b))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
        };
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for a in 0..60u32 {
            for b in (a + 1)..60u32 {
                if ds.labels[a as usize] == ds.labels[b as usize] {
                    same = (same.0 + dist(a, b), same.1 + 1);
                } else {
                    diff = (diff.0 + dist(a, b), diff.1 + 1);
                }
            }
        }
        let same_mean = same.0 / same.1 as f32;
        let diff_mean = diff.0 / diff.1 as f32;
        assert!(
            same_mean * 1.5 < diff_mean,
            "same {same_mean} vs diff {diff_mean}"
        );
    }

    #[test]
    fn paper_scale_configs_match_paper_counts() {
        let fb = DatasetConfig::facebook_like(Scale::Paper);
        assert_eq!(fb.num_nodes, 22_470);
        assert_eq!(fb.feature_dim, 4_714);
        assert_eq!(fb.num_classes, 4);
        let lf = DatasetConfig::lastfm_like(Scale::Paper);
        assert_eq!(lf.num_nodes, 7_624);
        assert_eq!(lf.feature_dim, 128);
        assert_eq!(lf.num_classes, 18);
    }
}
