//! The three comparison systems of §VIII-C.

use lumos_common::rng::Xoshiro256pp;
use lumos_core::config::TaskKind;
use lumos_core::report::RunReport;
use lumos_data::Dataset;
use lumos_gnn::Backbone;
use lumos_graph::Graph;
use lumos_ldp::{GaussianMechanism, MultiBitMechanism, RandomizedResponse};

use crate::common::{draw_task, train_plain, PlainRun};

/// LPGNN's feature budget ε_x (§VIII-C).
const LPGNN_EPSILON_X: f64 = 2.0;
/// LPGNN's label budget ε_y (§VIII-C).
const LPGNN_EPSILON_Y: f64 = 1.0;
/// Dimensions LPGNN's multi-bit mechanism samples per user.
const LPGNN_SAMPLED_DIMS: usize = 16;
/// KProp-style feature-propagation steps applied before training.
const LPGNN_KPROP_STEPS: usize = 2;
/// Label-KProp steps: noisy training labels are replaced by the mode of
/// the noisy labels in the closed neighborhood (LPGNN's Drop-style label
/// correction).
const LPGNN_LABEL_KPROP_STEPS: usize = 1;

/// Naive FedGNN's Gaussian feature budget ε (δ = 1e-5, sensitivity 1).
const NAIVE_FEATURE_EPSILON: f64 = 2.0;
/// Naive FedGNN's label randomized-response budget.
const NAIVE_LABEL_EPSILON: f64 = 1.0;
/// Naive FedGNN's adjacency randomized-response budget: each of the
/// `n·(n−1)/2` potential edges flips with probability `1/(e^ε + 1)`. On
/// sparse graphs this buries the topology under noise — exactly why the
/// naive system collapses in the paper.
const NAIVE_ADJACENCY_EPSILON: f64 = 1.0;
/// Tractability cap on spurious edges, as a multiple of `|E|` (the exact
/// RR expectation is quadratic in `n`).
const NAIVE_MAX_NOISE_RATIO: f64 = 40.0;

/// Common run parameters for the baselines. Every baseline trains at its
/// task's learning rate ([`TaskKind::lr`]).
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Backbone architecture.
    pub backbone: Backbone,
    /// Task.
    pub task: TaskKind,
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
    /// Evaluation cadence.
    pub eval_every: usize,
}

impl BaselineConfig {
    /// Paper defaults.
    pub fn new(backbone: Backbone, task: TaskKind) -> Self {
        Self {
            backbone,
            task,
            epochs: 80,
            seed: 0xBA5E,
            eval_every: 10,
        }
    }

    /// Builder-style: set epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style: set seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Centralized GNN: the server sees the true graph, raw features and labels
/// (the paper's upper reference).
pub fn run_centralized(ds: &Dataset, cfg: &BaselineConfig) -> RunReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (task, message_edges) = draw_task(ds, cfg.task, ds.labels.clone(), &mut rng);
    train_plain(PlainRun {
        system: "centralized",
        ds,
        cfg,
        task,
        message_edges,
        features: ds.features.clone(),
    })
}

/// LPGNN-like system: the server knows the graph structure; features arrive
/// under the multi-bit mechanism (ε_x) and training labels under randomized
/// response (ε_y). A KProp-style neighborhood averaging denoises features
/// before training, as in the original system. Supervised only, matching
/// the paper's comparison.
pub fn run_lpgnn(ds: &Dataset, cfg: &BaselineConfig) -> RunReport {
    assert_eq!(
        cfg.task,
        TaskKind::Supervised,
        "LPGNN is evaluated in supervised settings only (§VIII-C)"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0x17C0);
    let n = ds.num_nodes();
    let d = ds.feature_dim;

    // Feature privatization (multi-bit, ε_x).
    let mech = MultiBitMechanism::new(LPGNN_EPSILON_X, d, LPGNN_SAMPLED_DIMS.min(d).max(1));
    let mut noisy = vec![0.0f32; n * d];
    for v in 0..n {
        let row = mech.privatize(&ds.features[v * d..(v + 1) * d], &mut rng);
        noisy[v * d..(v + 1) * d].copy_from_slice(&row);
    }
    // KProp denoising: average over neighborhoods (the server knows the
    // structure).
    for _ in 0..LPGNN_KPROP_STEPS {
        noisy = kprop_once(&ds.graph, &noisy, d);
    }

    // Label privatization (k-ary randomized response, ε_y) followed by
    // Drop-style label correction: majority vote over the closed
    // neighborhood's noisy labels, repeated.
    let rr = RandomizedResponse::new(LPGNN_EPSILON_Y, ds.num_classes.max(2));
    let mut noisy_labels: Vec<u32> = ds
        .labels
        .iter()
        .map(|&y| rr.privatize(y, &mut rng))
        .collect();
    for _ in 0..LPGNN_LABEL_KPROP_STEPS {
        noisy_labels = label_mode_smooth(&ds.graph, &noisy_labels, ds.num_classes);
    }

    let mut seed_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (task, message_edges) = draw_task(ds, cfg.task, noisy_labels, &mut seed_rng);
    train_plain(PlainRun {
        system: "lpgnn",
        ds,
        cfg,
        task,
        message_edges,
        features: noisy,
    })
}

/// One step of majority-vote label smoothing over closed neighborhoods.
fn label_mode_smooth(g: &Graph, labels: &[u32], num_classes: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(labels.len());
    let mut counts = vec![0u32; num_classes];
    for v in 0..g.num_nodes() as u32 {
        counts.iter_mut().for_each(|c| *c = 0);
        counts[labels[v as usize] as usize] += 1;
        for &u in g.neighbors(v) {
            counts[labels[u as usize] as usize] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i as u32)
            .unwrap_or(labels[v as usize]);
        out.push(best);
    }
    out
}

fn kprop_once(g: &Graph, features: &[f32], d: usize) -> Vec<f32> {
    let n = g.num_nodes();
    let mut out = vec![0.0f32; n * d];
    for v in 0..n as u32 {
        let nb = g.neighbors(v);
        let dst = &mut out[v as usize * d..(v as usize + 1) * d];
        // Include self to keep isolated vertices defined.
        dst.copy_from_slice(&features[v as usize * d..(v as usize + 1) * d]);
        for &u in nb {
            for (o, &x) in dst
                .iter_mut()
                .zip(&features[u as usize * d..(u as usize + 1) * d])
            {
                *o += x;
            }
        }
        let scale = 1.0 / (nb.len() + 1) as f32;
        for o in dst.iter_mut() {
            *o *= scale;
        }
    }
    out
}

/// Naive FedGNN: devices upload Gaussian-noised features, randomized-
/// response-noised adjacency rows, and RR-noised labels; the server trains
/// on the noised graph. The paper's lower reference — federation done
/// naively destroys both structure and features.
pub fn run_naive_fedgnn(ds: &Dataset, cfg: &BaselineConfig) -> RunReport {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0xFED6);
    let n = ds.num_nodes();
    let d = ds.feature_dim;

    // Features: Gaussian mechanism.
    let gauss = GaussianMechanism::calibrated(NAIVE_FEATURE_EPSILON);
    let mut noisy = vec![0.0f32; n * d];
    for v in 0..n {
        let row = gauss.privatize(&ds.features[v * d..(v + 1) * d], &mut rng);
        noisy[v * d..(v + 1) * d].copy_from_slice(&row);
    }

    // Labels: randomized response.
    let rr = RandomizedResponse::new(NAIVE_LABEL_EPSILON, ds.num_classes.max(2));
    let noisy_labels: Vec<u32> = ds
        .labels
        .iter()
        .map(|&y| rr.privatize(y, &mut rng))
        .collect();

    // Splits are taken on the true graph (evaluation must be against the
    // truth); the *message* structure the server sees is the noised version
    // of what devices upload.
    let mut seed_rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let (task, base_edges) = draw_task(ds, cfg.task, noisy_labels, &mut seed_rng);
    let message_edges = noise_adjacency(n, &base_edges, &mut rng);

    train_plain(PlainRun {
        system: "naive-fedgnn",
        ds,
        cfg,
        task,
        message_edges,
        features: noisy,
    })
}

/// Randomized response over the adjacency matrix: true edges survive with
/// the RR keep probability; every non-edge turns on with the flip
/// probability `1/(e^ε + 1)`. The spurious edges are drawn by expected
/// count rather than per-pair coin flips (identical distribution shape,
/// tractable at paper scale), capped at `NAIVE_MAX_NOISE_RATIO × |E|`.
fn noise_adjacency(n: usize, edges: &[(u32, u32)], rng: &mut Xoshiro256pp) -> Vec<(u32, u32)> {
    let rr = RandomizedResponse::new(NAIVE_ADJACENCY_EPSILON, 2);
    let keep = rr.keep_prob();
    let flip = 1.0 - keep;
    let mut out: Vec<(u32, u32)> = edges
        .iter()
        .copied()
        .filter(|_| rng.bernoulli(keep))
        .collect();
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    let non_edges = (pairs - edges.len() as f64).max(0.0);
    let expected = flip * non_edges;
    let cap = NAIVE_MAX_NOISE_RATIO * edges.len() as f64;
    let spurious = expected.min(cap).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < spurious && guard < 20 * spurious + 100 {
        guard += 1;
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        if u != v {
            out.push((u.min(v), u.max(v)));
            added += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    fn cfg(task: TaskKind) -> BaselineConfig {
        BaselineConfig::new(Backbone::Gcn, task)
            .with_epochs(60)
            .with_seed(11)
    }

    #[test]
    fn centralized_supervised_is_strong() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let r = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(
            r.test_metric > 0.75,
            "centralized accuracy {}",
            r.test_metric
        );
        assert_eq!(r.system, "centralized");
    }

    #[test]
    fn centralized_unsupervised_is_strong() {
        let ds = Dataset::lastfm_like(Scale::Smoke);
        let r = run_centralized(&ds, &cfg(TaskKind::Unsupervised).with_epochs(150));
        assert!(r.test_metric > 0.75, "centralized AUC {}", r.test_metric);
    }

    #[test]
    fn lpgnn_between_random_and_centralized() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let lp = run_lpgnn(&ds, &cfg(TaskKind::Supervised));
        let central = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(lp.test_metric > 0.3, "LPGNN accuracy {}", lp.test_metric);
        assert!(
            lp.test_metric <= central.test_metric + 0.05,
            "LPGNN {} should not beat centralized {}",
            lp.test_metric,
            central.test_metric
        );
    }

    #[test]
    fn naive_fedgnn_collapses() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let naive = run_naive_fedgnn(&ds, &cfg(TaskKind::Supervised));
        let central = run_centralized(&ds, &cfg(TaskKind::Supervised));
        assert!(
            naive.test_metric < central.test_metric - 0.2,
            "naive {} must collapse vs centralized {}",
            naive.test_metric,
            central.test_metric
        );
    }

    #[test]
    #[should_panic]
    fn lpgnn_rejects_unsupervised() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let _ = run_lpgnn(&ds, &cfg(TaskKind::Unsupervised));
    }

    #[test]
    #[should_panic(expected = "eval_every")]
    fn zero_eval_every_is_rejected_before_any_work() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut cfg = cfg(TaskKind::Supervised);
        cfg.eval_every = 0;
        run_centralized(&ds, &cfg);
    }

    #[test]
    fn noised_adjacency_buries_the_topology() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let edges: Vec<(u32, u32)> = (0..100).map(|i| (i as u32, (i + 1) as u32)).collect();
        let noised = noise_adjacency(200, &edges, &mut rng);
        // RR at ε=1 flips ~26.9% of the ~19,800 non-edges: ~5,330 spurious,
        // capped at 40 × 100 = 4,000. True edges: ~73 survive.
        assert!(
            noised.len() > 3_500,
            "noise must dominate: {} edges",
            noised.len()
        );
        assert!(noised.len() < 4_200, "cap must bind: {}", noised.len());
    }
}
