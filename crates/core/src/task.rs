//! The task head (§VI-C), shared by the Lumos trainer and the baselines.
//!
//! A run is either node classification (a linear head, masked
//! cross-entropy, accuracy) or link prediction (the dot-product decoder,
//! the negative-sampling loss of Eq. 33, ROC-AUC). Everything that choice
//! decides — the split, the decoder, the training buffers, the loss and the
//! held-out metric — lives in one value: [`TaskData`] is drawn first (it
//! fixes the graph the run trains on), and [`TaskHead`] adds the decoder
//! once the encoder's parameters exist.

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_data::{sample_non_edges, Dataset, EdgeSplit, NodeSplit};
use lumos_gnn::{
    accuracy_masked, cross_entropy_masked, link_logits, link_prediction_loss, roc_auc,
    LinearDecoder,
};
use lumos_graph::Graph;
use lumos_tensor::{ParamStore, Tape, VarId};

use crate::config::TaskKind;

/// Paired endpoint lists of an edge set, as [`link_logits`] gathers them.
pub type PairLists = (Rc<Vec<u32>>, Rc<Vec<u32>>);

fn unzip_pairs(pairs: &[(u32, u32)]) -> PairLists {
    let (src, dst): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
    (Rc::new(src), Rc::new(dst))
}

/// Link prediction's per-round embedding fetches: the training edges and
/// the negatives sampled per positive.
pub type LinkFetches<'a> = (&'a [(u32, u32)], usize);

/// The held-out part a metric is computed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalSplit {
    /// Validation (periodic, during training).
    Val,
    /// Test (once, after training).
    Test,
}

/// When a training loop evaluates: validation after every `eval_every`-th
/// epoch and the last one, the test split once, after the last.
#[derive(Debug, Clone, Copy)]
pub struct EvalCadence {
    every: usize,
    epochs: usize,
}

impl EvalCadence {
    /// Panics on `eval_every == 0` — a cadence with no period — before the
    /// run has done any work.
    pub fn new(every: usize, epochs: usize) -> Self {
        assert!(every > 0, "eval_every must be at least 1");
        Self { every, epochs }
    }

    /// The splits to score off one evaluation forward after `epoch`'s
    /// update; empty when none is due. The test metric rides on the last
    /// epoch's validation forward — same parameters, and evaluation draws
    /// no randomness, so a second forward would recompute the same
    /// embeddings. (A run of zero epochs has no last epoch: its caller
    /// scores the test split on its own.)
    pub fn splits_after(&self, epoch: usize) -> &'static [EvalSplit] {
        if epoch + 1 == self.epochs {
            &[EvalSplit::Val, EvalSplit::Test]
        } else if epoch.is_multiple_of(self.every) {
            &[EvalSplit::Val]
        } else {
            &[]
        }
    }
}

/// Node classification on the full graph with node masks.
#[derive(Debug, Clone)]
pub struct NodeTask {
    /// Train / validation / test vertices.
    pub split: NodeSplit,
    /// Training targets, one per vertex (a baseline may privatize them).
    pub targets: Rc<Vec<u32>>,
    /// 1.0 on training vertices, 0.0 elsewhere.
    pub mask: Rc<Vec<f32>>,
    /// Ground-truth labels the metric is scored against.
    pub eval_labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
}

/// Link prediction on the 80% train-edge graph.
#[derive(Debug, Clone)]
pub struct LinkTask {
    /// Train / validation / test edges with their evaluation negatives.
    pub split: EdgeSplit,
    /// Endpoints of the training edges (the positive pairs).
    pub pos: PairLists,
    /// Negatives sampled per training edge each step.
    pub negatives_per_positive: usize,
}

/// A task's split, labels and training buffers, drawn before any parameter
/// exists.
#[derive(Debug, Clone)]
pub enum TaskData {
    /// Node classification.
    Supervised(NodeTask),
    /// Link prediction.
    Unsupervised(LinkTask),
}

impl TaskData {
    /// Draws `task`'s uniform split of `ds`. `train_labels` and
    /// `negatives_per_positive` each matter to one task only.
    pub fn draw(
        task: TaskKind,
        ds: &Dataset,
        train_labels: Vec<u32>,
        negatives_per_positive: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        match task {
            TaskKind::Supervised => {
                let split = NodeSplit::uniform(ds.num_nodes(), rng);
                let mask = split.train_mask.iter().map(|&b| if b { 1.0 } else { 0.0 });
                Self::Supervised(NodeTask {
                    mask: Rc::new(mask.collect()),
                    split,
                    targets: Rc::new(train_labels),
                    eval_labels: ds.labels.clone(),
                    num_classes: ds.num_classes,
                })
            }
            TaskKind::Unsupervised => {
                let split = EdgeSplit::uniform(&ds.graph, rng);
                Self::Unsupervised(LinkTask {
                    pos: unzip_pairs(&split.train_edges),
                    split,
                    negatives_per_positive,
                })
            }
        }
    }

    /// Which task this is.
    pub fn kind(&self) -> TaskKind {
        match self {
            Self::Supervised(_) => TaskKind::Supervised,
            Self::Unsupervised(_) => TaskKind::Unsupervised,
        }
    }

    /// The edges message passing may use when the task holds some out;
    /// `None` when it trains on the full graph.
    pub fn train_edges(&self) -> Option<&[(u32, u32)]> {
        match self {
            Self::Supervised(_) => None,
            Self::Unsupervised(task) => Some(&task.split.train_edges),
        }
    }
}

/// A task with its decoder: the training loss and the held-out metric.
#[derive(Debug)]
pub enum TaskHead {
    /// Linear head (Eq. 32), masked cross-entropy, accuracy.
    Supervised(LinearDecoder, NodeTask),
    /// Dot-product decoder, negative-sampling loss (Eq. 33), ROC-AUC.
    Unsupervised(LinkTask),
}

impl TaskHead {
    /// Builds the head over `in_dim`-wide embeddings, registering the
    /// classification head's parameters in `store`.
    pub fn new(
        data: TaskData,
        store: &mut ParamStore,
        in_dim: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        match data {
            TaskData::Supervised(task) => {
                let head = LinearDecoder::new(store, "head", in_dim, task.num_classes, rng);
                Self::Supervised(head, task)
            }
            TaskData::Unsupervised(task) => Self::Unsupervised(task),
        }
    }

    /// What link prediction fetches across the wire every round; `None`
    /// for classification, whose loss is local.
    pub fn link_fetches(&self) -> Option<LinkFetches<'_>> {
        match self {
            Self::Supervised(..) => None,
            Self::Unsupervised(task) => {
                Some((&task.split.train_edges, task.negatives_per_positive))
            }
        }
    }

    /// Records the training loss over the embeddings `h`. Link prediction
    /// samples its negatives among the non-edges of `graph`.
    pub fn loss(
        &self,
        tape: &mut Tape<'_>,
        store: &ParamStore,
        h: VarId,
        graph: &Graph,
        rng: &mut Xoshiro256pp,
    ) -> VarId {
        match self {
            Self::Supervised(head, task) => {
                let logits = head.forward(tape, store, h);
                cross_entropy_masked(tape, logits, task.targets.clone(), task.mask.clone())
            }
            Self::Unsupervised(task) => {
                let (src, dst) = task.pos.clone();
                let negs = sample_non_edges(graph, src.len() * task.negatives_per_positive, rng);
                let (neg_src, neg_dst) = unzip_pairs(&negs);
                let pos_logits = link_logits(tape, h, src, dst);
                let neg_logits = link_logits(tape, h, neg_src, neg_dst);
                link_prediction_loss(tape, pos_logits, neg_logits)
            }
        }
    }

    /// The held-out metric of the embeddings `h`: accuracy or ROC-AUC.
    pub fn metric(&self, tape: &mut Tape<'_>, store: &ParamStore, h: VarId, on: EvalSplit) -> f64 {
        match self {
            Self::Supervised(head, task) => {
                let mask = match on {
                    EvalSplit::Val => &task.split.val_mask,
                    EvalSplit::Test => &task.split.test_mask,
                };
                let logits = head.forward(tape, store, h);
                accuracy_masked(tape.value(logits), &task.eval_labels, mask)
            }
            Self::Unsupervised(LinkTask { split, .. }) => {
                let (pos, neg) = match on {
                    EvalSplit::Val => (&split.val_edges, &split.val_negatives),
                    EvalSplit::Test => (&split.test_edges, &split.test_negatives),
                };
                let mut score = |pairs: &[(u32, u32)]| -> Vec<f32> {
                    let (src, dst) = unzip_pairs(pairs);
                    let z = link_logits(tape, h, src, dst);
                    tape.value(z).data().to_vec()
                };
                let (pos_scores, neg_scores) = (score(pos), score(neg));
                roc_auc(&pos_scores, &neg_scores)
            }
        }
    }
}
