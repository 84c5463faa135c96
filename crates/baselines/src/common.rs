//! Shared training loop for the comparison systems (§VIII-C).
//!
//! All three baselines — centralized GNN, LPGNN, naive FedGNN — train the
//! same 2-layer encoder directly on a plain graph (no trees); they differ
//! only in which *inputs* they see: raw vs privatized features, true vs
//! noised structure and labels.

use lumos_common::rng::Xoshiro256pp;
use lumos_core::config::TaskKind;
use lumos_core::report::RunReport;
use lumos_core::task::{EvalCadence, EvalSplit, TaskData, TaskHead};
use lumos_data::Dataset;
use lumos_gnn::{Backbone, EncoderConfig, GnnEncoder, MessageGraph};
use lumos_graph::Graph;
use lumos_tensor::{Adam, ParamStore, Tape, Tensor};

/// Inputs of a plain-graph training run.
pub struct PlainRun<'a> {
    /// System name for the report.
    pub system: &'a str,
    /// Dataset name for the report.
    pub dataset: &'a str,
    /// Backbone architecture.
    pub backbone: Backbone,
    /// The task: its split over the *true* graph, the (possibly
    /// privatized) training labels and the ground truth to score against.
    pub task: TaskData,
    /// Edges the model trains its message passing on (possibly noised; for
    /// unsupervised tasks these are the train-split edges).
    pub message_edges: Vec<(u32, u32)>,
    /// Node features the model sees (possibly privatized), row-major `[n,d]`.
    pub features: Tensor,
    /// The true graph (negative sampling and evaluation).
    pub true_graph: &'a Graph,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Evaluation cadence.
    pub eval_every: usize,
}

/// Draws `task`'s split of `ds` as every baseline does — one negative per
/// positive, `train_labels` as the system under test sees them — and with
/// it the edges the task leaves for message passing (all of them, or the
/// train split's).
pub(crate) fn draw_task(
    ds: &Dataset,
    task: TaskKind,
    train_labels: Vec<u32>,
    rng: &mut Xoshiro256pp,
) -> (TaskData, Vec<(u32, u32)>) {
    let data = TaskData::draw(task, ds, train_labels, 1, rng);
    let edges = match data.train_edges() {
        Some(edges) => edges.to_vec(),
        None => ds.graph.edges().collect(),
    };
    (data, edges)
}

/// Trains on the plain graph and reports metrics against the ground truth.
pub fn train_plain(run: PlainRun<'_>) -> RunReport {
    let cadence = EvalCadence::new(run.eval_every, run.epochs);
    let n = run.true_graph.num_nodes();
    let mut rng = Xoshiro256pp::seed_from_u64(run.seed);
    let mg = MessageGraph::from_undirected(n, &run.message_edges);
    let task = run.task.kind().name();
    let mut report = RunReport::new(run.system, run.dataset, run.backbone.name(), task);

    let mut store = ParamStore::new();
    let enc_cfg = EncoderConfig::paper(run.backbone, run.features.cols());
    let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
    let head = TaskHead::new(run.task, &mut store, encoder.out_dim(), &mut rng);
    let mut opt = Adam::new(run.lr);

    // As in `run_lumos`: one tape, borrowing the features and recycling its
    // buffers across every step and evaluation.
    let mut tape = Tape::new();
    for epoch in 0..run.epochs {
        tape = tape.reset();
        let x = tape.constant_ref(&run.features);
        let h = encoder.forward(&mut tape, &store, x, &mg, true, &mut rng);
        let loss_var = head.loss(&mut tape, &store, h, run.true_graph, &mut rng);
        let loss = tape.value(loss_var).item() as f64;
        store.zero_grad();
        tape.accumulate_param_grads(&tape.backward(loss_var), &mut store);
        opt.step(&mut store);

        let splits = cadence.splits_after(epoch);
        if !splits.is_empty() {
            tape = tape.reset();
            let x = tape.constant_ref(&run.features);
            let h = encoder.forward(&mut tape, &store, x, &mg, false, &mut rng);
            let metrics: Vec<f64> = splits
                .iter()
                .map(|&on| head.metric(&mut tape, &store, h, on))
                .collect();
            report.record_eval(epoch, loss, &metrics);
        }
    }

    // As in `run_lumos`: the test metric rode on the last epoch's validation
    // forward; a run of no epochs scores the model it initialized.
    if run.epochs == 0 {
        tape = tape.reset();
        let x = tape.constant_ref(&run.features);
        let h = encoder.forward(&mut tape, &store, x, &mg, false, &mut rng);
        report.test_metric = head.metric(&mut tape, &store, h, EvalSplit::Test);
    }
    report
}

/// Converts a dataset's raw features into the `[n, d]` tensor form.
pub fn features_tensor(features: &[f32], n: usize, dim: usize) -> Tensor {
    Tensor::from_vec(n, dim, features.to_vec())
}
