//! Shared training loop for the comparison systems (§VIII-C).
//!
//! All three baselines — centralized GNN, LPGNN, naive FedGNN — train the
//! same 2-layer encoder directly on a plain graph (no trees); they differ
//! only in which *inputs* they see: raw vs privatized features, true vs
//! noised structure and labels.

use lumos_common::rng::Xoshiro256pp;
use lumos_core::config::TaskKind;
use lumos_core::report::RunReport;
use lumos_core::task::{EvalCadence, EvalSplit, TaskData, TaskHead, EVAL_EVERY};
use lumos_data::Dataset;
use lumos_gnn::{EncoderConfig, GnnEncoder, MessageGraph};
use lumos_tensor::{Adam, ParamStore, Tape, Tensor};

use crate::systems::BaselineConfig;

/// Inputs of a plain-graph training run.
pub struct PlainRun<'a> {
    /// System name for the report.
    pub system: &'a str,
    /// The dataset: its name for the report, and its true graph (negative
    /// sampling and evaluation).
    pub ds: &'a Dataset,
    /// Backbone, epochs, seed and evaluation cadence; the learning rate is
    /// the task's ([`TaskKind::lr`]).
    pub cfg: &'a BaselineConfig,
    /// The task: its split over the *true* graph, the (possibly
    /// privatized) training labels and the ground truth to score against.
    pub task: TaskData,
    /// Edges the model trains its message passing on (possibly noised; for
    /// unsupervised tasks these are the train-split edges).
    pub message_edges: Vec<(u32, u32)>,
    /// Node features the model sees (possibly privatized), row-major
    /// `[n, d]` over the dataset's vertices and feature dimension.
    pub features: Vec<f32>,
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
    let data = TaskData::draw(task, ds, train_labels, rng);
    let edges = match data.train_edges() {
        Some(edges) => edges.to_vec(),
        None => ds.graph.edges().collect(),
    };
    (data, edges)
}

/// Trains on the plain graph and reports metrics against the ground truth.
pub fn train_plain(run: PlainRun<'_>) -> RunReport {
    let (ds, cfg) = (run.ds, run.cfg);
    let cadence = EvalCadence::new(EVAL_EVERY, cfg.epochs);
    let n = ds.graph.num_nodes();
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mg = MessageGraph::from_undirected(n, &run.message_edges);
    let task = run.task.kind();
    let mut report = RunReport::new(run.system, &ds.name, cfg.backbone.name(), task.name());
    let features = Tensor::from_vec(n, ds.feature_dim, run.features);

    let mut store = ParamStore::new();
    let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
    let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
    let head = TaskHead::new(run.task, &mut store, encoder.out_dim(), &mut rng);
    let mut opt = Adam::new(task.lr());

    // As in `run_lumos`: one tape, borrowing the features and recycling its
    // buffers across every step and evaluation.
    let mut tape = Tape::new();
    for epoch in 0..cfg.epochs {
        tape = tape.reset();
        let x = tape.constant_ref(&features);
        let h = encoder.forward(&mut tape, &store, x, &mg, true, &mut rng);
        let loss_var = head.loss(&mut tape, &store, h, &ds.graph, &mut rng);
        let loss = tape.value(loss_var).item() as f64;
        store.zero_grad();
        tape.accumulate_param_grads(&tape.backward(loss_var), &mut store);
        opt.step(&mut store);

        let splits = cadence.splits_after(epoch);
        if !splits.is_empty() {
            tape = tape.reset();
            let x = tape.constant_ref(&features);
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
    if cfg.epochs == 0 {
        tape = tape.reset();
        let x = tape.constant_ref(&features);
        let h = encoder.forward(&mut tape, &store, x, &mg, false, &mut rng);
        report.test_metric = head.metric(&mut tape, &store, h, EvalSplit::Test);
    }
    report
}
