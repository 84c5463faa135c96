//! Figure 4: unsupervised link-prediction ROC-AUC — Lumos vs centralized
//! GNN vs naive FedGNN (LPGNN is supervised-only, §VIII-C).

use lumos_baselines::{run_centralized, run_naive_fedgnn, BaselineConfig, NaiveFedParams};
use lumos_common::table::{fmt4, Table};
use lumos_core::{run_lumos, LumosConfig, TaskKind};
use lumos_data::Dataset;
use lumos_gnn::Backbone;

use crate::args::HarnessArgs;
use crate::presets::{datasets, epochs_for, mcmc_iterations_for, run_pair};

/// One result row of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Dataset name.
    pub dataset: String,
    /// Backbone name.
    pub backbone: String,
    /// Lumos AUC.
    pub lumos: f64,
    /// Centralized AUC.
    pub centralized: f64,
    /// Naive FedGNN AUC.
    pub naive: f64,
}

fn eval_dataset(ds: &Dataset, args: &HarnessArgs) -> Vec<Fig4Row> {
    let task = TaskKind::Unsupervised;
    let epochs = epochs_for(args.scale, task, args.quick);
    let mcmc = mcmc_iterations_for(args.scale, &ds.name);
    [Backbone::Gcn, Backbone::Gat]
        .into_iter()
        .map(|backbone| {
            let lumos_cfg = LumosConfig::new(backbone, task)
                .with_epochs(epochs)
                .with_mcmc_iterations(mcmc)
                .with_seed(args.seed);
            let base_cfg = BaselineConfig::new(backbone, task)
                .with_epochs(epochs)
                .with_seed(args.seed);
            Fig4Row {
                dataset: ds.name.clone(),
                backbone: backbone.name().into(),
                lumos: run_lumos(ds, &lumos_cfg).test_metric,
                centralized: run_centralized(ds, &base_cfg).test_metric,
                naive: run_naive_fedgnn(ds, &base_cfg, &NaiveFedParams::default()).test_metric,
            }
        })
        .collect()
}

/// Runs the Figure 4 experiment.
pub fn run(args: &HarnessArgs) -> Vec<Fig4Row> {
    let ds = datasets(args.scale);
    let (fb, lfm) = (&ds[0], &ds[1]);
    let (a, b) = run_pair(|| eval_dataset(fb, args), || eval_dataset(lfm, args));
    a.into_iter().chain(b).collect()
}

/// Renders the rows.
pub fn table(rows: &[Fig4Row]) -> Table {
    let mut t = Table::new(
        "Figure 4: link prediction ROC-AUC",
        &[
            "dataset",
            "backbone",
            "Lumos",
            "Centralized",
            "Naive FedGNN",
        ],
    );
    for r in rows {
        t.push_row([
            r.dataset.clone(),
            r.backbone.clone(),
            fmt4(r.lumos),
            fmt4(r.centralized),
            fmt4(r.naive),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    /// At reduced scale the one-bit mechanism's per-element budget
    /// `ε·wl/d` leaves little pairwise signal, so only the weaker shapes
    /// are asserted here: Lumos beats random guessing and the centralized
    /// skyline dominates everything. The Lumos-vs-naive ordering of the
    /// paper's Figure 4 is a paper-scale property.
    #[test]
    fn fig4_sanity_at_smoke_scale_gcn() {
        let args = HarnessArgs {
            scale: Scale::Smoke,
            seed: 3,
            quick: false,
            json: None,
            sensitivity: false,
        };
        let ds = lumos_data::Dataset::lastfm_like(Scale::Smoke);
        let rows = eval_dataset(&ds, &args);
        let gcn = rows.iter().find(|r| r.backbone == "GCN").unwrap();
        assert!(gcn.lumos > 0.52, "lumos {} must beat random", gcn.lumos);
        assert!(gcn.centralized > 0.7);
        assert!(
            gcn.centralized > gcn.lumos && gcn.centralized > gcn.naive,
            "centralized must dominate: {} vs {}/{}",
            gcn.centralized,
            gcn.lumos,
            gcn.naive
        );
        assert_eq!(table(&rows).len(), 2);
    }
}
