//! Figure 8: system performance contribution of tree trimming —
//! (a) average inter-device communication rounds per device per epoch,
//! (b) average training time per epoch.

use lumos_common::table::{fmt2, Table};
use lumos_core::{run_lumos_measured, LumosConfig, TaskKind};
use lumos_data::Dataset;
use lumos_gnn::Backbone;

use crate::args::HarnessArgs;
use crate::presets::{mcmc_iterations_for, run_pair};

/// One (dataset, task) cost comparison.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset name.
    pub dataset: String,
    /// Task.
    pub task: TaskKind,
    /// Avg messages/device/epoch with trimming.
    pub comm_trimmed: f64,
    /// Avg messages/device/epoch without trimming.
    pub comm_untrimmed: f64,
    /// Avg epoch wall seconds with trimming.
    pub time_trimmed: f64,
    /// Avg epoch wall seconds without trimming.
    pub time_untrimmed: f64,
    /// Avg modeled makespan with trimming.
    pub makespan_trimmed: f64,
    /// Avg modeled makespan without trimming.
    pub makespan_untrimmed: f64,
}

/// Epochs used for cost measurement: communication and per-epoch time do
/// not depend on convergence, so a short run suffices.
const COST_EPOCHS: usize = 10;

fn eval_dataset(ds: &Dataset, args: &HarnessArgs) -> Vec<Fig8Row> {
    let mcmc = mcmc_iterations_for(args.scale, &ds.name);
    [TaskKind::Supervised, TaskKind::Unsupervised]
        .into_iter()
        .map(|task| {
            let base = LumosConfig::new(Backbone::Gcn, task)
                .with_epochs(COST_EPOCHS)
                .with_mcmc_iterations(mcmc)
                .with_seed(args.seed);
            let (trimmed, trimmed_cost) = run_lumos_measured(ds, &base);
            let (untrimmed, untrimmed_cost) =
                run_lumos_measured(ds, &base.clone().without_tree_trimming());
            Fig8Row {
                dataset: ds.name.clone(),
                task,
                comm_trimmed: trimmed.avg_messages_per_device_per_epoch,
                comm_untrimmed: untrimmed.avg_messages_per_device_per_epoch,
                time_trimmed: trimmed_cost.secs_per_epoch(),
                time_untrimmed: untrimmed_cost.secs_per_epoch(),
                makespan_trimmed: trimmed.avg_epoch_makespan,
                makespan_untrimmed: untrimmed.avg_epoch_makespan,
            }
        })
        .collect()
}

/// Runs the Figure 8 experiment.
pub fn run(args: &HarnessArgs) -> Vec<Fig8Row> {
    let ds = crate::presets::datasets(args.scale);
    let (fb, lfm) = (&ds[0], &ds[1]);
    let (a, b) = run_pair(|| eval_dataset(fb, args), || eval_dataset(lfm, args));
    a.into_iter().chain(b).collect()
}

/// Renders both panels plus the straggler makespan and saving percentages
/// (the paper: 27–43% fewer communication rounds, 10–36% less time).
pub fn table(rows: &[Fig8Row]) -> Table {
    let mut t = Table::new(
        "Figure 8: system cost with (Lumos) vs without (w.o. TT) trimming",
        &[
            "dataset",
            "task",
            "msgs/dev/epoch",
            "msgs w.o. TT",
            "saved %",
            "epoch secs",
            "epoch secs w.o. TT",
            "saved %",
            "makespan",
            "makespan w.o. TT",
            "saved %",
        ],
    );
    let pct = |a: f64, b: f64| {
        if b == 0.0 {
            "n/a".to_string()
        } else {
            fmt2((b - a) / b * 100.0)
        }
    };
    for r in rows {
        t.push_row([
            r.dataset.clone(),
            r.task.name().to_string(),
            fmt2(r.comm_trimmed),
            fmt2(r.comm_untrimmed),
            pct(r.comm_trimmed, r.comm_untrimmed),
            format!("{:.4}", r.time_trimmed),
            format!("{:.4}", r.time_untrimmed),
            pct(r.time_trimmed, r.time_untrimmed),
            fmt2(r.makespan_trimmed),
            fmt2(r.makespan_untrimmed),
            pct(r.makespan_trimmed, r.makespan_untrimmed),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    #[test]
    fn trimming_saves_communication_and_makespan() {
        let args = HarnessArgs {
            scale: Scale::Smoke,
            seed: 8,
            quick: false,
            json: None,
            sensitivity: false,
        };
        let ds = lumos_data::Dataset::facebook_like(Scale::Smoke);
        let rows = eval_dataset(&ds, &args);
        for r in &rows {
            assert!(
                r.comm_trimmed < r.comm_untrimmed,
                "{:?}: comm {} vs {}",
                r.task,
                r.comm_trimmed,
                r.comm_untrimmed
            );
            assert!(r.time_trimmed > 0.0 && r.time_untrimmed > 0.0);
            assert!(
                r.makespan_trimmed < r.makespan_untrimmed,
                "{:?}: makespan {} vs {}",
                r.task,
                r.makespan_trimmed,
                r.makespan_untrimmed
            );
        }
        assert_eq!(table(&rows).len(), 2);
    }
}
