//! The refactor oracle: one `RunReport::digest()` line per pinned config.
//!
//! Seven `run_lumos` configs (default, GAT, link prediction, one per
//! non-trivial aggregation policy, the fully loaded run) and the baselines
//! on both tasks, all on `facebook_like(Smoke)` at seed 2023, 8 epochs, 10
//! MCMC iterations. Identical invocations print identical lines; a
//! behaviour-preserving change prints the same lines before and after.
//!
//! ```sh
//! cargo run --release --example digests
//! ```

use lumos::baselines::{
    run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig, LpgnnParams, NaiveFedParams,
};
use lumos::core::{
    run_lumos, AggregationPolicy, BalanceObjective, LumosConfig, RunReport, TaskKind,
    TopologyConfig,
};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{FaultSpec, Scenario};

const SEED: u64 = 2023;
const EPOCHS: usize = 8;

fn line(name: &str, r: &RunReport) {
    let (cuts, buffered, migrations) = r.sim.as_ref().map_or((0, 0, 0), |s| {
        (s.late_drops, s.buffered_updates, s.migrations)
    });
    println!(
        "{name:<30} {:#018x}  test_metric {:.6}  cuts {cuts} buffered {buffered} migrations {migrations}",
        r.digest(),
        r.test_metric,
    );
}

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let lumos = |backbone, task| {
        LumosConfig::new(backbone, task)
            .with_epochs(EPOCHS)
            .with_mcmc_iterations(10)
            .with_seed(SEED)
    };
    let sup = || lumos(Backbone::Gcn, TaskKind::Supervised);
    let buffered = AggregationPolicy::Buffered {
        factor: 2.0,
        decay: 0.5,
    };
    let configs = [
        ("GCN-sup default", sup()),
        ("GAT-sup", lumos(Backbone::Gat, TaskKind::Supervised)),
        ("GCN-unsup", lumos(Backbone::Gcn, TaskKind::Unsupervised)),
        (
            "Deadline{2} x StragglerTail",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        ),
        (
            "Buffered{2,0.5} x Churn",
            sup()
                .with_scenario(Scenario::Churn)
                .with_aggregation_policy(buffered),
        ),
        (
            "Async{240} x StragglerTail",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_aggregation_policy(AggregationPolicy::Async { min_updates: 240 }),
        ),
        (
            "loaded",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_balance_objective(BalanceObjective::VirtualSecs)
                .with_topology(TopologyConfig::Hierarchical { aggregators: 8 })
                .with_aggregation_policy(buffered)
                .with_faults(FaultSpec::message_loss(0.05)),
        ),
    ];
    for (name, cfg) in &configs {
        line(name, &run_lumos(&ds, cfg));
    }

    for (task, tag) in [
        (TaskKind::Supervised, "sup"),
        (TaskKind::Unsupervised, "unsup"),
    ] {
        let cfg = BaselineConfig::new(Backbone::Gcn, task)
            .with_epochs(EPOCHS)
            .with_seed(SEED);
        line(&format!("centralized {tag}"), &run_centralized(&ds, &cfg));
        // LPGNN is a supervised-only system (§VIII-C); it rejects the other task.
        if task == TaskKind::Supervised {
            line(
                &format!("lpgnn {tag}"),
                &run_lpgnn(&ds, &cfg, &LpgnnParams::default()),
            );
        }
        line(
            &format!("naive-fedgnn {tag}"),
            &run_naive_fedgnn(&ds, &cfg, &NaiveFedParams::default()),
        );
    }
}
