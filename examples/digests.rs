//! The refactor oracle: one `RunReport::digest()` line per pinned config.
//!
//! Eleven `run_lumos` configs (default, GAT, link prediction, the synchronous
//! barrier on a frozen and on a churning fleet, one per non-trivial
//! aggregation policy, the hierarchical barrier and deadline, the fully
//! loaded run) and
//! the baselines on both tasks, all on `facebook_like(Smoke)` at seed 2023,
//! 8 epochs, 10 MCMC iterations. Identical invocations print identical
//! lines; a behaviour-preserving change prints the same lines before and
//! after.
//!
//! Each line carries three digests: the report's, the report's with the
//! four virtual-time fields (`sim.{total_virtual_secs,
//! avg_epoch_virtual_secs, straggler_sequence, mean_utilization}`) zeroed,
//! and the per-round records' (`RunReport::rounds_digest`, which the
//! report's does not fold). A change that re-prices rounds without
//! touching what is trained moves the first column and leaves the second
//! alone — "timing moved, training did not" is one `diff` of the second
//! column; a change that only adds a record field moves only the third.
//!
//! `tests/round_records.rs` includes this file for [`configs`], so the
//! identities it checks run on exactly the configs pinned here.
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

/// The report's digest with every virtual-time field zeroed.
fn untimed_digest(r: &RunReport) -> u64 {
    let mut r = r.clone();
    if let Some(s) = &mut r.sim {
        s.total_virtual_secs = 0.0;
        s.avg_epoch_virtual_secs = 0.0;
        s.straggler_sequence.clear();
        s.mean_utilization = 0.0;
    }
    r.digest()
}

fn line(name: &str, r: &RunReport) {
    let (cuts, buffered, migrations) = r.sim.as_ref().map_or((0, 0, 0), |s| {
        (s.late_drops, s.buffered_updates, s.migrations)
    });
    println!(
        "{name:<40} {:#018x}  untimed {:#018x}  rounds {:#018x}  test_metric {:.6}  cuts {cuts} buffered {buffered} migrations {migrations}",
        r.digest(),
        untimed_digest(r),
        r.rounds_digest(),
        r.test_metric,
    );
}

/// The eleven pinned `run_lumos` configs, by name.
pub fn configs() -> [(&'static str, LumosConfig); 11] {
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
    [
        ("GCN-sup default", sup()),
        ("GAT-sup", lumos(Backbone::Gat, TaskKind::Supervised)),
        ("GCN-unsup", lumos(Backbone::Gcn, TaskKind::Unsupervised)),
        (
            "FullSync x StragglerTail",
            sup().with_scenario(Scenario::StragglerTail),
        ),
        ("FullSync x Churn", sup().with_scenario(Scenario::Churn)),
        (
            "Deadline{2} x StragglerTail",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        ),
        (
            "FullSync x StragglerTail x Hier{8}",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_topology(TopologyConfig::Hierarchical { aggregators: 8 }),
        ),
        (
            "Deadline{2} x StragglerTail x Hier{8}",
            sup()
                .with_scenario(Scenario::StragglerTail)
                .with_topology(TopologyConfig::Hierarchical { aggregators: 8 })
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
    ]
}

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for (name, cfg) in &configs() {
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
