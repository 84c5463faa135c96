//! Same-seed reproducibility of the full pipeline through the facade.
//!
//! Everything stochastic in the workspace draws from the seeded
//! xoshiro256++ streams pinned by `crates/common/tests/rng_golden.rs`, so
//! two runs with identical configs must produce bit-identical reports
//! (wall-clock fields excepted). This is what makes any CI failure in the
//! integration suites reproducible locally from the printed seed.

use lumos::core::{
    run_lumos, AggregationPolicy, BalanceObjective, LumosConfig, RunReport, TaskKind,
    TopologyConfig,
};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{FaultSpec, Scenario};

fn smoke_run(seed: u64) -> RunReport {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(12)
        .with_mcmc_iterations(15)
        .with_seed(seed);
    run_lumos(&ds, &cfg)
}

/// Asserts every deterministic field of two reports is identical. Wall-clock
/// fields (`avg_epoch_secs`, `constructor.wall_secs`) are the only exempt
/// ones.
fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.system, b.system);
    assert_eq!(a.dataset, b.dataset);
    assert_eq!(a.backbone, b.backbone);
    assert_eq!(a.task, b.task);
    assert_eq!(
        a.test_metric.to_bits(),
        b.test_metric.to_bits(),
        "test metric diverged"
    );
    assert_eq!(
        a.best_val_metric.to_bits(),
        b.best_val_metric.to_bits(),
        "validation metric diverged"
    );
    assert_eq!(a.history.len(), b.history.len());
    for (ha, hb) in a.history.iter().zip(&b.history) {
        assert_eq!(ha.epoch, hb.epoch);
        assert_eq!(
            ha.loss.to_bits(),
            hb.loss.to_bits(),
            "loss diverged at epoch {}",
            ha.epoch
        );
        assert_eq!(
            ha.val_metric.to_bits(),
            hb.val_metric.to_bits(),
            "val metric diverged at epoch {}",
            ha.epoch
        );
    }
    assert_eq!(
        a.avg_messages_per_device_per_epoch.to_bits(),
        b.avg_messages_per_device_per_epoch.to_bits()
    );
    assert_eq!(a.init_messages, b.init_messages);
    assert_eq!(a.constructor.trimmed, b.constructor.trimmed);
    assert_eq!(
        a.constructor.workloads, b.constructor.workloads,
        "trimmed workloads diverged"
    );
    assert_eq!(a.constructor.max_workload, b.constructor.max_workload);
    assert_eq!(a.constructor.untrimmed_max, b.constructor.untrimmed_max);
    assert_eq!(a.constructor.secure_comm, b.constructor.secure_comm);
    assert_eq!(a.constructor.comparisons, b.constructor.comparisons);
    assert_eq!(a.constructor.server_messages, b.constructor.server_messages);
    assert_eq!(
        a.constructor.mcmc_trace, b.constructor.mcmc_trace,
        "MCMC trace diverged"
    );
}

#[test]
fn same_seed_gives_identical_reports() {
    let first = smoke_run(0xC0FFEE);
    let second = smoke_run(0xC0FFEE);
    assert_reports_identical(&first, &second);
}

#[test]
fn same_seed_gives_identical_reports_off_the_default_path() {
    // The default run never visits the tape's `MulColBroadcast` /
    // `SegmentSoftmax` / `ConcatCols` arms (GAT), `BceWithLogitsMean`
    // (link prediction) or the tiered `Add` of shard partials with
    // per-leaf staleness weights (the fully loaded config); each run draws
    // its buffers from one recycled tape, so a stale one would show here.
    let base = |backbone, task| {
        LumosConfig::new(backbone, task)
            .with_epochs(6)
            .with_mcmc_iterations(10)
            .with_seed(0xFACADE)
    };
    let loaded = base(Backbone::Gcn, TaskKind::Supervised)
        .with_scenario(Scenario::StragglerTail)
        .with_balance_objective(BalanceObjective::VirtualSecs)
        .with_topology(TopologyConfig::Hierarchical { aggregators: 8 })
        .with_aggregation_policy(AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        })
        .with_faults(FaultSpec::message_loss(0.05));
    let ds = Dataset::facebook_like(Scale::Smoke);
    for cfg in [
        base(Backbone::Gat, TaskKind::Supervised),
        base(Backbone::Gcn, TaskKind::Unsupervised),
        loaded,
    ] {
        let (a, b) = (run_lumos(&ds, &cfg), run_lumos(&ds, &cfg));
        assert_reports_identical(&a, &b);
        assert!(a.history.iter().all(|h| h.loss.is_finite()));
        if let (Some(sa), Some(sb)) = (&a.sim, &b.sim) {
            assert_eq!(
                sa.total_virtual_secs.to_bits(),
                sb.total_virtual_secs.to_bits()
            );
            assert_eq!(sa.buffered_updates, sb.buffered_updates);
        }
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the opposite failure: a seed that is silently ignored
    // would make the reproducibility test above pass vacuously.
    let a = smoke_run(1);
    let b = smoke_run(2);
    let same_metric = a.test_metric.to_bits() == b.test_metric.to_bits();
    let same_workloads = a.constructor.workloads == b.constructor.workloads;
    assert!(
        !(same_metric && same_workloads),
        "seeds 1 and 2 produced bit-identical runs — seed is not being threaded"
    );
}

fn scenario_run(seed: u64, scenario: Scenario) -> RunReport {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(8)
        .with_mcmc_iterations(10)
        .with_seed(seed)
        .with_scenario(scenario);
    run_lumos(&ds, &cfg)
}

#[test]
fn same_seed_same_scenario_gives_identical_simulation() {
    // Churn exercises every stochastic piece of the simulator: fleet
    // sampling, dropout/rejoin, and the event-driven epoch timing.
    for scenario in [Scenario::StragglerTail, Scenario::Churn] {
        let a = scenario_run(0xDECADE, scenario);
        let b = scenario_run(0xDECADE, scenario);
        assert_reports_identical(&a, &b);
        let (sa, sb) = (a.sim.expect("sim summary"), b.sim.expect("sim summary"));
        assert_eq!(sa.scenario, sb.scenario);
        assert_eq!(
            sa.straggler_sequence, sb.straggler_sequence,
            "{}: straggler sequence diverged",
            sa.scenario
        );
        assert_eq!(
            sa.total_virtual_secs.to_bits(),
            sb.total_virtual_secs.to_bits(),
            "{}: simulated makespan diverged",
            sa.scenario
        );
        assert_eq!(
            sa.avg_epoch_virtual_secs.to_bits(),
            sb.avg_epoch_virtual_secs.to_bits()
        );
        assert_eq!(sa.mean_utilization.to_bits(), sb.mean_utilization.to_bits());
        assert_eq!(sa.dropped_device_rounds, sb.dropped_device_rounds);
    }
}

#[test]
fn scenario_is_a_pure_timing_overlay() {
    // Enabling a churn-free scenario must not touch the trainer's
    // stochastic streams: the learned model is bit-identical with and
    // without it. (Churn scenarios are deliberately NOT overlays anymore:
    // absent devices send no messages and leave the POOL.)
    let plain = smoke_run(0xDECADE);
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(12)
        .with_mcmc_iterations(15)
        .with_seed(0xDECADE)
        .with_scenario(Scenario::MobileFleet);
    let overlaid = run_lumos(&ds, &cfg);
    assert_reports_identical(&plain, &overlaid);
    assert!(plain.sim.is_none());
    assert!(overlaid.sim.is_some());
}

#[test]
fn weighted_objective_is_seed_deterministic_and_not_a_noop() {
    // VirtualSecs deliberately changes tree construction (it is NOT a pure
    // timing overlay — that contract belongs to the default TreeNodes
    // objective), but it must still be a pure function of the seed.
    let run = || {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_epochs(8)
            .with_mcmc_iterations(10)
            .with_seed(0xBA1A4CE)
            .with_scenario(Scenario::StragglerTail)
            .with_balance_objective(BalanceObjective::VirtualSecs);
        run_lumos(&ds, &cfg)
    };
    let a = run();
    let b = run();
    assert_reports_identical(&a, &b);
    let (sa, sb) = (a.sim.expect("sim summary"), b.sim.expect("sim summary"));
    assert_eq!(sa.straggler_sequence, sb.straggler_sequence);
    assert_eq!(
        sa.total_virtual_secs.to_bits(),
        sb.total_virtual_secs.to_bits()
    );
    // And it really rebalances: the weighted run's trimmed workloads must
    // differ from the node-count run's under a heterogeneous fleet.
    assert!(
        a.constructor.weighted,
        "a scenario was supplied, so VirtualSecs must not degenerate"
    );
    let tree_nodes = scenario_run(0xBA1A4CE, Scenario::StragglerTail);
    assert!(!tree_nodes.constructor.weighted);
    assert_eq!(
        tree_nodes.constructor.max_weighted_workload as usize, tree_nodes.constructor.max_workload,
        "TreeNodes objective reports node counts in both fields"
    );
    assert_ne!(
        a.constructor.workloads, tree_nodes.constructor.workloads,
        "VirtualSecs must place trees differently under a Pareto fleet"
    );
}

#[test]
fn different_scenarios_time_differently() {
    // The overlay must actually depend on the scenario: a uniform fleet
    // and a Pareto tail cannot produce the same virtual makespan.
    let uniform = scenario_run(5, Scenario::Uniform).sim.unwrap();
    let tail = scenario_run(5, Scenario::StragglerTail).sim.unwrap();
    assert!(uniform.total_virtual_secs < tail.total_virtual_secs);
}

#[test]
fn dataset_generation_is_seed_deterministic() {
    let a = Dataset::facebook_like(Scale::Smoke);
    let b = Dataset::facebook_like(Scale::Smoke);
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    let ea: Vec<(u32, u32)> = a.graph.edges().collect();
    let eb: Vec<(u32, u32)> = b.graph.edges().collect();
    assert_eq!(
        ea, eb,
        "generated edge lists diverged between identical calls"
    );
}
