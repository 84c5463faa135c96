//! Same-seed reproducibility of the full pipeline through the facade.
//!
//! Everything stochastic in the workspace draws from the seeded
//! xoshiro256++ streams pinned by `crates/common/tests/rng_golden.rs`, so
//! two runs with identical configs must produce bit-identical reports
//! (wall-clock fields excepted), round record by round record. This is what
//! makes any CI failure in the integration suites reproducible locally from
//! the printed seed.

#[expect(dead_code, reason = "each suite calls the laws it pins")]
mod common;

use common::laws;
use lumos::baselines::{run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig};
use lumos::core::{
    run_lumos, AggregationPolicy, BalanceObjective, LumosConfig, RunReport, TaskKind,
    TopologyConfig,
};
use lumos::data::{Dataset, Scale};
use lumos::fed::{ledger_work, SimNetwork};
use lumos::gnn::Backbone;
use lumos::sim::{
    Control, EventDrivenRuntime, FaultSpec, FaultState, RecoveryPolicy, Scenario, ScenarioState,
    SimEvent,
};
use lumos_bench::space;

fn smoke_run(seed: u64) -> RunReport {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(12)
        .with_mcmc_iterations(15)
        .with_seed(seed);
    run_lumos(&ds, &cfg)
}

#[test]
fn same_seed_gives_identical_reports() {
    let first = smoke_run(0xC0FFEE);
    let second = smoke_run(0xC0FFEE);
    laws::assert_identical(&first, &second, "same seed");
}

#[test]
fn same_seed_gives_identical_reports_off_the_default_path() {
    // The default run never visits the tape's `MulColBroadcast` /
    // `SegmentSoftmax` / `ConcatCols` arms (GAT), `BceWithLogitsMean`
    // (link prediction) or the tiered `Add` of shard partials with
    // per-leaf staleness weights (the fully loaded config); each run draws
    // its buffers from one recycled tape, so a stale one would show here.
    // With the three policy rows below these are the off-default configs
    // `examples/digests.rs` pins.
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
    // One row per non-trivial aggregation policy: the deadline's cut, the
    // buffered carry on a churning fleet — whose live migrations make the
    // forest free its memos and rebuild mid-run — and the async quorum.
    let on = |scenario, policy| {
        base(Backbone::Gcn, TaskKind::Supervised)
            .with_scenario(scenario)
            .with_aggregation_policy(policy)
    };
    let buffered = AggregationPolicy::Buffered {
        factor: 2.0,
        decay: 0.5,
    };
    let ds = Dataset::facebook_like(Scale::Smoke);
    for (cfg, min_migrations) in [
        (base(Backbone::Gat, TaskKind::Supervised), 0),
        (base(Backbone::Gcn, TaskKind::Unsupervised), 0),
        (loaded, 0),
        (
            on(
                Scenario::StragglerTail,
                AggregationPolicy::Deadline { factor: 2.0 },
            ),
            0,
        ),
        (on(Scenario::Churn, buffered), 1),
        (
            on(Scenario::StragglerTail, space::quorum(ds.num_nodes())),
            0,
        ),
    ] {
        let a = laws::same_seed(&ds, &cfg);
        assert!(a.history.iter().all(|h| h.loss.is_finite()));
        let migrations = a.sim.as_ref().map_or(0, |sim| sim.migrations);
        assert!(
            migrations >= min_migrations,
            "{migrations} live migrations, expected at least {min_migrations}"
        );
    }
}

#[test]
fn baselines_are_seed_deterministic_on_both_tasks() {
    // The comparison systems share the task head with `run_lumos`; equal
    // seeds must give equal digests for each of them on each task they
    // support (LPGNN is supervised-only, §VIII-C).
    let ds = Dataset::facebook_like(Scale::Smoke);
    for task in [TaskKind::Supervised, TaskKind::Unsupervised] {
        let cfg = BaselineConfig::new(Backbone::Gcn, task)
            .with_epochs(6)
            .with_seed(0xFACADE);
        let mut systems: Vec<Box<dyn Fn() -> RunReport>> = vec![
            Box::new(|| run_centralized(&ds, &cfg)),
            Box::new(|| run_naive_fedgnn(&ds, &cfg)),
        ];
        if task == TaskKind::Supervised {
            systems.push(Box::new(|| run_lpgnn(&ds, &cfg)));
        }
        for run in &systems {
            let (a, b) = (run(), run());
            laws::assert_identical(&a, &b, &format!("same seed, {}", a.system));
            assert!(a.history.iter().all(|h| h.loss.is_finite()));
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

fn scenario_config(seed: u64, scenario: Scenario) -> LumosConfig {
    LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(8)
        .with_mcmc_iterations(10)
        .with_seed(seed)
        .with_scenario(scenario)
}

fn scenario_run(seed: u64, scenario: Scenario) -> RunReport {
    run_lumos(
        &Dataset::facebook_like(Scale::Smoke),
        &scenario_config(seed, scenario),
    )
}

#[test]
fn same_seed_same_scenario_gives_identical_simulation() {
    // Churn exercises every stochastic piece of the simulator: fleet
    // sampling, dropout/rejoin, and the event-driven epoch timing.
    let ds = Dataset::facebook_like(Scale::Smoke);
    for scenario in [Scenario::StragglerTail, Scenario::Churn] {
        let a = laws::same_seed(&ds, &scenario_config(0xDECADE, scenario));
        assert!(a.sim.is_some(), "a scenario run reports sim stats");
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
    let mut overlaid = run_lumos(&ds, &cfg);
    assert!(plain.sim.is_none());
    // The summary and each record's sim half are the overlay; everything
    // under them must be untouched.
    assert!(overlaid.sim.take().is_some());
    for round in &mut overlaid.rounds {
        assert!(round.sim.take().is_some());
    }
    laws::assert_identical(&plain, &overlaid, "the scenario overlay");
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
    laws::assert_identical(&a, &b, "same seed, VirtualSecs");
    assert!(a.sim.is_some(), "a scenario run reports sim stats");
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

/// FNV-1a over `(time bits, kind, device, receiver)` of every event three
/// smoke-scale rounds hand their handler: each device sends one payload to
/// every graph neighbour and uploads to the server, the fleet churns
/// between rounds, and a fault plan (when given) crashes devices and loses
/// uploads.
fn event_stream_digest(scenario: Scenario, faults: FaultSpec) -> u64 {
    const SEED: u64 = 0x5C4ED;
    let ds = Dataset::facebook_like(Scale::Smoke);
    let n = ds.num_nodes();
    let tree_nodes: Vec<usize> = (0..n as u32).map(|v| ds.graph.degree(v) + 1).collect();
    let mut state = ScenarioState::new(scenario, n, SEED);
    let mut faults = FaultState::new(faults, RecoveryPolicy::default(), SEED);
    let mut net = SimNetwork::new(n);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut events = 0u64;
    for _ in 0..3 {
        let snap = net.snapshot();
        let up = |d: u32| state.profiles()[d as usize].available;
        for (from, to) in ds.graph.directed_arcs() {
            if up(from) {
                net.send(from, to, 256);
            }
        }
        net.round();
        for d in (0..n as u32).filter(|&d| up(d)) {
            net.send(d, SimNetwork::SERVER, 1024);
        }
        net.round();
        let work = ledger_work(&net, &snap, &tree_nodes, 2);
        let plan = faults.compile_round(state.profiles());
        let stats = EventDrivenRuntime::new_with_faults(state.profiles(), &work, Some(&plan)).run(
            |t, ev| {
                let (kind, receiver) = match *ev {
                    SimEvent::ComputeDone(_) => (0, u32::MAX),
                    SimEvent::Delivered(_) => (1, u32::MAX),
                    SimEvent::Arrived { to, .. } => (2, to),
                    SimEvent::InboxDrained(_) => (3, u32::MAX),
                    SimEvent::Crashed(_) => (4, u32::MAX),
                    SimEvent::Lost(_) => (5, u32::MAX),
                    SimEvent::RetryDue(_) => (6, u32::MAX),
                };
                let words = [
                    t.secs().to_bits(),
                    kind,
                    u64::from(ev.device()),
                    u64::from(receiver),
                ];
                for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Control::Continue
            },
        );
        events += stats.events;
        state.advance_round();
    }
    assert!(events > 3 * n as u64, "a round has several events a device");
    hash
}

#[test]
fn event_streams_are_pinned_per_scenario() {
    // The constants were produced by the event heap of the commit before
    // the schedule became one sorted vector: the stream — order included —
    // is what that change had to preserve, and what the packed integer
    // keys with arrivals expanded from a receiver table preserve too. A
    // trace digest will extend it.
    let lossy = || FaultSpec::Faults {
        crash_rate: 0.05,
        loss_rate: 0.05,
        outages: Vec::new(),
    };
    let pinned: [(Scenario, u64, u64); 4] = [
        (
            Scenario::Uniform,
            0x3d5a_55af_8160_c2bf,
            0x249f_b55d_7461_1b63,
        ),
        (
            Scenario::MobileFleet,
            0x9091_256a_ec47_6333,
            0x0045_e5be_abf1_c4b4,
        ),
        (
            Scenario::StragglerTail,
            0x17ff_3e1d_8ed4_a310,
            0x3ed5_61f1_4984_6d59,
        ),
        (
            Scenario::Churn,
            0x0846_aed2_45f0_a3a0,
            0xd714_f63c_6cf8_ea5a,
        ),
    ];
    for (scenario, clean, faulty) in pinned {
        let got = (
            event_stream_digest(scenario, FaultSpec::None),
            event_stream_digest(scenario, lossy()),
        );
        assert_eq!(
            got,
            (clean, faulty),
            "{}: got ({:#018x}, {:#018x})",
            scenario.name(),
            got.0,
            got.1
        );
    }
}
