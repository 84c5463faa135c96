//! Collapse laws of the event-driven round at the `run_lumos` level.
//!
//! Every round is one `lumos_sim::EventDrivenRuntime` run whose handler
//! both names the late updates and closes the round; the handlers are
//! checked against the post-hoc reference cut inside `lumos-sim` /
//! `lumos-topo` (`round_policy_verdicts_equal_the_post_hoc_cut` and
//! friends). What is pinned here is the run-level contract: a policy that
//! ends up waiting for everyone *is* the synchronous barrier — an `Async`
//! quorum of the whole fleet (`AggregationPolicy::resolve` collapses it up
//! front), and a deadline so lax that nobody misses it (the handler stays
//! on the barrier, drains included, instead of closing at the last
//! landing).

mod common;

use common::assert_reports_identical;
use lumos::core::{run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{AggregationPolicy, Scenario};
use lumos::topo::TopologyConfig;
use proptest::prelude::*;

fn base_config(seed: u64) -> LumosConfig {
    LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(4)
        .with_mcmc_iterations(10)
        .with_seed(seed)
}

/// A deadline nobody misses collapses to `FullSync` bit for bit, on a
/// frozen and on a churning fleet, flat and tiered: a cut round in which
/// nobody is late runs to the barrier.
#[test]
fn unreachable_deadline_collapses_to_full_sync() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for scenario in [Scenario::StragglerTail, Scenario::Churn] {
        for topology in [
            TopologyConfig::Flat,
            TopologyConfig::Hierarchical { aggregators: 8 },
        ] {
            let cfg = base_config(21)
                .with_scenario(scenario)
                .with_topology(topology);
            let barrier = run_lumos(&ds, &cfg);
            let lax = run_lumos(
                &ds,
                &cfg.clone()
                    .with_aggregation_policy(AggregationPolicy::Deadline { factor: 1e12 }),
            );
            assert_reports_identical(&barrier, &lax);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// An async quorum of the entire fleet collapses to `FullSync` bit for
    /// bit: waiting for everyone's update *is* the synchronous barrier.
    #[test]
    fn full_fleet_async_quorum_collapses_to_full_sync(seed in any::<u64>()) {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = base_config(seed).with_scenario(Scenario::StragglerTail);
        let barrier = run_lumos(&ds, &cfg);
        let collapsed = run_lumos(
            &ds,
            &cfg.clone().with_aggregation_policy(AggregationPolicy::Async {
                min_updates: ds.num_nodes(),
            }),
        );
        assert_reports_identical(&barrier, &collapsed);
    }
}
