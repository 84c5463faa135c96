//! Fault-injection & recovery properties at the `run_lumos` level.
//!
//! PR 10 added a seeded fault-injection subsystem (mid-round crashes,
//! message loss with retry/backoff recovery, aggregator outage failover).
//! These properties pin its three contracts:
//!
//! 1. **Opt-in**: `FaultSpec::None` — and even a zero-rate
//!    `FaultSpec::Faults` — is bit-identical to the seed path on every
//!    scenario preset;
//! 2. **No lost updates**: total message loss with an unbounded retry
//!    budget still terminates (the hard retry cap exhausts the send) and
//!    every exhausted upload degrades into the staleness buffer;
//! 3. **Failover conservation**: an aggregator outage re-homes its shard
//!    without touching the training math — the tiered POOL stays
//!    sum-conserving, so the learned model is bit-identical to the same
//!    faulted run without the outage;
//! 4. **One schedule**: the run that finds an upload exhausted is the run
//!    that prices the round, so the exhausted upload's retry chain is on
//!    the clock and its update has no landing there.
//!
//! Contract 1 is two collapse laws of `common::laws` (`IdleRecovery`,
//! `ZeroRates`), which `tests/conformance.rs` checks on every config of an
//! all-pairs cover; the tests here pin them on every preset and policy.

#[expect(dead_code, reason = "each suite calls the laws it pins")]
mod common;

use common::laws::{self, Collapse};
use lumos::core::{run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::fed::{ledger_work, SimNetwork};
use lumos::gnn::Backbone;
use lumos::sim::{
    AggregationPolicy, DeviceProfile, EventDrivenRuntime, FaultSpec, FaultState, OutageWindow,
    RecoveryPolicy, RoundPolicy, Scenario, HARD_RETRY_CAP,
};
use lumos::topo::TopologyConfig;
use proptest::prelude::*;

fn base_config(seed: u64) -> LumosConfig {
    LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(4)
        .with_mcmc_iterations(10)
        .with_seed(seed)
}

const PRESETS: [Scenario; 4] = [
    Scenario::Uniform,
    Scenario::MobileFleet,
    Scenario::StragglerTail,
    Scenario::Churn,
];

#[test]
fn a_none_fault_spec_is_bit_identical_to_the_seed_on_every_preset() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    for scenario in PRESETS {
        // A non-default recovery policy must be inert: it is only
        // consulted once a fault spec is actually set.
        let cfg = base_config(11).with_scenario(scenario);
        let (_, none) = Collapse::IdleRecovery.holds(&ds, &cfg);
        let sim = none.sim.expect("scenario run reports sim stats");
        assert_eq!(sim.lost_messages, 0);
        assert_eq!(sim.retries, 0);
        assert_eq!(sim.crashed_devices, 0);
        assert_eq!(sim.failovers, 0);
    }
}

#[test]
fn zero_rate_faults_take_the_fault_path_and_stay_bit_identical() {
    // `Faults { 0, 0, 0, [] }` is NOT `FaultSpec::None`: it builds the
    // fault state, compiles a plan every round and hands it to the
    // round's simulation (which a plan keeps from being memoised) — and
    // every one of those hops must still reproduce the fault-free run bit
    // for bit when nothing fires. Under
    // the cutting policies this is also the run-level law that a 0/1
    // weighting of the POOL is a mask, flat and tiered: faults used to
    // switch a non-carrying policy from the masked to the weighted build.
    let ds = Dataset::facebook_like(Scale::Smoke);
    for policy in [
        AggregationPolicy::FullSync,
        AggregationPolicy::Deadline { factor: 2.0 },
        AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        },
        lumos_bench::space::quorum(ds.num_nodes()),
    ] {
        for topology in [
            TopologyConfig::Flat,
            TopologyConfig::Hierarchical { aggregators: 4 },
        ] {
            let cfg = base_config(12)
                .with_scenario(Scenario::StragglerTail)
                .with_aggregation_policy(policy)
                .with_topology(topology);
            let (_, zero) = Collapse::ZeroRates.holds(&ds, &cfg);
            let cuts = zero.sim.expect("scenario run reports sim stats").late_drops;
            let cutting = matches!(
                policy,
                AggregationPolicy::Deadline { .. } | AggregationPolicy::Buffered { .. }
            );
            assert_eq!(cuts > 0, cutting, "{policy:?} × {topology:?}: {cuts} cuts");
        }
    }
}

#[test]
fn total_loss_with_an_unbounded_budget_terminates_into_the_buffer() {
    // Loss rate 1.0: every upload attempt is lost, forever. An unbounded
    // retry budget must still terminate — the hard retry cap exhausts the
    // send — and the exhausted update degrades into the staleness buffer
    // instead of vanishing.
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = base_config(13)
        .with_scenario(Scenario::StragglerTail)
        .with_faults(FaultSpec::message_loss(1.0))
        .with_recovery(RecoveryPolicy {
            retry_budget: u32::MAX,
            ..RecoveryPolicy::default()
        });
    let report = run_lumos(&ds, &cfg);
    let sim = report.sim.expect("scenario run reports sim stats");
    let n = ds.num_nodes() as u64;
    let epochs = 4u64;
    // Every device retries to the cap every round, then exhausts.
    assert_eq!(sim.retries, n * epochs * HARD_RETRY_CAP as u64);
    // Each attempt (initial + every retry) is lost.
    assert_eq!(sim.lost_messages, n * epochs * (HARD_RETRY_CAP as u64 + 1));
    assert!(sim.retry_secs > 0.0, "backoff waits must be priced");
    assert_eq!(sim.crashed_devices, 0);
    assert!(
        sim.buffered_updates >= n * (epochs - 1),
        "every exhausted upload must land in the staleness buffer, got {}",
        sim.buffered_updates
    );
    assert_eq!(sim.wasted_updates, 0, "recovery never discards an update");
    // The rounds are priced on what their devices attempted: every retry
    // chain is on the schedule that closes its round, so the run outlasts
    // the mean device's share of the backoff waits.
    assert!(
        sim.total_virtual_secs >= sim.retry_secs / n as f64,
        "{} virtual s cannot hold {} s of waits per device",
        sim.total_virtual_secs,
        sim.retry_secs / n as f64
    );
}

#[test]
fn an_exhausted_upload_has_no_landing_in_the_round_that_prices_it() {
    // A round is simulated once, on what its devices attempt. An upload
    // that runs out its retry budget attempted a burst, so that schedule
    // carries its whole retry chain and no landing. (Pricing the ledger
    // after the fact, where the exhausted sender is parked and its burst
    // silenced, lands the same update at its `ComputeDone` — the two-pass
    // disagreement the single run removes.)
    let profiles = vec![DeviceProfile::baseline(); 3];
    let mut faults = FaultState::new(FaultSpec::message_loss(1.0), RecoveryPolicy::default(), 5);
    let plan = faults.compile_round(&profiles);
    let priced = |attempted: bool| {
        let mut net = SimNetwork::new(3);
        let snap = net.snapshot();
        for d in (0..3).filter(|_| attempted) {
            net.send(d, SimNetwork::SERVER, 64);
        }
        let work = ledger_work(&net, &snap, &[4, 4, 4], 2);
        let schedule = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan));
        let mut round = RoundPolicy::new(&AggregationPolicy::FullSync, &schedule);
        schedule.run(|t, ev| round.on_event(t, ev))
    };
    let (round, silenced) = (priced(true), priced(false));
    assert!(round.update_delivery_secs.iter().all(Option::is_none));
    assert!(silenced.update_delivery_secs.iter().all(Option::is_some));
    assert!(
        round.makespan_secs > silenced.makespan_secs,
        "the retry chains are on the round's clock"
    );
}

#[test]
fn failover_conserves_the_training_math_and_counts_shard_rounds() {
    // An outage window changes who serves the shard — routing and timing
    // only. The tiered POOL still sums every member exactly once, so the
    // learned model must be bit-identical to the same run without the
    // outage, while the failover counter records each re-homed
    // shard-round.
    let ds = Dataset::facebook_like(Scale::Smoke);
    let cfg = base_config(14)
        .with_scenario(Scenario::StragglerTail)
        .with_topology(TopologyConfig::Hierarchical { aggregators: 4 });
    let zero_faults = FaultSpec::Faults {
        crash_rate: 0.0,
        loss_rate: 0.0,
        outages: vec![],
    };
    let calm = run_lumos(&ds, &cfg.clone().with_faults(zero_faults));
    let outaged = run_lumos(
        &ds,
        &cfg.clone().with_faults(FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate: 0.0,
            outages: vec![OutageWindow {
                aggregator: 1,
                from_round: 1,
                until_round: 3,
            }],
        }),
    );
    assert_eq!(calm.test_metric.to_bits(), outaged.test_metric.to_bits());
    assert_eq!(calm.final_loss().to_bits(), outaged.final_loss().to_bits());
    let (cs, os) = (calm.sim.unwrap(), outaged.sim.unwrap());
    assert_eq!(cs.failovers, 0);
    assert_eq!(os.failovers, 2, "one re-homed shard in rounds 1 and 2");
    // Device-tier traffic is untouched: members upload the same updates,
    // just routed to the successor (aggregator partials are tier-2 ledger
    // traffic, not device messages).
    assert_eq!(
        calm.avg_messages_per_device_per_epoch.to_bits(),
        outaged.avg_messages_per_device_per_epoch.to_bits()
    );
    // And the round's makespan never shrinks below the calm run's: the
    // successor still waits for every re-homed member.
    assert!(os.total_virtual_secs >= cs.total_virtual_secs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same seed + same spec ⇒ bit-identical reports, recovery counters
    /// included — the acceptance criterion for reproducible chaos runs.
    #[test]
    fn faulted_runs_are_seed_deterministic(seed in 1u64..1000) {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = base_config(seed)
            .with_scenario(Scenario::Churn)
            .with_faults(FaultSpec::Faults {
                crash_rate: 0.05,
                loss_rate: 0.15,
                outages: vec![],
            });
        let a = laws::same_seed(&ds, &cfg);
        let sim = a.sim.expect("scenario run reports sim stats");
        prop_assert!(
            sim.lost_messages > 0 || sim.crashed_devices > 0,
            "15% loss + 5% crash over 4 rounds should fire at least once"
        );
    }
}
