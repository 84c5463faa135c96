//! Heterogeneous decentralized devices: train Lumos under the
//! straggler-tail scenario and watch the discrete-event simulator price
//! each epoch by the fleet's actual capabilities — then read one churning,
//! buffered run round by round off its per-round records.
//!
//! ```sh
//! cargo run --release --example heterogeneous_devices
//! ```

use lumos::core::{run_lumos, AggregationPolicy, BalanceObjective, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{Scenario, ScenarioState};

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    println!(
        "dataset: {} — {} devices, {} relations\n",
        ds.name,
        ds.num_nodes(),
        ds.graph.num_edges()
    );

    // 1. What does a straggler-tail fleet look like? Sample it directly.
    let fleet = ScenarioState::new(Scenario::StragglerTail, ds.num_nodes(), 8);
    let mut rates: Vec<f64> = fleet.profiles().iter().map(|p| p.compute_rate).collect();
    rates.sort_by(f64::total_cmp);
    println!(
        "straggler-tail fleet: compute rate min {:.1} / median {:.1} / max {:.1} units/s",
        rates[0],
        rates[rates.len() / 2],
        rates[rates.len() - 1]
    );

    // 2. Train under each scenario. Same seed ⇒ identical training math;
    //    only the simulated timing differs.
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(8)
        .with_mcmc_iterations(30)
        .with_seed(8);
    println!(
        "\n{:<16} {:>14} {:>12} {:>16} {:>10}",
        "scenario", "epoch secs", "utilization", "top straggler", "dropped"
    );
    for scenario in Scenario::ALL {
        let report = run_lumos(&ds, &base.clone().with_scenario(scenario));
        let sim = report.sim.expect("scenario run reports sim stats");
        let straggler = sim
            .dominant_straggler()
            .map_or("n/a".to_string(), |(d, c)| format!("dev {d} x{c}"));
        println!(
            "{:<16} {:>14.2} {:>12.2} {:>16} {:>10}",
            sim.scenario,
            sim.avg_epoch_virtual_secs,
            sim.mean_utilization,
            straggler,
            sim.dropped_device_rounds
        );
    }

    // 3. Tree trimming's win under extreme heterogeneity: when the slow
    //    tail hits a high-degree device, trimming shrinks the straggler's
    //    tree exactly where a work unit costs the most virtual seconds.
    //    (When the slowest device happens to have a tiny ego network —
    //    other seeds — capability, not degree, sets the makespan and the
    //    win shrinks: exactly the effect this simulator exists to expose.)
    let tail = base.clone().with_scenario(Scenario::StragglerTail);
    let trimmed = run_lumos(&ds, &tail).sim.unwrap();
    let untrimmed = run_lumos(&ds, &tail.clone().without_tree_trimming())
        .sim
        .unwrap();
    println!(
        "\nstraggler-tail, trimming on : {:>8.2} sim secs/epoch",
        trimmed.avg_epoch_virtual_secs
    );
    println!(
        "straggler-tail, trimming off: {:>8.2} sim secs/epoch  ({:.0}% slower)",
        untrimmed.avg_epoch_virtual_secs,
        (untrimmed.avg_epoch_virtual_secs / trimmed.avg_epoch_virtual_secs - 1.0) * 100.0
    );

    // 4. Heterogeneity-aware balancing: price each tree node in virtual
    //    microseconds (from the fleet's capability profiles) and let the
    //    MCMC minimize the weighted makespan instead of tree-node counts.
    //    A throttled device then sheds branches even when its degree is
    //    average — the straggler split capability-vs-degree exposes.
    let weighted = run_lumos(
        &ds,
        &tail
            .clone()
            .with_balance_objective(BalanceObjective::VirtualSecs),
    )
    .sim
    .unwrap();
    println!(
        "straggler-tail, balance virtual secs: {:>8.2} sim secs/epoch  ({:.0}% of the node-count makespan)",
        weighted.avg_epoch_virtual_secs,
        weighted.avg_epoch_virtual_secs / trimmed.avg_epoch_virtual_secs * 100.0
    );

    // 5. Which round was slow, and why? One record per round answers it.
    //    A churning fleet under `Buffered {2, 0.5}`: every round's clock,
    //    who closed it, who was cut from the barrier and carried, whose
    //    carried update arrived, how many are still on their way — the
    //    last row's in-flight updates never land — and what the
    //    re-balancer moved before the round.
    let buffered = base
        .clone()
        .with_scenario(Scenario::Churn)
        .with_aggregation_policy(AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        });
    println!("\nchurn x buffered{{2, 0.5}}, round by round:");
    println!(
        "{:>5} {:>10} {:>9} {:>5} {:>6} {:>4} {:>7} {:>7} {:>9} {:>8} {:>8}",
        "epoch",
        "virt secs",
        "straggler",
        "util",
        "active",
        "cut",
        "carried",
        "arrived",
        "in-flight",
        "migrated",
        "loss"
    );
    for round in &run_lumos(&ds, &buffered).rounds {
        let sim = round
            .sim
            .as_ref()
            .expect("scenario rounds carry a sim half");
        println!(
            "{:>5} {:>10.3} {:>9} {:>5.2} {:>6} {:>4} {:>7} {:>7} {:>9} {:>8} {:>8.4}",
            round.epoch,
            sim.makespan_secs,
            sim.straggler
                .map_or("n/a".to_string(), |d| format!("dev {d}")),
            sim.utilization,
            sim.active,
            sim.cut,
            sim.carried,
            sim.arrived,
            sim.in_flight,
            sim.migrated_nodes,
            round.loss
        );
    }
}
