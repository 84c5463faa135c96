//! Chaos engineering for a federated fleet: inject seeded message loss
//! and an aggregator outage into a straggler-tail training run and watch
//! the recovery layer retry, buffer, and fail over — deterministically.
//!
//! ```sh
//! cargo run --release --example chaos_fleet
//! ```

use lumos::core::{run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{FaultSpec, OutageWindow, Scenario};
use lumos::topo::TopologyConfig;

fn main() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    println!(
        "dataset: {} — {} devices, {} relations\n",
        ds.name,
        ds.num_nodes(),
        ds.graph.num_edges()
    );

    // A straggler-tail fleet behind four regional aggregators. The fault
    // plan: 5% of upload attempts are lost, and aggregator 1 goes dark
    // for rounds 2–3 (its shard re-homes to the deterministic successor).
    let faults = FaultSpec::Faults {
        crash_rate: 0.0,
        loss_rate: 0.05,
        outages: vec![OutageWindow {
            aggregator: 1,
            from_round: 2,
            until_round: 4,
        }],
    };
    let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(8)
        .with_mcmc_iterations(30)
        .with_seed(8)
        .with_scenario(Scenario::StragglerTail)
        .with_topology(TopologyConfig::Hierarchical { aggregators: 4 });

    // 1. The calm run: same fleet, same seed, no faults.
    let calm = run_lumos(&ds, &base);
    let calm_sim = calm.sim.as_ref().expect("scenario run reports sim stats");

    // 2. The chaos run: identical except for the injected faults; the
    //    recovery layer (1s timeout, exponential backoff with seeded
    //    jitter, 3 retries, then degrade into the staleness buffer)
    //    cleans up after them.
    let chaos = run_lumos(&ds, &base.clone().with_faults(faults));
    let chaos_sim = chaos.sim.as_ref().expect("scenario run reports sim stats");

    println!("{:<28} {:>12} {:>12}", "", "calm", "chaos");
    println!(
        "{:<28} {:>12.4} {:>12.4}",
        "test accuracy", calm.test_metric, chaos.test_metric
    );
    println!(
        "{:<28} {:>12.2} {:>12.2}",
        "sim secs / epoch", calm_sim.avg_epoch_virtual_secs, chaos_sim.avg_epoch_virtual_secs
    );

    println!("\nrecovery counters (chaos run):");
    println!("  lost upload attempts : {:>6}", chaos_sim.lost_messages);
    println!("  retries scheduled    : {:>6}", chaos_sim.retries);
    println!("  backoff secs waited  : {:>9.2}", chaos_sim.retry_secs);
    println!("  crashed device-rounds: {:>6}", chaos_sim.crashed_devices);
    println!("  failover shard-rounds: {:>6}", chaos_sim.failovers);
    println!(
        "  buffered updates     : {:>6}   (exhausted sends degrade here, never vanish)",
        chaos_sim.buffered_updates
    );
    println!(
        "  wasted updates       : {:>6}   (zero by construction)",
        chaos_sim.wasted_updates
    );

    // 3. Determinism: replay the chaos run — same seed, same fault spec —
    //    and every counter and every learned weight comes back identical.
    let replay = run_lumos(
        &ds,
        &base.clone().with_faults(FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate: 0.05,
            outages: vec![OutageWindow {
                aggregator: 1,
                from_round: 2,
                until_round: 4,
            }],
        }),
    );
    assert_eq!(
        chaos.test_metric.to_bits(),
        replay.test_metric.to_bits(),
        "chaos runs are seeded: replays must be bit-identical"
    );
    assert_eq!(chaos.sim, replay.sim);
    println!("\nreplayed the chaos run: bit-identical, counters included.");
}
