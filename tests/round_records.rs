//! Accounting identities over a run's per-round records.
//!
//! `RunReport::rounds` holds one scalar record per training round, and the
//! run-level sums (`RunReport::sim`, the two per-epoch means) are folds
//! over it. On the eleven `run_lumos` configs `examples/digests.rs` pins —
//! plus one crashing, lossy fleet, which none of the eleven has — every record
//! must account for every update its round's devices formed, exactly once:
//! law (ii) of `common::laws`, which `tests/conformance.rs` checks on an
//! all-pairs cover. Here the table must also make every identity bite.

#[expect(dead_code, reason = "each suite calls the laws it pins")]
mod common;
#[expect(dead_code, reason = "the example's `main` is not called here")]
#[path = "../examples/digests.rs"]
mod digests;

use common::laws;
use lumos::core::{run_lumos, RoundSim};
use lumos::data::{Dataset, Scale};
use lumos::sim::{FaultSpec, Scenario};

#[test]
fn records_account_for_every_update_and_refold_to_the_summary() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let [default, ..] = digests::configs();
    let crashing = default
        .1
        .with_scenario(Scenario::Churn)
        .with_faults(FaultSpec::Faults {
            crash_rate: 0.05,
            loss_rate: 0.4,
            outages: vec![],
        });
    // What fired somewhere in the table, so no identity holds vacuously.
    let mut fired = RoundSim::default();
    for (_, cfg) in digests::configs()
        .into_iter()
        .chain([("crashing", crashing)])
    {
        let report = run_lumos(&ds, &cfg);
        laws::conserves_updates(&report, &cfg, ds.num_nodes());

        let sims: Vec<&RoundSim> = report
            .rounds
            .iter()
            .filter_map(|r| r.sim.as_ref())
            .collect();
        for s in &sims {
            fired.absent += s.absent;
            fired.crashed += s.crashed;
            fired.discarded += s.discarded;
            fired.exhausted += s.exhausted;
            fired.arrived += s.arrived;
            fired.migrated_nodes += s.migrated_nodes;
            fired.tier2_secs += s.tier2_secs;
        }
        fired.in_flight += sims.last().map_or(0, |s| s.in_flight);
    }
    assert!(
        fired.absent > 0
            && fired.crashed > 0
            && fired.discarded > 0
            && fired.exhausted > 0
            && fired.arrived > 0
            && fired.in_flight > 0
            && fired.migrated_nodes > 0
            && fired.tier2_secs > 0.0,
        "an identity held vacuously: {fired:?}"
    );
}
