//! Accounting identities over a run's per-round records.
//!
//! `RunReport::rounds` holds one scalar record per training round, and the
//! run-level sums (`RunReport::sim`, the two per-epoch means) are folds
//! over it. On the eleven `run_lumos` configs `examples/digests.rs` pins —
//! plus one crashing, lossy fleet, which none of the eleven has — every record
//! must account for every update its round's devices formed, exactly once.

mod common;
#[allow(dead_code)]
#[path = "../examples/digests.rs"]
mod digests;

use common::assert_reports_identical;
use lumos::core::{run_lumos, RoundSim};
use lumos::data::{Dataset, Scale};
use lumos::sim::{FaultSpec, Scenario};

#[test]
fn records_account_for_every_update_and_refold_to_the_summary() {
    let ds = Dataset::facebook_like(Scale::Smoke);
    let n = ds.num_nodes() as u64;
    let [default, ..] = digests::configs();
    let crashing = default
        .1
        .with_scenario(Scenario::Churn)
        .with_faults(FaultSpec::Faults {
            crash_rate: 0.05,
            loss_rate: 0.4,
            duplicate_rate: 0.02,
            outages: vec![],
        });
    // What fired somewhere in the table, so no identity holds vacuously.
    let mut fired = RoundSim::default();
    for (name, cfg) in digests::configs()
        .into_iter()
        .chain([("crashing", crashing)])
    {
        let report = run_lumos(&ds, &cfg);

        // (iv) One record per epoch; the sim half exists iff a scenario does.
        assert_eq!(report.rounds.len(), cfg.epochs, "{name}");
        for (epoch, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.epoch, epoch, "{name}");
            assert_eq!(
                r.sim.is_some(),
                cfg.scenario.is_some(),
                "{name} round {epoch}"
            );
            assert_eq!(r.messages_per_device, r.messages as f64 / n as f64);
            assert!(r.bytes >= r.messages && r.mean_cost <= r.makespan);
        }
        // The evaluation history is the records that carry a metric.
        let evaluated = report.rounds.iter().filter(|r| r.val_metric.is_some());
        assert_eq!(evaluated.count(), report.history.len(), "{name}");
        for h in &report.history {
            let r = &report.rounds[h.epoch];
            assert_eq!(r.loss.to_bits(), h.loss.to_bits(), "{name}");
            assert_eq!(r.val_metric.map(f64::to_bits), Some(h.val_metric.to_bits()));
        }

        // (i) The run-level sums are the records, folded: folding again
        // from a blank slate lands on the same bits, field by field.
        let mut refolded = report.clone();
        refolded.sim = None;
        refolded.avg_messages_per_device_per_epoch = f64::NAN;
        refolded.avg_epoch_makespan = f64::NAN;
        refolded.fold_rounds(cfg.scenario.map(Scenario::name));
        assert_reports_identical(&report, &refolded);

        // (ii) Every active device's update is accounted exactly once.
        let sims: Vec<&RoundSim> = report
            .rounds
            .iter()
            .filter_map(|r| r.sim.as_ref())
            .collect();
        for (epoch, s) in sims.iter().enumerate() {
            assert_eq!(s.active + s.absent, n, "{name} round {epoch}");
            assert_eq!(
                s.active,
                s.pooled + s.carried + s.crashed + s.discarded,
                "{name} round {epoch}: {s:?}"
            );
            assert!(s.discarded <= s.cut && s.exhausted <= s.carried && s.events > 0);
            assert!(s.tier2_secs >= 0.0 && s.tier2_secs < s.makespan_secs);
        }
        // (iii) Every carried update arrives, or is still in flight at the end.
        let total = |f: fn(&RoundSim) -> u64| sims.iter().map(|s| f(s)).sum::<u64>();
        let stranded = sims.last().map_or(0, |s| s.in_flight);
        assert_eq!(
            total(|s| s.carried),
            total(|s| s.arrived) + stranded,
            "{name}"
        );

        fired.absent += total(|s| s.absent);
        fired.crashed += total(|s| s.crashed);
        fired.discarded += total(|s| s.discarded);
        fired.exhausted += total(|s| s.exhausted);
        fired.arrived += total(|s| s.arrived);
        fired.in_flight += stranded;
        fired.migrated_nodes += total(|s| s.migrated_nodes);
        fired.tier2_secs += sims.iter().map(|s| s.tier2_secs).sum::<f64>();
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
